type t = { num : int; den : int }

let make num den =
  if den = 0 then raise Division_by_zero;
  let s = if den < 0 then -1 else 1 in
  let num = s * num and den = s * den in
  let g = Mlo_linalg.Intvec.gcd num den in
  if g <= 1 then { num; den } else { num = num / g; den = den / g }

let of_int n = { num = n; den = 1 }
let zero = of_int 0
let one = of_int 1
let num r = r.num
let den r = r.den
let add a b = make ((a.num * b.den) + (b.num * a.den)) (a.den * b.den)
let sub a b = make ((a.num * b.den) - (b.num * a.den)) (a.den * b.den)
let mul a b = make (a.num * b.num) (a.den * b.den)

let div a b =
  if b.num = 0 then raise Division_by_zero;
  make (a.num * b.den) (a.den * b.num)

let neg a = { a with num = -a.num }

let inv a =
  if a.num = 0 then raise Division_by_zero;
  make a.den a.num

let equal a b = a.num = b.num && a.den = b.den
let compare a b = Int.compare (a.num * b.den) (b.num * a.den)
let is_zero a = a.num = 0
let sign a = Int.compare a.num 0
let abs a = { a with num = Stdlib.abs a.num }
let to_float a = float_of_int a.num /. float_of_int a.den

let pp ppf a =
  if a.den = 1 then Format.fprintf ppf "%d" a.num
  else Format.fprintf ppf "%d/%d" a.num a.den

let to_string a = Format.asprintf "%a" pp a
