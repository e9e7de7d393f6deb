type t = int array

let dim = Array.length

let make n c =
  if n < 0 then invalid_arg "Intvec.make: negative dimension";
  Array.make n c

let zero n = make n 0

let unit n i =
  if i < 0 || i >= n then invalid_arg "Intvec.unit: index out of range";
  let v = zero n in
  v.(i) <- 1;
  v

let of_list = Array.of_list
let to_list = Array.to_list
let copy = Array.copy

let equal a b =
  dim a = dim b
  &&
  let rec go i = i >= dim a || (a.(i) = b.(i) && go (i + 1)) in
  go 0

let compare a b =
  let c = Int.compare (dim a) (dim b) in
  if c <> 0 then c
  else
    let rec go i =
      if i >= dim a then 0
      else
        let c = Int.compare a.(i) b.(i) in
        if c <> 0 then c else go (i + 1)
    in
    go 0

let hash v = Array.fold_left (fun acc x -> (acc * 31) + x + 17) (dim v) v

let check_same_dim name a b =
  if dim a <> dim b then invalid_arg (name ^ ": dimension mismatch")

let dot a b =
  check_same_dim "Intvec.dot" a b;
  let s = ref 0 in
  for i = 0 to dim a - 1 do
    s := !s + (a.(i) * b.(i))
  done;
  !s

let map2 name f a b =
  check_same_dim name a b;
  Array.init (dim a) (fun i -> f a.(i) b.(i))

let add a b = map2 "Intvec.add" ( + ) a b
let sub a b = map2 "Intvec.sub" ( - ) a b
let neg a = Array.map (fun x -> -x) a
let scale k a = Array.map (fun x -> k * x) a
let is_zero v = Array.for_all (fun x -> x = 0) v

exception Overflow

let ( +! ) a b =
  let s = a + b in
  if (a >= 0) = (b >= 0) && (s >= 0) <> (a >= 0) then raise Overflow else s

let ( -! ) a b =
  let s = a - b in
  if (a >= 0) <> (b >= 0) && (s >= 0) <> (a >= 0) then raise Overflow else s

(* Operands in [-2^30, 2^30) multiply within 2^60, so the common case
   skips the division: [x + 2^30] is then in [0, 2^31), and any operand
   outside wraps or reaches bit 31. *)
let ( *! ) a b =
  if ((a + 0x4000_0000) lor (b + 0x4000_0000)) lsr 31 = 0 then a * b
  else if a = 0 then 0
  else
    let p = a * b in
    if p / a <> b || (a = -1 && b = min_int) then raise Overflow else p

let rec gcd a b =
  let a = abs a and b = abs b in
  if b = 0 then a else gcd b (a mod b)

let content v = Array.fold_left (fun g x -> gcd g x) 0 v

let primitive v =
  let g = content v in
  if g = 0 || g = 1 then copy v else Array.map (fun x -> x / g) v

let first_nonzero v =
  let rec go i =
    if i >= dim v then None else if v.(i) <> 0 then Some i else go (i + 1)
  in
  go 0

let canonical v =
  let p = primitive v in
  match first_nonzero p with
  | None -> p
  | Some i -> if p.(i) < 0 then neg p else p

let pp ppf v =
  Format.fprintf ppf "(";
  Array.iteri
    (fun i x ->
      if i > 0 then Format.fprintf ppf " ";
      Format.fprintf ppf "%d" x)
    v;
  Format.fprintf ppf ")"

let to_string v = Format.asprintf "%a" pp v
