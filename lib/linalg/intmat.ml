type t = int array array

let rows = Array.length
let cols m = if rows m = 0 then 0 else Array.length m.(0)

let make r c x =
  if r < 0 || c < 0 then invalid_arg "Intmat.make: negative dimension";
  Array.init r (fun _ -> Array.make c x)

let identity n =
  Array.init n (fun i -> Array.init n (fun j -> if i = j then 1 else 0))

let of_rows vs =
  match vs with
  | [] -> [||]
  | v0 :: rest ->
    let c = Intvec.dim v0 in
    List.iter
      (fun v ->
        if Intvec.dim v <> c then invalid_arg "Intmat.of_rows: ragged rows")
      rest;
    Array.of_list (List.map Array.copy vs)

let of_lists ls = of_rows (List.map Intvec.of_list ls)
let row m i = Array.copy m.(i)
let col m j = Array.init (rows m) (fun i -> m.(i).(j))
let copy m = Array.map Array.copy m

let equal a b =
  rows a = rows b && cols a = cols b
  &&
  let rec go i = i >= rows a || (Intvec.equal a.(i) b.(i) && go (i + 1)) in
  go 0

let compare a b =
  let c = Int.compare (rows a) (rows b) in
  if c <> 0 then c
  else
    let rec go i =
      if i >= rows a then 0
      else
        let c = Intvec.compare a.(i) b.(i) in
        if c <> 0 then c else go (i + 1)
    in
    go 0

let transpose m =
  let r = rows m and c = cols m in
  Array.init c (fun j -> Array.init r (fun i -> m.(i).(j)))

let mul a b =
  if cols a <> rows b then invalid_arg "Intmat.mul: dimension mismatch";
  let n = cols a in
  Array.init (rows a) (fun i ->
      Array.init (cols b) (fun j ->
          let s = ref 0 in
          for k = 0 to n - 1 do
            s := !s + (a.(i).(k) * b.(k).(j))
          done;
          !s))

let mul_vec m v =
  if cols m <> Intvec.dim v then invalid_arg "Intmat.mul_vec: dimension mismatch";
  Array.init (rows m) (fun i -> Intvec.dot m.(i) v)

let vec_mul v m =
  if Intvec.dim v <> rows m then invalid_arg "Intmat.vec_mul: dimension mismatch";
  Array.init (cols m) (fun j ->
      let s = ref 0 in
      for i = 0 to rows m - 1 do
        s := !s + (v.(i) * m.(i).(j))
      done;
      !s)

let add a b =
  if rows a <> rows b || cols a <> cols b then
    invalid_arg "Intmat.add: dimension mismatch";
  Array.init (rows a) (fun i -> Intvec.add a.(i) b.(i))

let scale k m = Array.map (Intvec.scale k) m
let is_square m = rows m = cols m

(* Fraction-free Gaussian elimination: a reduced row is [pivot * row -
   entry * pivot_row], divided by its content, so every entry stays an
   integer and rows stay primitive.  Checked arithmetic raises where a
   product would wrap. *)
let echelon ~cols a =
  let n = rows a in
  let rank = ref 0 in
  for j = 0 to cols - 1 do
    let r = ref !rank in
    while !r < n && a.(!r).(j) = 0 do
      incr r
    done;
    if !r < n then begin
      let p = a.(!r) in
      a.(!r) <- a.(!rank);
      a.(!rank) <- p;
      for r' = !rank + 1 to n - 1 do
        let row = a.(r') in
        let e = row.(j) in
        if e <> 0 then begin
          for c = j to Array.length row - 1 do
            row.(c) <- Intvec.((p.(j) *! row.(c)) -! (e *! p.(c)))
          done;
          let g = Intvec.content row in
          if g > 1 then
            for c = 0 to Array.length row - 1 do
              row.(c) <- row.(c) / g
            done
        end
      done;
      incr rank
    end
  done;
  !rank

let rank m = echelon ~cols:(cols m) (copy m)

let is_identity m = is_square m && equal m (identity (rows m))

let append_row m v =
  if rows m > 0 && Intvec.dim v <> cols m then
    invalid_arg "Intmat.append_row: dimension mismatch";
  Array.append (copy m) [| Array.copy v |]

let pp ppf m =
  Format.fprintf ppf "@[<v>";
  Array.iteri
    (fun i r ->
      if i > 0 then Format.fprintf ppf "@,";
      Intvec.pp ppf r)
    m;
  Format.fprintf ppf "@]"

let to_string m = Format.asprintf "%a" pp m
