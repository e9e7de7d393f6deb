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

(* Bareiss fraction-free elimination: all intermediate divisions are exact,
   so the computation stays in the integers. *)
let determinant m =
  if not (is_square m) then invalid_arg "Intmat.determinant: not square";
  let n = rows m in
  if n = 0 then 1
  else begin
    let a = copy m in
    let sign = ref 1 in
    let prev = ref 1 in
    let res = ref None in
    (try
       for k = 0 to n - 2 do
         if a.(k).(k) = 0 then begin
           (* find a pivot row below k *)
           let rec find i =
             if i >= n then None else if a.(i).(k) <> 0 then Some i else find (i + 1)
           in
           match find (k + 1) with
           | None ->
             res := Some 0;
             raise Exit
           | Some i ->
             let tmp = a.(k) in
             a.(k) <- a.(i);
             a.(i) <- tmp;
             sign := - !sign
         end;
         for i = k + 1 to n - 1 do
           for j = k + 1 to n - 1 do
             a.(i).(j) <-
               ((a.(i).(j) * a.(k).(k)) - (a.(i).(k) * a.(k).(j))) / !prev
           done;
           a.(i).(k) <- 0
         done;
         prev := a.(k).(k)
       done
     with Exit -> ());
    match !res with Some d -> d | None -> !sign * a.(n - 1).(n - 1)
  end

(* Rank over Q via rational Gaussian elimination. *)
let rank m =
  let r = rows m and c = cols m in
  if r = 0 || c = 0 then 0
  else begin
    let a = Array.map (Array.map Rat.of_int) m in
    let rk = ref 0 in
    let pivot_row = ref 0 in
    for j = 0 to c - 1 do
      if !pivot_row < r then begin
        (* find nonzero entry in column j at or below pivot_row *)
        let rec find i =
          if i >= r then None
          else if not (Rat.is_zero a.(i).(j)) then Some i
          else find (i + 1)
        in
        match find !pivot_row with
        | None -> ()
        | Some i ->
          let tmp = a.(!pivot_row) in
          a.(!pivot_row) <- a.(i);
          a.(i) <- tmp;
          let p = a.(!pivot_row).(j) in
          for i' = !pivot_row + 1 to r - 1 do
            if not (Rat.is_zero a.(i').(j)) then begin
              let f = Rat.div a.(i').(j) p in
              for j' = j to c - 1 do
                a.(i').(j') <- Rat.sub a.(i').(j') (Rat.mul f a.(!pivot_row).(j'))
              done
            end
          done;
          incr pivot_row;
          incr rk
      end
    done;
    !rk
  end

let is_identity m = is_square m && equal m (identity (rows m))
let is_unimodular m = is_square m && abs (determinant m) = 1
let is_nonsingular m = is_square m && determinant m <> 0

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
