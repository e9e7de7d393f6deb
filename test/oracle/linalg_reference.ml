module Intvec = Mlo_linalg.Intvec
module Intmat = Mlo_linalg.Intmat

(* Rank over Q via rational Gaussian elimination. *)
let rank m =
  let r = Intmat.rows m and c = Intmat.cols m in
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

(* Nullspace by rational reduced row echelon form.  For each free column f
   the corresponding basis vector sets x_f = 1 and x_{p_i} = -rref(i, f)
   for pivot columns p_i; denominators are then cleared and the result is
   put in canonical (primitive, sign-fixed) form. *)

let rref a =
  let r = Intmat.rows a and c = Intmat.cols a in
  let m = Array.init r (fun i -> Array.map Rat.of_int a.(i)) in
  let pivots = ref [] in
  let pr = ref 0 in
  for j = 0 to c - 1 do
    if !pr < r then begin
      let rec find i =
        if i >= r then None
        else if not (Rat.is_zero m.(i).(j)) then Some i
        else find (i + 1)
      in
      match find !pr with
      | None -> ()
      | Some i ->
        let tmp = m.(!pr) in
        m.(!pr) <- m.(i);
        m.(i) <- tmp;
        let p = m.(!pr).(j) in
        for j' = 0 to c - 1 do
          m.(!pr).(j') <- Rat.div m.(!pr).(j') p
        done;
        for i' = 0 to r - 1 do
          if i' <> !pr && not (Rat.is_zero m.(i').(j)) then begin
            let f = m.(i').(j) in
            for j' = 0 to c - 1 do
              m.(i').(j') <- Rat.sub m.(i').(j') (Rat.mul f m.(!pr).(j'))
            done
          end
        done;
        pivots := (!pr, j) :: !pivots;
        incr pr
    end
  done;
  (m, List.rev !pivots)

let lcm a b = if a = 0 || b = 0 then abs (a + b) else abs (a / Intvec.gcd a b * b)

let basis a =
  let c = Intmat.cols a in
  if c = 0 then []
  else if Intmat.rows a = 0 then
    List.init c (fun i -> Intvec.unit c i)
  else begin
    let m, pivots = rref a in
    let pivot_cols = List.map snd pivots in
    let is_pivot j = List.mem j pivot_cols in
    let free_cols =
      List.filter (fun j -> not (is_pivot j)) (List.init c Fun.id)
    in
    let vector_for f =
      (* rational solution with x_f = 1 *)
      let x = Array.make c Rat.zero in
      x.(f) <- Rat.one;
      List.iter (fun (i, p) -> x.(p) <- Rat.neg m.(i).(f)) pivots;
      (* clear denominators *)
      let l = Array.fold_left (fun acc r -> lcm acc (Rat.den r)) 1 x in
      let v = Array.map (fun r -> Rat.num r * (l / Rat.den r)) x in
      Intvec.canonical v
    in
    List.map vector_for free_cols
  end

(* Bareiss fraction-free elimination: all intermediate divisions are exact,
   so the computation stays in the integers. *)
let determinant m =
  if not (Intmat.is_square m) then
    invalid_arg "Linalg_reference.determinant: not square";
  let n = Intmat.rows m in
  if n = 0 then 1
  else begin
    let a = Intmat.copy m in
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

let is_unimodular m = Intmat.is_square m && abs (determinant m) = 1
let is_nonsingular m = Intmat.is_square m && determinant m <> 0
