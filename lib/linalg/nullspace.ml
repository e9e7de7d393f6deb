(* Nullspace by fraction-free elimination.  For each free column f the
   basis vector sets x_f = 1, every other free entry 0, and solves the
   echelon rows for the pivot entries from the last row up; where a
   pivot does not divide its row's sum, the whole vector is scaled so it
   does.  The result is put in canonical (primitive, sign-fixed) form. *)

let basis a =
  let c = Intmat.cols a in
  let m = Intmat.copy a in
  let rank = Intmat.echelon ~cols:c m in
  let pivot = Array.make rank 0 in
  let is_pivot = Array.make c false in
  for i = 0 to rank - 1 do
    while m.(i).(pivot.(i)) = 0 do
      pivot.(i) <- pivot.(i) + 1
    done;
    is_pivot.(pivot.(i)) <- true
  done;
  let vector_for f =
    let x = Array.make c 0 in
    x.(f) <- 1;
    for i = rank - 1 downto 0 do
      let row = m.(i) and p = pivot.(i) in
      (* minus the row's sum past its pivot *)
      let t = ref 0 in
      for j = p + 1 to c - 1 do
        t := Intvec.(!t -! (row.(j) *! x.(j)))
      done;
      let g = Intvec.gcd !t row.(p) in
      let k = row.(p) / g in
      if k <> 1 then
        for j = 0 to c - 1 do
          x.(j) <- Intvec.(x.(j) *! k)
        done;
      x.(p) <- !t / g
    done;
    Intvec.canonical x
  in
  List.filter_map
    (fun f -> if is_pivot.(f) then None else Some (vector_for f))
    (List.init c Fun.id)

let left_basis a = basis (Intmat.transpose a)

let orthogonal ds y = List.for_all (fun d -> Intvec.dot y d = 0) ds
let member a x = Intvec.is_zero (Intmat.mul_vec a x)
