module Intvec = Mlo_linalg.Intvec
module Intmat = Mlo_linalg.Intmat
module Unimodular = Mlo_linalg.Unimodular

type t = {
  matrix : Intmat.t;
  mins : int array; (* per transformed dimension, inclusive lower corner *)
  spans : int array; (* per transformed dimension, extent of bounding box *)
  strides : int array; (* row-major strides inside the box *)
  lin : int array; (* per original dimension, coefficient of cell_index *)
  lin_const : int; (* constant term of cell_index *)
  original_cells : int;
}

let transform_matrix layout =
  let k = Layout.rank layout in
  if k = 1 then Intmat.identity 1
  else
    Unimodular.complete_layout
      (List.map Hyperplane.to_vec (Layout.hyperplanes layout))

(* Enumerate the corners of the extent box [0, e_i - 1]^k. *)
let corners extents =
  let k = Array.length extents in
  let n = 1 lsl k in
  List.init n (fun mask ->
      Array.init k (fun i ->
          if mask land (1 lsl i) <> 0 then extents.(i) - 1 else 0))

let make layout ~extents =
  let k = Layout.rank layout in
  if Array.length extents <> k then
    invalid_arg "Transform.make: extents rank differs from layout rank";
  Array.iter
    (fun e -> if e <= 0 then invalid_arg "Transform.make: non-positive extent")
    extents;
  let matrix = transform_matrix layout in
  let images = List.map (Intmat.mul_vec matrix) (corners extents) in
  let mins = Array.make k max_int and maxs = Array.make k min_int in
  List.iter
    (fun p ->
      Array.iteri
        (fun i x ->
          if x < mins.(i) then mins.(i) <- x;
          if x > maxs.(i) then maxs.(i) <- x)
        p)
    images;
  let spans = Array.init k (fun i -> maxs.(i) - mins.(i) + 1) in
  let strides = Array.make k 1 in
  for i = k - 2 downto 0 do
    strides.(i) <- strides.(i + 1) * spans.(i + 1)
  done;
  (* cell_index is itself affine in the original index vector:
     sum_i strides_i * ((T d)_i - mins_i)
       = sum_j (sum_i strides_i * T_ij) d_j - sum_i strides_i * mins_i *)
  let lin =
    Array.init k (fun j ->
        let s = ref 0 in
        for i = 0 to k - 1 do
          s := !s + (strides.(i) * matrix.(i).(j))
        done;
        !s)
  in
  let lin_const = ref 0 in
  for i = 0 to k - 1 do
    lin_const := !lin_const - (strides.(i) * mins.(i))
  done;
  {
    matrix;
    mins;
    spans;
    strides;
    lin;
    lin_const = !lin_const;
    original_cells = Array.fold_left ( * ) 1 extents;
  }

let matrix t = Intmat.copy t.matrix
let linear_map t = (Array.copy t.lin, t.lin_const)

let cell_index t d =
  let idx = ref t.lin_const in
  for j = 0 to Array.length d - 1 do
    idx := !idx + (t.lin.(j) * d.(j))
  done;
  !idx

let footprint_cells t = Array.fold_left ( * ) 1 t.spans
let original_cells t = t.original_cells

let expansion t =
  float_of_int (footprint_cells t) /. float_of_int t.original_cells

let identity ~extents =
  make (Layout.row_major (Array.length extents)) ~extents

let pp ppf t =
  Format.fprintf ppf "@[<v>transform:@,%a@,box: mins %a spans %a (x%.2f)@]"
    Intmat.pp t.matrix Intvec.pp t.mins Intvec.pp t.spans (expansion t)
