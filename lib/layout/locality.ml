module Intvec = Mlo_linalg.Intvec
module Intmat = Mlo_linalg.Intmat
module Nullspace = Mlo_linalg.Nullspace
module Access = Mlo_ir.Access

let delta_at a j =
  let m = Access.matrix a in
  Intmat.col m j

let access_delta a = delta_at a (Access.depth a - 1)

let layout_from_delta delta =
  if Intvec.is_zero delta then None
  else begin
    let k = Intvec.dim delta in
    if k = 1 then Some Layout.trivial
    else begin
      let basis = Nullspace.basis (Intmat.of_rows [ delta ]) in
      (* delta <> 0 so the orthogonal complement has dimension k-1 *)
      Some (Layout.make ~rank:k (List.map Hyperplane.make basis))
    end
  end

let preferred_layout a = layout_from_delta (access_delta a)

let delta_score layout delta =
  if Intvec.is_zero delta then 5
  else if Layout.serves layout delta then 4
  else 0

let score layout a = delta_score layout (access_delta a)

let candidate_layouts ~rank accesses =
  let prefs = List.filter_map preferred_layout accesses in
  let constrained = prefs <> [] in
  let defaults =
    if rank = 1 then [ Layout.trivial ]
    else if constrained then [ Layout.row_major rank ]
    else [ Layout.row_major rank; Layout.col_major rank ]
  in
  let all = prefs @ defaults in
  let seen = Hashtbl.create 8 in
  List.filter
    (fun l ->
      let h = (Layout.hash l, Layout.describe l) in
      if Hashtbl.mem seen h then false
      else begin
        Hashtbl.add seen h ();
        true
      end)
    all
