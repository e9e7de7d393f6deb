module Loop_nest = Mlo_ir.Loop_nest
module Access = Mlo_ir.Access
module Dependence = Mlo_ir.Dependence
module Layout = Mlo_layout.Layout
module Locality = Mlo_layout.Locality

type t = { perm : int array; nest : Loop_nest.t }

let of_nest nest =
  List.map
    (fun (perm, nest) -> { perm; nest })
    (Dependence.legal_permutations nest)

let demanded_layout nest name =
  let accesses =
    Array.to_list (Loop_nest.accesses nest)
    |> List.filter (fun a -> String.equal (Access.array_name a) name)
  in
  if accesses = [] then None
  else begin
    let candidates = List.filter_map Locality.preferred_layout accesses in
    if candidates = [] then None
    else begin
      (* dedup, preserving preference order *)
      let uniq =
        List.fold_left
          (fun acc l -> if List.exists (Layout.equal l) acc then acc else l :: acc)
          [] candidates
        |> List.rev
      in
      let score l =
        List.fold_left (fun s a -> s + Locality.score l a) 0 accesses
      in
      let best =
        List.fold_left
          (fun (bl, bs) l ->
            let s = score l in
            if s > bs then (l, s) else (bl, bs))
          (List.hd uniq, score (List.hd uniq))
          (List.tl uniq)
      in
      Some (fst best)
    end
  end

let layouts_for v =
  List.filter_map
    (fun name ->
      match demanded_layout v.nest name with
      | Some l -> Some (name, l)
      | None -> None)
    (Loop_nest.arrays_touched v.nest)

let nest_score lookup nest =
  Array.fold_left
    (fun acc a ->
      match lookup (Access.array_name a) with
      | None -> acc
      | Some layout -> acc + Locality.score layout a)
    0 (Loop_nest.accesses nest)

let best_variant nest lookup =
  match of_nest nest with
  | [] -> invalid_arg "Variants_reference.best_variant: no legal variant"
  | first :: rest ->
    let score v = nest_score lookup v.nest in
    let best, _ =
      List.fold_left
        (fun (bv, bs) v ->
          let s = score v in
          if s > bs then (v, s) else (bv, bs))
        (first, score first)
        rest
    in
    best
