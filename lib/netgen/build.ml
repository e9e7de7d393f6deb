module Program = Mlo_ir.Program
module Array_info = Mlo_ir.Array_info
module Cost = Mlo_ir.Cost
module Layout = Mlo_layout.Layout
module Nest_summary = Mlo_layout.Nest_summary
module Network = Mlo_csp.Network
module Weighted = Mlo_csp.Weighted

type t = {
  network : Layout.t Network.t;
  program : Program.t;
  constrained_arrays : string array;
  var_index : (string, int) Hashtbl.t;
}

let index_of names =
  let tbl = Hashtbl.create (Array.length names) in
  Array.iteri (fun i name -> Hashtbl.replace tbl name i) names;
  tbl

module Layout_tbl = Hashtbl.Make (Layout)

(* One variable's domain as it grows: each layout's value index, in
   first-insertion order. *)
let value_of dom l =
  match Layout_tbl.find_opt dom l with
  | Some v -> v
  | None ->
    let v = Layout_tbl.length dom in
    Layout_tbl.add dom l v;
    v

let values dom =
  let a = Array.make (Layout_tbl.length dom) Layout.trivial in
  Layout_tbl.iter (fun l v -> a.(v) <- l) dom;
  a

let build_internal ?(relax = false) ?(candidates = fun _ -> []) ~make_sink prog =
  let summary = Nest_summary.of_program prog in
  let nests = Program.nests prog in
  let arrays = Program.arrays prog in
  let names = Array.map Array_info.name arrays in
  let var_index = index_of names in
  let var_of = Hashtbl.find var_index in
  (* Domain order: the default (value 0), the rank-matching candidates,
     then every demand in nest, legal-order and first-touch order.  Two
     orders with the same innermost loop demand the same layouts, so
     each nest contributes once per innermost loop. *)
  let domains =
    Array.map
      (fun info ->
        let rank = Array_info.rank info in
        let dom = Layout_tbl.create 8 in
        ignore (value_of dom (Layout.row_major rank));
        List.iter
          (fun l -> if Layout.rank l = rank then ignore (value_of dom l))
          (candidates (Array_info.name info));
        dom)
      arrays
  in
  (* The layouts an array could meaningfully take: everything some
     restructuring demands for it, plus its default (value 0).
     Wildcards range over this set, not the full (possibly padded)
     domain: a restructuring that leaves an array free is indifferent
     among the layouts the rest of the program might ask of it. *)
  let meaningful = Array.make (Array.length arrays) [] in
  (* per nest: the network variable of each touched array, and per
     innermost loop the values each one allows: the one it demands, or
     [||] when that restructuring leaves it free *)
  let demands =
    Array.mapi
      (fun i _ ->
        let n = Nest_summary.nest summary i in
        let vars = Array.map var_of n.Nest_summary.touched in
        let per_inner =
          List.map
            (fun k ->
              Array.mapi
                (fun t demand ->
                  match demand with
                  | None -> [||]
                  | Some l ->
                    let x = vars.(t) in
                    let v = value_of domains.(x) l in
                    if not (List.mem v meaningful.(x)) then
                      meaningful.(x) <- v :: meaningful.(x);
                    [| v |])
                n.Nest_summary.demands.(k))
            n.Nest_summary.inners
        in
        (vars, per_inner))
      nests
  in
  let meaningful =
    Array.map
      (fun vs -> Array.of_list (if List.mem 0 vs then vs else 0 :: vs))
      meaningful
  in
  let network = Network.create ~names ~domains:(Array.map values domains) in
  (* Each restructuring allows, for each pair of the arrays it touches,
     the product of the two sides' values: a demanded value alone, or
     every meaningful layout of a free array.  One checked write per
     (nest, innermost loop, array pair), handed to the nest's sink (the
     weighting hook) as it is made. *)
  let sink = make_sink network in
  let side vars allows a =
    match allows.(a) with [||] -> meaningful.(vars.(a)) | vs -> vs
  in
  Array.iteri
    (fun i (vars, per_inner) ->
      let allow = sink nests.(i) in
      let m = Array.length vars in
      List.iter
        (fun allows ->
          for a = 0 to m - 1 do
            for b = a + 1 to m - 1 do
              let ia = vars.(a) and ib = vars.(b) in
              let va = side vars allows a and vb = side vars allows b in
              Network.allow_product network ia va ib vb;
              allow ia va ib vb
            done
          done)
        per_inner)
    demands;
  if relax then begin
    let default = [| 0 |] in
    List.iter
      (fun (i, j) -> Network.allow_product network i default j default)
      (Network.constraint_pairs network)
  end;
  { network; program = prog; constrained_arrays = names; var_index }

let ignore_product _ _ _ _ = ()

let build ?relax ?candidates prog =
  Mlo_obs.Trace.with_span ~cat:"netgen" "build"
    ~args:[ ("program", Mlo_obs.Trace.Str (Program.name prog)) ]
  @@ fun () ->
  build_internal ?relax ?candidates
    ~make_sink:(fun _network _nest -> ignore_product)
    prog

let weighted ?relax ?candidates prog =
  let w = ref None in
  let make_sink network =
    let ww = Weighted.create network in
    w := Some ww;
    fun nest ->
      (* a pair several restructurings of one nest allow is weighted
         once for that nest *)
      let cost = float_of_int (Cost.nest_cost nest) in
      let seen = Hashtbl.create 64 in
      fun i vis j vjs ->
        Array.iter
          (fun vi ->
            Array.iter
              (fun vj ->
                let k = if i < j then (i, vi, j, vj) else (j, vj, i, vi) in
                if not (Hashtbl.mem seen k) then begin
                  Hashtbl.add seen k ();
                  Weighted.add_weight ww i vi j vj cost
                end)
              vjs)
          vis
  in
  let t = build_internal ?relax ?candidates ~make_sink prog in
  (t, Option.get !w)

let var_of_array t name = Hashtbl.find t.var_index name

let assignment_layouts t assignment =
  Array.to_list
    (Array.mapi
       (fun i name -> (name, Network.value t.network i assignment.(i)))
       t.constrained_arrays)

let lookup t assignment name =
  match var_of_array t name with
  | i -> Some (Network.value t.network i assignment.(i))
  | exception Not_found -> None

let components t =
  Array.map
    (Array.map (fun v -> t.constrained_arrays.(v)))
    (Network.components t.network)
