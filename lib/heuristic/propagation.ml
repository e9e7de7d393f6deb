module Program = Mlo_ir.Program
module Array_info = Mlo_ir.Array_info
module Loop_nest = Mlo_ir.Loop_nest
module Cost = Mlo_ir.Cost
module Layout = Mlo_layout.Layout
module Nest_summary = Mlo_layout.Nest_summary

type result = {
  layouts : (string * Layout.t) list;
  nest_order : int list;
  evaluations : int;
  elapsed_s : float;
}

let default_layout info =
  let rank = Array_info.rank info in
  if rank = 1 then Layout.trivial else Layout.row_major rank

(* Score a legal order, whose innermost loop is [k], given fixed
   layouts; arrays not yet fixed are scored with the layout the order
   itself demands for them (the combination being evaluated), and arrays
   the order leaves free with their eventual default — a free array's
   references are temporal, so any stand-in layout scores them
   exactly. *)
let variant_score prog fixed demanded n k =
  let lookup name =
    match Hashtbl.find_opt fixed name with
    | Some l -> Some l
    | None -> (
      match List.assoc_opt name demanded with
      | Some l -> Some l
      | None -> (
        match Program.find_array prog name with
        | info -> Some (default_layout info)
        | exception Not_found -> None))
  in
  Nest_summary.score n lookup k

let optimize prog =
  let t0 = Mlo_csp.Clock.wall_s () in
  let summary = Nest_summary.of_program prog in
  let fixed : (string, Layout.t) Hashtbl.t = Hashtbl.create 16 in
  let evaluations = ref 0 in
  let ranked = Cost.ranked_nests prog in
  List.iter
    (fun (idx, _nest) ->
      let n = Nest_summary.nest summary idx in
      (* the first legal order of highest score *)
      let best =
        List.fold_left
          (fun best order ->
            let demanded = Nest_summary.demands_for n order in
            incr evaluations;
            let s =
              variant_score prog fixed demanded n (Nest_summary.innermost order)
            in
            match best with
            | Some (_, bs) when s <= bs -> best
            | Some _ | None -> Some (demanded, s))
          None n.Nest_summary.orders
      in
      match best with
      | None -> ()
      | Some (demanded, _) ->
        (* propagate: fix layouts only for arrays not yet determined *)
        List.iter
          (fun (name, layout) ->
            if not (Hashtbl.mem fixed name) then Hashtbl.replace fixed name layout)
          demanded)
    ranked;
  let layouts =
    Array.to_list (Program.arrays prog)
    |> List.map (fun info ->
           let name = Array_info.name info in
           match Hashtbl.find_opt fixed name with
           | Some l -> (name, l)
           | None -> (name, default_layout info))
  in
  {
    layouts;
    nest_order = List.map fst ranked;
    evaluations = !evaluations;
    elapsed_s = Mlo_csp.Clock.wall_s () -. t0;
  }

let lookup r name = List.assoc_opt name r.layouts
