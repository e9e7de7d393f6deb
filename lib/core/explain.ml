module Intvec = Mlo_linalg.Intvec
module Program = Mlo_ir.Program
module Loop_nest = Mlo_ir.Loop_nest
module Access = Mlo_ir.Access
module Layout = Mlo_layout.Layout
module Locality = Mlo_layout.Locality

type ref_quality = Temporal | Spatial | Unserved of Intvec.t

type ref_report = {
  array_name : string;
  kind : Access.kind;
  quality : ref_quality;
}

type nest_report = {
  nest_name : string;
  loop_order : string list;
  interchanged : bool;
  refs : ref_report list;
  trip_count : int;
}

type t = {
  layouts : (string * Layout.t) list;
  nests : nest_report list;
  served_fraction : float;
}

let ref_quality lookup a =
  let delta = Locality.access_delta a in
  if Intvec.is_zero delta then Temporal
  else
    match lookup (Access.array_name a) with
    | Some layout when Layout.serves layout delta -> Spatial
    | Some _ | None -> Unserved delta

let explain original sol =
  let lookup = Optimizer.lookup sol in
  let originals = Program.nests original in
  if Array.length originals
     <> Array.length (Program.nests sol.Optimizer.restructured)
  then
    invalid_arg
      "Explain.explain: solution does not belong to the given program";
  let nests =
    Array.to_list
      (Array.mapi
         (fun i nest ->
           let refs =
             Array.to_list
               (Array.map
                  (fun a ->
                    {
                      array_name = Access.array_name a;
                      kind = Access.kind a;
                      quality = ref_quality lookup a;
                    })
                  (Loop_nest.accesses nest))
           in
           let source_order =
             Array.to_list (Loop_nest.var_names originals.(i))
           in
           let loop_order = Array.to_list (Loop_nest.var_names nest) in
           {
             nest_name = Loop_nest.name nest;
             loop_order;
             interchanged = loop_order <> source_order;
             refs;
             trip_count = Loop_nest.trip_count nest;
           })
         (Program.nests sol.Optimizer.restructured))
  in
  let served, total =
    List.fold_left
      (fun (s, t) nr ->
        let w = nr.trip_count in
        List.fold_left
          (fun (s, t) r ->
            match r.quality with
            | Temporal | Spatial -> (s + w, t + w)
            | Unserved _ -> (s, t + w))
          (s, t) nr.refs)
      (0, 0) nests
  in
  {
    layouts = sol.Optimizer.layouts;
    nests;
    served_fraction = (if total = 0 then 1. else float_of_int served /. float_of_int total);
  }

let pp_quality ppf = function
  | Temporal -> Format.fprintf ppf "temporal"
  | Spatial -> Format.fprintf ppf "spatial"
  | Unserved delta -> Format.fprintf ppf "UNSERVED stride %a" Intvec.pp delta

let pp ppf t =
  Format.fprintf ppf "@[<v>layouts:@,";
  List.iter
    (fun (name, l) ->
      Format.fprintf ppf "  %-8s %s@," name (Layout.describe l))
    t.layouts;
  Format.fprintf ppf "@,nests:@,";
  List.iter
    (fun nr ->
      Format.fprintf ppf "  %s: order (%s)%s, %d iterations@," nr.nest_name
        (String.concat " " nr.loop_order)
        (if nr.interchanged then " [restructured]" else "")
        nr.trip_count;
      List.iter
        (fun r ->
          Format.fprintf ppf "    %s %-8s %a@,"
            (match r.kind with Access.Read -> "load " | Access.Write -> "store")
            r.array_name pp_quality r.quality)
        nr.refs)
    t.nests;
  Format.fprintf ppf "@,%.1f%% of reference executions served@]"
    (100. *. t.served_fraction)
