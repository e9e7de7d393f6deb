module Hierarchy = Mlo_cachesim.Hierarchy
module Simulate = Mlo_cachesim.Simulate
module Trace = Mlo_obs.Trace
module Json = Mlo_obs.Json

type target = {
  ct_name : string;
  ct_program : Mlo_ir.Program.t;
  ct_layouts : string -> Mlo_layout.Layout.t option;
}

type entry = {
  ce_name : string;
  ce_estimated : float;
  ce_simulated : int;
  ce_error : float;
}

type report = {
  cr_entries : entry list;
  cr_threshold : float;
  cr_diagnostics : Diagnostic.t list;
}

let default_threshold = 0.15

let run ?(threshold = default_threshold) targets =
  Trace.with_span ~cat:"analysis" "costcheck"
    ~args:[ ("targets", Trace.Int (List.length targets)) ]
  @@ fun () ->
  let entries =
    List.map
      (fun t ->
        Trace.with_span ~cat:"analysis" "costcheck-target"
          ~args:[ ("target", Trace.Str t.ct_name) ]
        @@ fun () ->
        let est =
          (Locality.analyze ~layouts:t.ct_layouts t.ct_program).Locality.r_misses
        in
        let sim =
          (Simulate.run t.ct_program ~layouts:t.ct_layouts)
            .Simulate.counters.Hierarchy.l1_misses
        in
        {
          ce_name = t.ct_name;
          ce_estimated = est;
          ce_simulated = sim;
          ce_error = Float.abs (est -. float_of_int sim) /. float_of_int (max 1 sim);
        })
      targets
  in
  let diagnostics =
    List.filter_map
      (fun e ->
        if e.ce_error > threshold then
          Some
            (Diagnostic.make Diagnostic.Error ~code:"estimate-divergence"
               ~subject:e.ce_name
               (Printf.sprintf
                  "static L1 miss estimate %.0f vs simulated %d: relative \
                   error %.3f exceeds %.2f"
                  e.ce_estimated e.ce_simulated e.ce_error threshold))
        else None)
      entries
    |> Diagnostic.sort
  in
  { cr_entries = entries; cr_threshold = threshold; cr_diagnostics = diagnostics }

let pp ppf r =
  Format.fprintf ppf "@[<v>costcheck (threshold %.2f)@," r.cr_threshold;
  List.iter
    (fun e ->
      Format.fprintf ppf "  %-10s est=%-10.0f sim=%-10d err=%.3f@," e.ce_name
        e.ce_estimated e.ce_simulated e.ce_error)
    r.cr_entries;
  List.iter (fun d -> Format.fprintf ppf "  %a@," Diagnostic.pp d) r.cr_diagnostics;
  Format.fprintf ppf "  %d divergent of %d@]"
    (List.length r.cr_diagnostics)
    (List.length r.cr_entries)

let to_json r =
  Json.Obj
    [
      ("threshold", Json.Num r.cr_threshold);
      ( "entries",
        Json.Arr
          (List.map
             (fun e ->
               Json.Obj
                 [
                   ("name", Json.Str e.ce_name);
                   ("estimated", Json.Num e.ce_estimated);
                   ("simulated", Json.Num (float_of_int e.ce_simulated));
                   ("error", Json.Num e.ce_error);
                 ])
             r.cr_entries) );
      ("diagnostics", Json.Arr (List.map Diagnostic.to_json r.cr_diagnostics));
    ]
