module Trace = Mlo_obs.Trace

type report = {
  counters : Hierarchy.counters;
  footprint_bytes : int;
  trip_count : int;
}

let report_of_compiled ?config ct =
  {
    counters = Compiled_trace.simulate ?config ct;
    footprint_bytes = Compiled_trace.footprint_bytes ct;
    trip_count = Compiled_trace.trip_count ct;
  }

let run ?config prog ~layouts =
  report_of_compiled ?config (Compiled_trace.compile prog ~layouts)

(* ------------------------------------------------------------------ *)
(* Parallel batch evaluation                                            *)
(* ------------------------------------------------------------------ *)

(* The Domain pool lives in Mlo_support.Pool (shared with the
   component-wise solver); each simulation owns its hierarchy and
   compiled trace, so jobs are index-private as the pool requires. *)
let parallel_iter = Mlo_support.Pool.parallel_iter
let default_domains = Mlo_support.Pool.default_domains

let collect ?config ~domains jobs =
  let n = Array.length jobs in
  Trace.with_span ~cat:"cachesim" "sweep"
    ~args:[ ("jobs", Trace.Int n); ("domains", Trace.Int domains) ]
  @@ fun () ->
  let results = Array.make n None in
  parallel_iter ~domains n (fun i ->
      results.(i) <- Some (report_of_compiled ?config (jobs.(i) ())));
  Array.to_list
    (Array.map
       (function Some r -> r | None -> assert false)
       results)

let run_many ?config ?domains prog ~layouts_list =
  let domains =
    match domains with Some d -> d | None -> default_domains ()
  in
  let skel = Compiled_trace.skeleton prog in
  let jobs =
    Array.of_list
      (List.map
         (fun layouts () -> Compiled_trace.instantiate skel ~layouts)
         layouts_list)
  in
  collect ?config ~domains jobs

let run_batch ?config ?domains progs =
  let domains =
    match domains with Some d -> d | None -> default_domains ()
  in
  let jobs =
    Array.of_list
      (List.map
         (fun (prog, layouts) () -> Compiled_trace.compile prog ~layouts)
         progs)
  in
  collect ?config ~domains jobs

let cycles r = r.counters.Hierarchy.cycles

let speedup ~baseline r = float_of_int (cycles baseline) /. float_of_int (cycles r)

let improvement_percent ~baseline r =
  100. *. (1. -. (float_of_int (cycles r) /. float_of_int (cycles baseline)))

let pp_report ppf r =
  Format.fprintf ppf "%a footprint=%dB trips=%d" Hierarchy.pp_counters
    r.counters r.footprint_bytes r.trip_count
