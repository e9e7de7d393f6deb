type report = {
  counters : Hierarchy.counters;
  footprint_bytes : int;
  trip_count : int;
}

let run ?config prog ~layouts =
  let ct = Compiled_trace.compile prog ~layouts in
  {
    counters = Compiled_trace.simulate ?config ct;
    footprint_bytes = Compiled_trace.footprint_bytes ct;
    trip_count = Compiled_trace.trip_count ct;
  }

let cycles r = r.counters.Hierarchy.cycles

let improvement_percent ~baseline r =
  100. *. (1. -. (float_of_int (cycles r) /. float_of_int (cycles baseline)))

let pp_report ppf r =
  Format.fprintf ppf "%a footprint=%dB trips=%d" Hierarchy.pp_counters
    r.counters r.footprint_bytes r.trip_count
