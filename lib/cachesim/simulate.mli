(** Trace-driven execution of a program under chosen layouts.

    Walks every loop nest in program order, issuing one data access per
    array reference per iteration to the cache hierarchy, at the address
    the layout assignment dictates.  This is the substitute for the
    paper's SimpleScalar runs: it reproduces the memory behaviour that
    Table 3's execution times measure.

    {!run} drives the compiled address streams of {!Compiled_trace}
    (allocation-free inner loop) on a fresh {!Compiled_trace.machine},
    the library's one cache model; the interpretive per-access engine it
    must match counter for counter, with its timestamp LRU hierarchy, is
    kept as a test oracle in the test-only library [mlo_oracle]
    ([Simulate_reference]). *)

type report = {
  counters : Hierarchy.counters;
  footprint_bytes : int;
  trip_count : int;  (** total loop iterations executed *)
}

val run :
  ?config:Hierarchy.config ->
  Mlo_ir.Program.t ->
  layouts:(string -> Mlo_layout.Layout.t option) ->
  report
(** Simulates the program as written (no loop restructuring is applied
    here; restructure first with {!Mlo_netgen.Select} if desired) on a
    cold hierarchy.  [config] defaults to {!Hierarchy.paper_config}. *)

val cycles : report -> int

val improvement_percent : baseline:report -> report -> float
(** Percentage reduction in cycles relative to [baseline] (the paper's
    Table 3 summary metric). *)

val pp_report : Format.formatter -> report -> unit
