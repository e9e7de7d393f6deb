(** Trace-driven execution of a program under chosen layouts.

    Walks every loop nest in program order, issuing one data access per
    array reference per iteration to the cache hierarchy, at the address
    the layout assignment dictates.  This is the substitute for the
    paper's SimpleScalar runs: it reproduces the memory behaviour that
    Table 3's execution times measure.

    {!run} drives the compiled address streams of {!Compiled_trace}
    (allocation-free inner loop); the interpretive per-access engine it
    must match counter for counter is kept as a test oracle in the
    test-only library [mlo_oracle] ([Simulate_reference]).  {!run_many}
    amortizes trace compilation across layout assignments and fans the
    simulations out over OCaml 5 domains. *)

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

val run_many :
  ?config:Hierarchy.config ->
  ?domains:int ->
  Mlo_ir.Program.t ->
  layouts_list:(string -> Mlo_layout.Layout.t option) list ->
  report list
(** Evaluate one program under each of N layout assignments, reusing the
    compiled iteration skeleton across assignments and running the
    independent simulations on [domains] OCaml domains (default:
    [min 8 (Domain.recommended_domain_count ())], capped at N; pass
    [~domains:1] to force a serial sweep).  The layout functions must be
    pure — they are called from worker domains.  Reports come back in
    input order. *)

val run_batch :
  ?config:Hierarchy.config ->
  ?domains:int ->
  (Mlo_ir.Program.t * (string -> Mlo_layout.Layout.t option)) list ->
  report list
(** Like {!run_many} for jobs that differ in program as well as layouts
    (e.g. Table 3's per-version restructured programs): each job is
    compiled and simulated on the domain pool, reports in input order. *)

val cycles : report -> int

val speedup : baseline:report -> report -> float
(** [speedup ~baseline r] is [cycles baseline / cycles r]. *)

val improvement_percent : baseline:report -> report -> float
(** Percentage reduction in cycles relative to [baseline] (the paper's
    Table 3 summary metric). *)

val pp_report : Format.formatter -> report -> unit
