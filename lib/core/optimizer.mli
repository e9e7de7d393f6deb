(** End-to-end memory-layout optimization.

    Ties the pipeline together: extract the constraint network from a
    program, solve it with a chosen scheme (or run the propagation
    heuristic), pick the matching loop restructurings, and optionally
    simulate the optimized program on the embedded cache hierarchy.  This
    is the facade a compiler pass (or the examples and benches of this
    repository) calls. *)

type scheme =
  | Heuristic  (** the paper's comparison baseline (Leung-Zahorjan style) *)
  | Base of int  (** the paper's base scheme with the given seed *)
  | Enhanced of int  (** the paper's enhanced scheme with the given seed *)
  | Enhanced_ac of int
      (** enhanced scheme with AC-2001 arc-consistency preprocessing *)
  | Custom of Mlo_csp.Solver.config
  | Cdl of Mlo_csp.Cdl.config
      (** conflict-driven search with nogood learning, VSIDS ordering and
          Luby restarts ({!Mlo_csp.Cdl}) *)
  | Bnb of Mlo_csp.Bnb.config
      (** optimizing branch and bound ({!Mlo_csp.Bnb}): searches the
          satisfying assignments for the one minimizing the static cost
          model's [objective], instead of stopping at the first *)

type objective = Estimated_misses | Distinct_lines
(** What the [Bnb] scheme minimizes, per array and candidate layout,
    summed over the program's nests: the closed-form L1 miss estimate
    ({!Mlo_analysis.Locality.profiler}, the default) or the distinct
    L1 line count (the capacity-blind cold-miss floor). *)

type solution = {
  layouts : (string * Mlo_layout.Layout.t) list;
      (** chosen layout per array, declaration order *)
  restructured : Mlo_ir.Program.t;
      (** the program with each nest in its best legal loop order for the
          chosen layouts *)
  solver_stats : Mlo_csp.Stats.t option;
      (** search-effort counters ([None] for [Heuristic]) *)
  heuristic_evaluations : int option;
      (** combinations scored ([Some] only for [Heuristic]) *)
  pruned_values : Mlo_netgen.Prune.info option;
      (** dominance-pruning counts ([Some] only when [optimize] ran with
          [~prune_dominated:true] and a network scheme) *)
  objective_value : float option;
      (** the chosen layouts' total cost under the requested objective
          ([Some] only for [Bnb]; computed by {!objective_cost}) *)
  elapsed_s : float;  (** end-to-end solution time *)
}

exception No_solution of string
(** Raised when a constraint-network scheme proves the network
    unsatisfiable or exceeds its check budget. *)

val scheme_label : scheme -> string
(** Short stable name ("heuristic", "base", "enhanced", "enhanced-ac",
    "custom", "cdl", "bnb") — used for trace span arguments
    and CLI messages. *)

val objective_label : objective -> string
(** "misses" or "lines" — the CLI's [--objective] vocabulary. *)

val objective_cost :
  ?geometry:Mlo_cachesim.Cache.geometry ->
  ?objective:objective ->
  Mlo_ir.Program.t ->
  (string * Mlo_layout.Layout.t) list ->
  float
(** Total cost of a layout assignment under an objective: per array, the
    {!Mlo_analysis.Locality.profiler} charge of its layout (every other
    array at its default), summed over the listed arrays in list order.
    This is the exact function the [Bnb] scheme minimizes over the
    satisfying assignments, so solutions of different schemes compare
    directly through it. *)

val layout_cost :
  ?geometry:Mlo_cachesim.Cache.geometry ->
  objective:objective ->
  Mlo_ir.Program.t ->
  array_name:string ->
  layout:Mlo_layout.Layout.t ->
  float
(** The separable per-(array, layout) charge underlying both the [Bnb]
    scheme and {!objective_cost}: the array's whole-program cost under
    the layout with every other array at its default.  Exposed so the
    certificate checker can rebuild the exact cost table an [Optimal]
    proof was logged against. *)

val optimize :
  ?candidates:(string -> Mlo_layout.Layout.t list) ->
  ?max_checks:int ->
  ?prune_dominated:bool ->
  ?domains:int ->
  ?objective:objective ->
  ?proof:(Mlo_verify.Proof.t -> unit) ->
  scheme ->
  Mlo_ir.Program.t ->
  solution
(** Runs the full pipeline.  [candidates] enriches network domains (see
    {!Mlo_netgen.Build.build}); [max_checks] bounds solver effort;
    [prune_dominated] (default [false]) drops dominated layout values
    from every domain before solving ({!Mlo_netgen.Prune.apply} —
    satisfiability-preserving, ignored by [Heuristic]); [domains]
    (default 1: serial) solves independent network components on that
    many OCaml domains ({!Mlo_csp.Solver.solve_components} — outcome and
    merged stats are identical to the serial solve).  [objective]
    (default [Estimated_misses]) selects the cost the [Bnb] scheme
    minimizes; the other schemes ignore it.

    [proof] receives a {!Mlo_verify.Proof.t} certificate of the solver
    run, stated against the {e original} (pre-prune, pre-AC) network:
    preprocessing removals as justified [Del] steps, learned nogoods and
    branch-and-bound incumbents per component, and a verdict matching
    the outcome ([Sat], [Unsat], [Optimal] for [Bnb] solutions, or
    [Aborted]).  The sink is called before {!No_solution} is raised, so
    UNSAT and budget-abort certificates are still delivered.  Ignored by
    [Heuristic] (there is nothing to certify). *)

val lookup : solution -> string -> Mlo_layout.Layout.t option

val simulate :
  ?config:Mlo_cachesim.Hierarchy.config ->
  solution ->
  Mlo_cachesim.Simulate.report
(** Trace-driven simulation of the restructured program under the chosen
    layouts. *)

val simulate_original :
  ?config:Mlo_cachesim.Hierarchy.config ->
  Mlo_ir.Program.t ->
  Mlo_cachesim.Simulate.report
(** The unoptimized baseline: original loop orders, row-major layouts. *)

val simulate_many :
  ?config:Mlo_cachesim.Hierarchy.config ->
  ?domains:int ->
  solution list ->
  Mlo_cachesim.Simulate.report list
(** Simulate several solutions (possibly of different programs) on the
    domain pool of {!Mlo_cachesim.Simulate.run_batch}; reports in input
    order. *)

val simulate_versions :
  ?config:Mlo_cachesim.Hierarchy.config ->
  ?domains:int ->
  Mlo_ir.Program.t ->
  solution list ->
  Mlo_cachesim.Simulate.report * Mlo_cachesim.Simulate.report list
(** [simulate_versions prog sols] runs the original program and every
    optimized version as one parallel batch — the Table-3 sweep.  Returns
    the original's report and the per-solution reports in input order. *)
