(** End-to-end memory-layout optimization.

    Ties the pipeline together: extract the constraint network from a
    program, solve it with a chosen scheme (or run the propagation
    heuristic), pick the matching loop restructurings, and optionally
    simulate the optimized program on the paper's embedded cache
    hierarchy ({!Mlo_cachesim.Hierarchy.paper_config}, the only machine
    it simulates).  This is the facade a compiler pass (or the examples
    and benches of this repository) calls. *)

type scheme =
  | Heuristic  (** the paper's comparison baseline (Leung-Zahorjan style) *)
  | Base of int  (** the paper's base scheme with the given seed *)
  | Enhanced of int  (** the paper's enhanced scheme with the given seed *)
  | Enhanced_ac of int
      (** enhanced scheme with AC-2001 arc-consistency preprocessing *)
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
    "cdl", "bnb") — used for trace span arguments and CLI messages. *)

val objective_label : objective -> string
(** "misses" or "lines" — the CLI's [--objective] vocabulary. *)

val objective_of_label : string -> objective option
(** The inverse of {!objective_label}; [None] for any other string. *)

val objective_cost :
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
  objective:objective ->
  Mlo_ir.Program.t ->
  array_name:string ->
  layout:Mlo_layout.Layout.t ->
  float
(** The separable per-(array, layout) charge underlying both the [Bnb]
    scheme and {!objective_cost}: the array's whole-program cost under
    the layout with every other array at its default. *)

val cost_table :
  objective:objective ->
  Mlo_ir.Program.t ->
  Mlo_layout.Layout.t Mlo_csp.Network.t ->
  float array array
(** {!layout_cost} of every value [v] of every variable [i] of [net],
    at [.(i).(v)]: the one table behind the [Bnb] scheme's search, its
    objective value and its [Optimal] certificates.  Traced as an
    [analysis]/[profile] span. *)

val optimize :
  ?candidates:(string -> Mlo_layout.Layout.t list) ->
  ?max_checks:int ->
  ?prune_dominated:bool ->
  ?objective:objective ->
  ?proof:(Mlo_verify.Proof.t -> unit) ->
  scheme ->
  Mlo_ir.Program.t ->
  solution
(** Runs the full pipeline.  [candidates] enriches network domains (see
    {!Mlo_netgen.Build.build}); [max_checks] bounds solver effort;
    [prune_dominated] (default [false]) drops dominated layout values
    from every domain before solving ({!Mlo_netgen.Prune.apply} —
    satisfiability-preserving, ignored by [Heuristic]).  [objective]
    (default [Estimated_misses]) selects the cost the [Bnb] scheme
    minimizes; the other schemes ignore it.

    [proof] receives a {!Mlo_verify.Proof.t} certificate of the solver
    run ({!Mlo_verify.Proof.certificate}), stated against the
    {e original} (pre-prune, pre-AC) network: preprocessing removals as
    justified [Del] steps, learned nogoods and branch-and-bound
    incumbents per component, and a verdict matching the outcome ([Sat],
    [Unsat], [Optimal] for [Bnb] solutions, or [Aborted]; a [Bnb]
    solution the check budget cut is only [Sat]).  The sink is called
    before {!No_solution} is raised, so UNSAT and budget-abort
    certificates are still delivered.  Ignored by [Heuristic] (there is
    nothing to certify). *)

val lookup : solution -> string -> Mlo_layout.Layout.t option
(** [lookup sol] hashes the solution's layouts once; apply it to one
    solution and reuse the resulting function for many names. *)

val simulate : solution -> Mlo_cachesim.Simulate.report
(** Trace-driven simulation of the restructured program under the chosen
    layouts, on {!Mlo_cachesim.Hierarchy.paper_config}. *)

val simulate_original : Mlo_ir.Program.t -> Mlo_cachesim.Simulate.report
(** The unoptimized baseline: original loop orders, row-major layouts,
    on {!Mlo_cachesim.Hierarchy.paper_config}. *)
