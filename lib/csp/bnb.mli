(** Optimizing branch and bound over a separable assignment cost.

    The satisfiability engines stop at the first consistent assignment;
    this one searches the whole satisfying space for the assignment of
    minimum total cost, where the cost is {e separable}: a per-(variable,
    value) charge [costs.(i).(v)] summed over the assignment.  The layout
    pipeline charges each (array, layout) its whole-program miss estimate
    from the static locality model ({!Mlo_analysis.Locality.profiler}),
    so the optimum is the layout assignment the cost model likes best.

    The search is the [Minimize] mode of the search kernel
    ({!Solver.run}), which also runs {!Cdl} (same trail, conflict sets
    and learned-nogood store) and the paper's schemes, with:

    - {b smallest-domain ordering} in place of {!Cdl}'s VSIDS order, and
      no activity bumps, nogood decay or restarts;
    - an {b admissible lower bound} at every node — the cost of the
      assignments made so far plus, for every unassigned variable, the
      minimum cost over its {e live} (forward-checked) domain.  A static
      per-variable minimum is maintained as a drift-free per-level
      prefix; the live-domain refinement is recomputed per node;
    - {b incumbent pruning} — a subtree whose bound cannot strictly beat
      the best solution found so far is refuted exactly like a wipeout,
      blamed on the assignments that contribute cost above their static
      minima (and, for live-domain refinements, on the assignments that
      pruned the refined domains), so backjumping and nogood learning
      apply to cost refutations too;
    - {b cost-aware value ordering} — cheapest value first, so the first
      descent is greedy and the first incumbent is already good.

    Learned nogoods here mean "no completion holding these literals
    {e strictly beats} the incumbent at learn time"; the incumbent only
    improves and is itself kept, so exclusions never lose the optimum
    (only equal-cost duplicates).  On unsatisfiable networks no incumbent
    ever exists and every nogood is a plain {!Cdl} conflict nogood, so
    the satisfiability verdict is as sound as [cdl]'s.

    Costs are additive across connected components, so per-component
    optima compose: {!branch_and_bound} runs the engine through
    {!Solver.component_driver} and the merged assignment is optimal
    whenever each component solve is. *)

type config = {
  bound_slack : float;
      (** prune when [bound * (1 + slack) >= incumbent]: 0 (the default)
          is exact; [s > 0] trades optimality for speed with a
          [(1 + s)]-approximation guarantee.  Negative slack is an
          [Invalid_argument]. *)
  learn_limit : int;  (** bound of the learned-nogood store, as in {!Cdl} *)
  max_checks : int option;
}

val default_config : config
(** Exact bound (slack 0), learn limit 4000, no check budget. *)

val cost_of : costs:float array array -> int array -> float
(** Canonical total cost of a complete assignment: [costs.(i).(a.(i))]
    summed left to right by variable index.  Every cost the engine
    compares or returns is computed by this one fold ({!Solver.cost_of},
    re-exported), so equal assignments always get bit-identical
    costs. *)

val solve_compiled :
  ?config:config ->
  ?on_event:(Solver.event -> unit) ->
  costs:float array array ->
  Compiled.t ->
  Solver.result
(** Branch and bound on a compiled view.  [costs] must have one row per
    variable and one entry per domain value ([Invalid_argument]
    otherwise).  [Solution a] is a verified consistent assignment; with
    the default slack it has minimum {!cost_of} over all consistent
    assignments.  When the check budget interrupts a search that already
    holds an incumbent, that incumbent is returned as an {e anytime}
    [Solution] — consistent, but possibly not optimal, and flagged by
    [stats.cut]; [Aborted] means the budget died before any solution was
    found.  [stats.bounded] counts cost-pruned subtrees and
    [stats.incumbents] the strict incumbent improvements.

    [on_event] receives each learned nogood ([Learned]) and each strict
    incumbent improvement ([Incumbent], a fresh copy), in chronological
    order, and never [Finished]. *)

val solve :
  ?config:config -> cost:(string -> int -> float) -> 'a Network.t ->
  Solver.result
(** {!solve_compiled} on the whole network, with the cost table built
    from [cost name value_index] per variable. *)

val branch_and_bound :
  ?config:config ->
  ?on_event:(comp:int -> vars:int array -> Solver.event -> unit) ->
  cost:(string -> int -> float) ->
  'a Network.t ->
  Solver.result
(** Component-wise branch and bound via {!Solver.component_driver}: each
    connected component is minimized independently ([cost] is queried by
    the variable's {e name} in the whole network) and the
    per-component optima concatenate into the global optimum, because a
    separable cost never couples variables that share no constraint.
    [on_event] receives each component's {!Solver.event} stream
    (nogoods and incumbents in chronological order, [Finished] last) as
    the search runs, in component order. *)
