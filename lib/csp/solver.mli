(** Systematic search over constraint networks (paper Section 4).

    The engine is a depth-first backtracking search with pluggable
    policies covering the paper's two schemes and several extensions:

    - {b variable ordering} — which uninstantiated variable to assign
      next (the paper's first random decision, and its "maximally
      constrains the rest of the search space" improvement);
    - {b value ordering} — which layout to try first (the second random
      decision, and the "maximize options for future assignments"
      improvement);
    - {b backward policy} — where to resume after a dead-end:
      chronological backtracking, the paper's backjumping (jump to the
      deepest instantiated variable sharing a constraint with the
      dead-end variable), or conflict-directed backjumping;
    - {b lookahead} — optionally prune future domains (forward checking),
      an extension the paper does not evaluate;
    - {b preprocess} — optionally establish arc consistency (AC-2001)
      before the search starts, shrinking every domain the search and the
      lookahead run over.

    All policies are complete: if the network has a solution, every
    configuration finds one (possibly a different one, as the paper notes
    for its Table 3).

    {!solve} runs on the {e compiled} network view ({!Network.compile}):
    consistency checks are O(1) dense-table probes and forward checking
    prunes whole neighbour domains word-parallel.  {!solve_reference} is
    the original hashtable-probing engine, kept as the executable
    specification: both produce identical outcomes and identical
    node/backtrack/backjump counts for every configuration (property
    tested); under forward checking they count [checks] differently (see
    {!Stats}). *)

type var_policy =
  | Lexicographic_var  (** lowest-numbered uninstantiated variable *)
  | Random_var  (** uniformly random uninstantiated variable *)
  | Most_constraining
      (** most constraints to the rest of the network; ties broken by
          constraints to instantiated variables, then smaller domain *)
  | Min_domain
      (** smallest current domain (differs from [Most_constraining] only
          under forward checking); ties broken by degree *)

type val_policy =
  | Lexicographic_val
  | Random_val
  | Least_constraining
      (** maximize the number of compatible values left in uninstantiated
          neighbours' domains *)

type backward_policy =
  | Chronological  (** undo the most recent instantiation *)
  | Graph_based
      (** the paper's backjumping: return to the deepest instantiated
          variable adjacent (in the constraint graph) to the dead-end
          variable, skipping non-culprits *)
  | Conflict_directed
      (** jump to the deepest variable that actually conflicted; subsumes
          [Graph_based] *)

type lookahead = No_lookahead | Forward_checking

type preprocess =
  | No_preprocess
  | Arc_consistency
      (** run AC-2001 first; arc-inconsistent values never appear in any
          solution, so completeness is preserved.  Propagation work is
          not counted in [Stats.checks]. *)

type config = {
  var_policy : var_policy;
  val_policy : val_policy;
  backward : backward_policy;
  lookahead : lookahead;
  preprocess : preprocess;
  seed : int;  (** seed for the random policies *)
  max_checks : int option;
      (** abort the search after this many consistency checks *)
}

val default_config : config
(** Lexicographic orderings, chronological backtracking, no lookahead,
    no preprocessing, seed 0, no check limit. *)

type outcome =
  | Solution of int array  (** value index per variable *)
  | Unsatisfiable
  | Aborted  (** check limit exhausted *)

type result = { outcome : outcome; stats : Stats.t }

val solve : ?config:config -> 'a Network.t -> result
(** Runs the search on [Network.compile net] (memoized — repeated solves
    of the same network compile once).  The returned assignment (if any)
    satisfies {!Network.verify}. *)

val solve_compiled :
  ?config:config -> ?cancel:(unit -> bool) -> Compiled.t -> result
(** Runs the search directly on an already-compiled view.  [cancel] is a
    cooperative cancellation hook polled every 256 consistency checks;
    when it returns [true] the solve finishes with [Aborted] (partial
    stats intact).  Used by the parallel component solver to cancel
    sibling Domains once the shared check budget is exhausted. *)

val solve_components : ?config:config -> ?domains:int -> 'a Network.t -> result
(** Component-wise search: solves each connected component of the
    constraint graph ({!Network.components}) as an independent
    subnetwork and merges the per-component solutions.  Variables in
    different components share no constraint, so this is
    decision-equivalent to {!solve} — same satisfiability, and any
    returned assignment satisfies {!Network.verify} — while dead-ends
    never thrash across unrelated components (the stats can only
    improve).  A single-component network takes exactly the {!solve}
    path: outcome and counters are identical.  [config.max_checks] is a
    global budget consumed across components; stats are summed
    (histograms are merged onto whole-network variable indices and
    per-component depths).

    [domains] (default 1) spreads the per-component solves over a Domain
    pool ({!Mlo_support.Pool}); components are independent, so workers
    share nothing but the atomic budget counter.  Results are merged in
    component order with the serial stopping rule, so outcome and merged
    stats are identical to the serial path whenever the check budget
    does not bite — and always identical when [max_checks] is [None].
    Under a budget, the first Domain to exhaust it cancels the siblings
    (each component starts from what the completed ones have left, so
    the total overrun is bounded by the number of in-flight solves). *)

val component_driver :
  ?domains:int ->
  max_checks:int option ->
  run:
    (comp:int ->
    vars:int array ->
    max_checks:int option ->
    cancel:(unit -> bool) option ->
    'a Network.t ->
    result) ->
  'a Network.t ->
  result
(** The machinery behind {!solve_components}, generic in the
    per-component engine: decomposes the network, shares the [max_checks]
    budget across components (atomically under [domains > 1], with
    sibling cancellation through [cancel]), and merges results in
    component order with the serial stopping rule.  [comp] is the
    component's index and [vars] maps its local variable indices back to
    the whole network (proof emission relies on both).  A
    single-component network is passed to [run] whole, as component 0
    with the identity mapping.  {!Cdl.solve_components} and
    {!Bnb.branch_and_bound} build on this. *)

type event =
  | Learned of { dead : int; lits : (int * int) array }
      (** A nogood was learned at a dead end: the (component-local)
          assignments [lits] cannot jointly extend to a solution (for
          {!Bnb}, to one improving the incumbent); [dead] is the
          variable whose domain wiped. *)
  | Incumbent of { assignment : int array }
      (** Branch and bound found an improving incumbent (a fresh copy,
          component-local indices). *)
  | Finished of outcome
      (** The component's search ended; always the component's last
          event. *)
(** Solver events for proof logging, reported per component by
    {!Cdl.solve_components} and {!Bnb.branch_and_bound} via their
    [on_event] callbacks.  Variable indices are local to the component;
    the [vars] array of the enclosing component maps them back. *)

val solve_values : ?config:config -> 'a Network.t -> ('a array * result) option
(** Convenience: like {!solve} but materializes the domain values of the
    solution; [None] when unsatisfiable or aborted. *)

val solve_reference : ?config:config -> 'a Network.t -> result
(** The original (pre-compilation) engine, kept as the executable
    specification for equivalence testing: same outcomes and same
    node/backtrack/backjump counts as {!solve} for every configuration.
    Slower; counts one check per value probe under forward checking;
    ignores [config.preprocess]. *)
