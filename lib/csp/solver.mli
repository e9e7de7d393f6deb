(** The search kernel (paper Section 4) and the schemes built on it.

    One depth-first backtracking search ({!run}) runs in three modes:
    [Systematic], the paper's schemes and their extensions as a
    {!config} of pluggable policies; [Satisfy], conflict-driven learning
    ({!Cdl}); and [Minimize], branch and bound ({!Bnb}).  A config
    picks:

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

    The kernel runs on the {e compiled} network view ({!Network.compile}):
    consistency checks are O(1) dense-table probes and forward checking
    prunes whole neighbour domains word-parallel.  The original
    hashtable-probing engine is kept as the executable specification of
    [Systematic] in the test-only library [mlo_oracle]
    ([Solver_reference]): both produce identical outcomes and identical
    node/backtrack/backjump counts for every configuration (property
    tested); under forward checking they count [checks] differently (see
    {!Stats}). *)

type var_policy =
  | Lexicographic_var  (** lowest-numbered uninstantiated variable *)
  | Random_var  (** uniformly random uninstantiated variable *)
  | Most_constraining
      (** most constraints to the rest of the network; ties broken by
          constraints to instantiated variables, then smaller domain
          ({!Selection}) *)

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
    {!component_driver} (and so by {!Cdl.solve_components} and
    {!Bnb.branch_and_bound}) via their [on_event] callbacks.  Variable
    indices are local to the component; the [vars] array of the
    enclosing component maps them back. *)

type mode =
  | Systematic of config
      (** The config's policies and [preprocess]; its [max_checks] is
          not read here ({!solve_compiled} passes it as {!run}'s). *)
  | Satisfy of { restarts : int; restart_base : int; learn_limit : int }
      (** {!Cdl}'s conflict-driven search, with the fields of
          {!Cdl.config}; stops at the first solution. *)
  | Minimize of { costs : float array array; slack : float; learn_limit : int }
      (** {!Bnb}'s branch and bound over the separable cost
          [costs.(i).(v)] (checked by the caller: one row per variable,
          one entry per domain value; [slack >= 0]); runs until the
          space below the incumbent is exhausted. *)

val run :
  ?on_event:(event -> unit) ->
  max_checks:int option ->
  mode ->
  Compiled.t ->
  result
(** Search a compiled view in [mode] for at most [max_checks] checks.
    Only a [Systematic] config preprocesses (its optional AC-2001
    [preprocess]); the learning modes start from the full domains.
    [on_event] receives every learned nogood ([Learned], a fresh literal
    array) and, in [Minimize] mode, every strict incumbent improvement
    ([Incumbent], a fresh copy), in chronological order; it never
    receives [Finished].
    A learning mode asserts its [Solution] against {!Compiled.verify};
    cut by the budget, it sets [stats.cut], and [Minimize] then returns
    its incumbent, if it has one. *)

module Selection : sig
  (** The [Most_constraining] rule, which {!run} and
      {!Schemes.most_constraining_order} both use: among the unassigned
      variables, the most unassigned neighbours, then the highest degree
      (at equal unassigned neighbours, the most constraints to
      instantiated variables), then the smallest domain, lowest index on
      ties.

      It is a bucket queue: one {!Lset} row per count of unassigned
      neighbours, holding the variables by a rank fixed at {!create}
      (degree descending, starting domain size ascending, index
      ascending).  A pick takes the lowest rank of the highest non-empty
      row; an assignment moves each unassigned neighbour one row.  Both
      cost O(degree) plus the rows' words, not O(n), and allocate
      nothing. *)

  type t

  val create : ?live:bool -> Compiled.t -> Bitset.t array -> t
  (** [create comp domains] queues every variable of [comp] as
      unassigned.  Domain sizes are read from [domains] ([Bitset.count])
      or, when [domains] is empty, from the view ([Compiled.domain_size]).
      With [~live:true] (default [false]) the sizes are read again at
      every pick, so [domains] may shrink and grow between picks (forward
      checking): the top row's members are then scanned for the rest of
      the key.  Otherwise [domains] must not change. *)

  val pick : t -> int
  (** The rule's variable, or [-1] when every variable is assigned.
      Leaves the queue as it was. *)

  val assign : t -> int -> unit
  (** Takes a queued variable out and moves its queued neighbours one
      row down. *)

  val unassign : t -> int -> unit
  (** Puts an assigned variable back and moves its queued neighbours one
      row up.  Any order of {!assign} and {!unassign} is allowed; the
      search undoes its assignments last in, first out. *)
end

val cost_of : costs:float array array -> int array -> float
(** Canonical total cost of a complete assignment (see {!Bnb.cost_of}). *)

val solve : ?config:config -> 'a Network.t -> result
(** Runs the search on [Network.compile net] (memoized — repeated solves
    of the same network compile once).  The returned assignment (if any)
    satisfies {!Network.verify}. *)

val solve_compiled : ?config:config -> Compiled.t -> result
(** [run (Systematic config)] on an already-compiled view. *)

val solve_components : ?config:config -> 'a Network.t -> result
(** Component-wise search: solves each connected component of the
    constraint graph ({!Network.components}) on its own compiled view
    ({!Network.compile_vars}) and merges the per-component solutions.
    Variables in different components share no constraint, so this is
    decision-equivalent to {!solve} — same satisfiability, and any
    returned assignment satisfies {!Network.verify} — while dead-ends
    never thrash across unrelated components (the stats can only
    improve).  A single-component network takes exactly the {!solve}
    path: outcome and counters are identical.  Components are solved
    in index order; [config.max_checks] is a global budget, each
    component getting what the earlier ones left, and the first
    component without a solution stops the run.  Counters are summed;
    [max_depth] is the deepest component's. *)

val component_driver :
  ?on_event:(comp:int -> vars:int array -> event -> unit) ->
  max_checks:int option ->
  run:
    (on_event:(event -> unit) option ->
    max_checks:int option ->
    vars:int array ->
    Compiled.t ->
    result) ->
  'a Network.t ->
  result
(** The machinery behind {!solve_components}, generic in the
    per-component engine: hands [run] each component's view
    ({!Network.compile_vars}, built when its turn comes) and the [vars]
    array that maps its local variable indices back to the whole
    network, passes the rest of the [max_checks] budget from each
    component to the next, and merges results in component order up to
    and including the first non-solution.  A single-component network
    runs on the memoized {!Network.compile}, as component 0 with the
    identity mapping.  Each component's events go to [on_event] with
    its index [comp] and its [vars] (proof emission relies on both), as
    the search runs, followed by one [Finished] with its outcome;
    nothing arrives for the components after the first one without a
    solution.  {!Cdl.solve_components} and {!Bnb.branch_and_bound}
    build on this. *)

val solve_values : ?config:config -> 'a Network.t -> ('a array * result) option
(** Convenience: like {!solve} but materializes the domain values of the
    solution; [None] when unsatisfiable or aborted. *)

