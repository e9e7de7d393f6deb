(** Conflict-driven solving: nogood learning, VSIDS ordering, Luby
    restarts.

    The paper's schemes ({!Solver.run}'s [Systematic] mode) compute a
    conflict set at every dead end and throw it away after backjumping.
    This engine keeps them: each dead end is recorded as a {!Nogood} over the culprit
    assignments, propagated against later subtrees through watched
    values, so the search never revisits a refuted combination.  On top
    of learning it runs:

    - {b VSIDS-style ordering} — per-variable and per-(variable, value)
      activities, bumped for every conflict participant and decayed
      geometrically (increment divided by 0.95 per conflict), pick the
      unassigned variable with the highest activity (ties: smaller
      current domain, then lower index) and its values by highest value
      activity (ties: lower value).  Variable activities start at the
      static degree, so the first descent mirrors the paper's
      most-constraining order.
    - {b Luby restarts} — run [i] aborts after [restart_base * luby i]
      conflicts and restarts from the root, keeping the learned store
      and the activities.  After [restarts] bounded runs the final run
      is unbounded, so the search is complete: each run is itself a
      complete conflict-directed search, and learning only removes
      refuted subtrees.

    This is the [Satisfy] mode of the search kernel ({!Solver.run}),
    which also runs the paper's schemes and {!Bnb}.  Lookahead is always
    forward checking; conflict sets are the conflict-directed ones.
    Solutions are verified against the compiled network before being
    returned (learning is pruning-only, so this is an internal
    assertion, not a filter).  Emits [solver] trace instants for
    [learn], [forget] and [restart] events. *)

type config = {
  restarts : int;
      (** Luby-bounded runs before the final unbounded one; 0 disables
          restarting *)
  restart_base : int;  (** conflicts per Luby unit *)
  learn_limit : int;  (** bound on the watched-nogood store *)
  max_checks : int option;  (** abort after this many checks *)
}

val default_config : config
(** 50 bounded runs, base 100 conflicts, 4000 learned nogoods, no check
    limit. *)

val solve_compiled :
  ?config:config ->
  ?on_event:(Solver.event -> unit) ->
  Compiled.t ->
  Solver.result
(** Run the conflict-driven search on a compiled view.  [on_event]
    receives every learned nogood as a
    [Learned] event (a fresh literal array plus the variable whose
    domain wiped at the dead end), in chronological order, and never
    [Finished] — the soundness property tests pin each nogood against
    the brute-forced solution set.
    [stats.learned]/[forgotten]/[restarts] report the learning
    activity. *)

val solve : ?config:config -> 'a Network.t -> Solver.result
(** {!solve_compiled} on [Network.compile net]. *)

val solve_components :
  ?config:config ->
  ?on_event:(comp:int -> vars:int array -> Solver.event -> unit) ->
  'a Network.t ->
  Solver.result
(** Component-wise conflict-driven search via {!Solver.component_driver}
    (independent learned stores per component).  [on_event] receives
    each component's {!Solver.event} stream as the search runs, in
    component order; [Finished] is always a component's last event, and
    nothing arrives for the components after the first one without a
    solution. *)
