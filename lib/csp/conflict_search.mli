(** The conflict-directed forward-checking search kernel behind {!Cdl}
    and {!Bnb} (private to the library).

    One engine: a trail of forward-checking prunings, conflict-directed
    backjumping with per-variable blame ([pruned_by]), dead-end learning
    into a watched {!Nogood} store that is propagated on every
    assignment, a check budget, and the per-component event stream.
    The [mode] picks the rest:

    - [Satisfy] — VSIDS variable and value order, activity bumps and
      nogood decay at every dead end, Luby restarts; stops at the first
      leaf ({!Cdl}).
    - [Minimize] — smallest-domain variable order, cheapest value first,
      the admissible separable-cost bound with incumbent pruning; a leaf
      records an incumbent and the search goes on until the space is
      exhausted ({!Bnb}). *)

type mode =
  | Satisfy of { restarts : int; restart_base : int }
  | Minimize of { costs : float array array; slack : float }
      (** [costs] is checked by the caller: one row per variable, one
          entry per domain value; [slack >= 0]. *)

val cost_of : costs:float array array -> int array -> float
(** Canonical total cost of a complete assignment (see {!Bnb.cost_of}). *)

val run :
  mode ->
  preprocess:Solver.preprocess ->
  learn_limit:int ->
  max_checks:int option ->
  ?on_event:(Solver.event -> unit) ->
  Compiled.t ->
  Solver.result
(** Search a compiled view.  [on_event] receives every learned nogood
    ([Learned], a fresh literal array) and, in [Minimize] mode, every
    strict incumbent improvement ([Incumbent], a fresh copy), in
    chronological order; it never receives [Finished]. *)

val solve_components :
  ?on_event:(comp:int -> vars:int array -> Solver.event -> unit) ->
  max_checks:int option ->
  (max_checks:int option ->
  on_event:(Solver.event -> unit) option ->
  'a Network.t ->
  Solver.result) ->
  'a Network.t ->
  Solver.result
(** [solve_components ~max_checks solve net] runs [solve] on every
    component through {!Solver.component_driver}, in component order.
    Each component's events go to [on_event] as they happen, followed
    by one [Finished] with its outcome; nothing arrives for the
    components after the first one without a solution. *)
