(** Independent certificate checker.

    The checker validates a {!Proof.t} against the {e original}
    network using only the raw relation predicates
    ([Network.allowed] / [Network.verify]) plus its own propagation
    core, one arc-revision fixpoint that {!check} and {!refutes} share
    — it shares no code with the search engines ([Compiled],
    [Ac2001], [Cdl], [Bnb] are never consulted), so a bug in the
    solvers cannot also hide in the checker.

    Justification rules, per step kind:

    - [Del _ Arc_inconsistent]: the value must already be dead in the
      checker's own arc-consistency fixpoint of the current state.
    - [Del _ (Dominated by)]: the witness [by] must be live, its
      supports must be a superset of the removed value's supports over
      live domains, and — under an optimality certificate — its cost
      must not exceed the removed value's.
    - [Ng _]: the nogood must be subsumed (a literal already dead),
      or assuming its literals must yield a propagation conflict in
      the step's component, or refute via the component bound, or
      every live value of some component variable must probe-refute
      (assume it on top of the literals; propagation conflicts or the
      bound rule fires).
    - [Inc _]: only valid under an [Optimal] verdict; must cover the
      component exactly, be consistent on the original network, match
      the recomputed separable cost, and strictly improve the
      component's bound.

    Accepted nogoods strengthen the checker's root state (unit
    nogoods delete the value outright), so later steps may build on
    earlier ones — the RUP-style replay. *)

val check :
  ?costs:float array array ->
  'a Mlo_csp.Network.t ->
  Proof.t ->
  (unit, string) result
(** [check net proof] replays [proof] against [net] (the original,
    pre-preprocessing network). [costs.(i).(v)] is the separable cost
    of the original value [v] of variable [i]; it is required for
    [Optimal] verdicts. Every cost comparison has a relative tolerance
    of [1e-6]. The [Error] message names the first failing step. *)

val refutes : ?only:(int * int) list -> 'a Mlo_csp.Network.t -> bool
(** [refutes ?only net] is [true] when {!check}'s own propagation
    loop, run from full domains without nogoods, wipes out some
    variable's domain — an independent confirmation that [net] is
    unsatisfiable. With [~only], propagation uses just the listed
    constraint pairs, so a reported unsat {e core} can be validated in
    isolation. *)
