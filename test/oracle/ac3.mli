(** Arc consistency by AC-3, the oracle for {!Mlo_csp.Ac2001}.

    Revises arcs from a queue, re-scanning the whole neighbour domain on
    every revision.  AC-2001 must reach the same (unique) fixpoint. *)

val run : 'a Mlo_csp.Network.t -> (Mlo_csp.Bitset.t array, int) result
(** [Ok domains] (arc-consistent, one bitset per variable, all
    non-empty) or [Error i] when variable [i]'s domain wiped out.  The
    network is not modified. *)

val revise :
  'a Mlo_csp.Network.t -> Mlo_csp.Bitset.t array -> int -> int -> bool
(** [revise net domains i j] removes from [domains.(i)] every value with
    no support in [domains.(j)] under the constraint between [i] and [j];
    true iff something was removed.  No-op (false) for unconstrained
    pairs. *)
