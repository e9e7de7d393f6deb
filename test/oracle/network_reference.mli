(** The induced subnetwork, kept as the oracle of
    {!Mlo_csp.Network.compile_vars}.

    It copies the chosen variables and their constraints into a fresh
    network through [Network]'s public operations, so
    [Network.compile (induced net vars)] is the view a component-wise
    solve must run on, built the long way. *)

val induced : 'a Mlo_csp.Network.t -> int array -> 'a Mlo_csp.Network.t
(** [induced net vars] is the subnetwork on exactly the variables [vars]
    (order preserved — sub-variable [k] is [vars.(k)]), keeping the
    constraints whose endpoints both survive.  Constraints that allow
    nothing are preserved as such.  Raises [Invalid_argument] on a
    duplicate or out-of-range variable. *)
