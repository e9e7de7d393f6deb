(** Fixtures several test suites share, one copy each. *)

val random_network : int -> int Mlo_csp.Network.t
(** [random_network seed] is a small random network: 2-6 variables,
    domains of 1-3 values, about 60% of the pairs constrained and about
    55% of a constrained pair's value pairs allowed, so roughly half the
    instances are unsatisfiable and dead ends are common.  The same seed
    always gives the same network. *)

val dumb_verify : 'a Mlo_csp.Network.t -> int array -> bool
(** The dumb checker: a complete assignment is consistent iff every
    value is in its domain and every constrained pair allows its two
    values.  It uses only the network's relation queries, nothing from
    the compiled view. *)

val simulated_cycles :
  Mlo_workloads.Spec.t -> (string * Mlo_layout.Layout.t) list -> int
(** [simulated_cycles spec layouts] restructures the benchmark's
    simulation program for [layouts] (arrays not listed keep their
    default) and simulates it: the total cycles of the hierarchy. *)

val fig2_program : n:int -> Mlo_ir.Program.t
(** The paper's Figure 2 program at size [n]: one [n]x[n] nest reading
    [Q1[i1+i2][i2]] and [Q2[i1+i2][i1]]. *)
