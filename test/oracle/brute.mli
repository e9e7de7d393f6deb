(** Exhaustive reference solver.

    Enumerates the full Cartesian product of the domains; exponential, so
    only usable on small networks.  Serves as the oracle for property
    tests: every {!Mlo_csp.Solver} configuration must agree with it on
    satisfiability, and weighted branch-and-bound must match its optimum. *)

val is_satisfiable : 'a Mlo_csp.Network.t -> bool

val count_solutions : ?limit:int -> 'a Mlo_csp.Network.t -> int
(** Number of complete consistent assignments, stopping early at [limit]
    if given. *)

val all_solutions : ?limit:int -> 'a Mlo_csp.Network.t -> int array list
(** The solutions themselves (value index per variable), lexicographic
    order, at most [limit] of them if given. *)

val first_solution : 'a Mlo_csp.Network.t -> int array option

val lower_bound :
  costs:float array array ->
  assignment:int array ->
  live:(int -> int -> bool) ->
  float
(** Branch and bound's admissible bound ({!Mlo_csp.Bnb}) as a pure
    function: entries of [-1] in [assignment] are unassigned and
    contribute the minimum cost over their live values ([live i v]);
    assigned entries contribute their exact cost.  For every complete
    consistent extension [c] of [assignment] within the live domains,
    [lower_bound ... <= Bnb.cost_of ~costs c]. *)

val weighted_optimum : 'a Mlo_csp.Weighted.t -> (int array * float) option
(** The maximum-weight solution under {!Mlo_csp.Weighted.assignment_weight},
    the first in lexicographic order on ties; [None] when unsatisfiable. *)
