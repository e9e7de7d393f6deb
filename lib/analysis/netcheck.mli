(** Network-layer structural analysis of a constraint network.

    Classic constraint-network theory applied to the paper's
    [CN = <P, M, S>] before search:

    - {b components} — connected components of the constraint graph.
      Variables in different components share no constraint, so the
      network decomposes into independent subproblems
      ({!Mlo_csp.Solver.solve_components} exploits exactly this).
    - {b width} — graph width along the enhanced scheme's
      most-constraining order ({!Mlo_csp.Schemes.most_constraining_order},
      which replays the search kernel's own queue,
      {!Mlo_csp.Solver.Selection}): the maximum number of
      earlier neighbours any variable has.  By
      Freuder's theorem a strongly k-consistent network with width < k
      is backtrack-free; arc consistency (the AC-2001 pre-pass) gives
      2-consistency, so [width <= 1] networks (forests) solve without a
      single backtrack.  The induced width along the same order bounds
      the consistency level adaptive consistency would need.
    - {b arc consistency} — values AC-2001 removes before search
      (arc-inconsistent: they appear in no solution), listed by
      {!Mlo_csp.Ac2001.deletions} as for an enhanced-ac certificate's
      deletion steps, and constraints that allow every value pair
      (redundant: they never prune).
    - {b unsat core} — when AC-2001 wipes a domain the network is
      unsatisfiable; a deletion-minimal subset of constraints whose
      propagation still wipes pins the blame ({!unsat_core}), surfaced
      to users through {!analyze}'s report and
      {!Mlo_core.Optimizer.optimize}'s [No_solution] message. *)

type report = {
  vars : int;
  constraints : int;
  total_domain : int;
  max_degree : int;
  components : int array array;
      (** {!Mlo_csp.Network.components}: members ascending, ordered by
          smallest member *)
  order : int array;  (** the most-constraining variable order measured *)
  width : int;  (** graph width along [order] *)
  induced_width : int;  (** induced width along [order] *)
  backtrack_free : bool;
      (** [width <= 1] and no wipe-out: arc-consistency preprocessing
          makes the search backtrack-free (Freuder) *)
  arc_inconsistent : (int * int) list;
      (** [(var, value index)] removed by AC-2001, ascending *)
  redundant : (int * int) list;
      (** constrained pairs [(i, j)], [i < j], allowing every value
          combination *)
  wiped : int option;  (** AC-2001 emptied this variable's domain *)
  unsat_core : (int * int) list option;
      (** with [wiped]: deletion-minimal constraint set whose AC still
          wipes a domain *)
  core_verified : bool option;
      (** with [unsat_core]: whether the independent certificate checker
          ({!Mlo_verify.Checker.refutes}), running the propagation loop
          its certificate check runs over exactly the core's
          constraints, reproduces the wipe-out *)
}

val width_along : 'a Mlo_csp.Network.t -> int array -> int
(** [width_along net order] is the maximum, over variables, of the
    number of constraint-graph neighbours appearing earlier in [order].
    Raises [Invalid_argument] if [order] is not a permutation of the
    variables. *)

val induced_width_along : 'a Mlo_csp.Network.t -> int array -> int
(** Width of the graph after eliminating variables in reverse [order],
    connecting each variable's earlier neighbours pairwise (the fill-in
    of adaptive consistency). *)

val unsat_core : 'a Mlo_csp.Network.t -> ((int * int) list * int) option
(** [None] when AC-2001 does not wipe any domain.  Otherwise
    [Some (core, wiped)]: a deletion-minimal list of constrained pairs
    such that arc consistency restricted to exactly those constraints
    still empties the domain of [wiped] — a certificate of
    unsatisfiability a user can act on. *)

val analyze : 'a Mlo_csp.Network.t -> report
(** Runs every check.  Emits one trace span per pass (category
    ["analysis"]) and a ["components"] counter sample when tracing is
    enabled. *)

val diagnostics : name:(int -> string) -> report -> Diagnostic.t list
(** The report folded into diagnostics (sorted): a domain wipe-out and
    its unsat core are [Error]s; structure findings (multiple
    components, backtrack-freeness, arc-inconsistent values, redundant
    constraints) are [Info]. *)

val pp : name:(int -> string) -> Format.formatter -> report -> unit

val to_json : name:(int -> string) -> report -> Mlo_obs.Json.t
(** One target object of the [memlayout-analysis/1] schema. *)
