(** Exact integer linear feasibility over bounded systems (Omega test).

    The dependence analyzer needs a {e decision procedure} for systems
    of linear equalities and inequalities over the integers: "do
    iterations [I], [I'] within their loop bounds touch the same array
    element with [I' - I] in a given direction cone?".  A GCD test or a
    rational relaxation can only answer "maybe"; this module answers
    yes or no, exactly.

    The algorithm is the Omega test (Pugh 1991) specialized to the tiny
    systems loop nests produce:

    - {b normalization} — every constraint is divided by the gcd of its
      variable coefficients; for inequalities the constant is floored
      ({e integer tightening}), for equalities a non-dividing constant
      refutes the system outright.
    - {b equality elimination} — a variable with a unit coefficient is
      substituted away; when no unit coefficient exists, Pugh's
      symmetric-modulo substitution introduces a fresh variable whose
      coefficients are strictly smaller, until a unit appears.
    - {b Fourier–Motzkin with shadows} — variables bounded on one side
      only are projected out by dropping their constraints (an exact
      projection).  Otherwise each lower/upper pair [(a·x >= α,
      b·x <= β)] combines into the {e real shadow} [a·β >= b·α] and the
      {e dark shadow} [a·β - b·α >= (a-1)(b-1)].  When every pair has
      [a = 1] or [b = 1] the two coincide and the elimination is exact;
      the variable-order heuristic prefers such variables, so the box
      bounds contributed by loop ranges (always unit-coefficient) keep
      eliminations exact in the common case.
    - {b splintering} — when the dark shadow is infeasible but the real
      shadow is not, the system is feasible iff an integer point lies
      close above some lower bound: the engine case-splits on
      [a·x = α + j] for the finitely many [j] Pugh's bound allows and
      recurses.

    All arithmetic is machine-integer and checked: the systems arising
    from constant-bounded loop nests keep every intermediate coefficient
    tiny, and where one would not fit an [int], {!feasible} and {!range}
    raise [Mlo_linalg.Intvec.Overflow] rather than decide a wrapped
    system. *)

type cstr
(** One linear constraint over variables [x_0 .. x_{n-1}]. *)

val geq : int array -> int -> cstr
(** [geq coeffs c] is the constraint [coeffs . x + c >= 0]. *)

val leq : int array -> int -> cstr
(** [leq coeffs c] is the constraint [coeffs . x + c <= 0]. *)

val eq : int array -> int -> cstr
(** [eq coeffs c] is the constraint [coeffs . x + c = 0]. *)

val between : nvars:int -> int -> lo:int -> hi:int -> cstr list
(** [between ~nvars i ~lo ~hi] bounds variable [i] into the inclusive
    interval [[lo, hi]] (two unit-coefficient constraints). *)

type system
(** An immutable conjunction of constraints over a fixed variable
    count.  Systems are cheap persistent values: {!add} shares the
    existing constraints. *)

val make : nvars:int -> cstr list -> system
(** [make ~nvars cs] builds a system over [nvars] variables.  Raises
    [Invalid_argument] if a constraint's coefficient vector has a
    different length. *)

val add : system -> cstr list -> system
(** [add sys cs] is [sys] with the extra constraints conjoined. *)

val feasible : system -> bool
(** [feasible sys] is true iff an integer point satisfies every
    constraint.  Exact: never a conservative answer in either
    direction. *)

val range : system -> coeffs:int array -> lo:int -> hi:int -> (int * int) option
(** [range sys ~coeffs ~lo ~hi] is the exact [(min, max)] of the linear
    form [coeffs . x] over the integer solutions of [sys], or [None]
    when [sys] is infeasible.  [lo] and [hi] must be {e valid} outer
    bounds for the form over the solution set (interval arithmetic over
    the system's box bounds suffices); the extrema are found by binary
    search on feasibility queries inside them. *)

(** {2 Effort counters}

    Cumulative, process-wide counters of the engine's work, for the
    [deps] report and the bench harness.  Nothing resets them: a reader
    takes the difference of two {!stats} calls around the work it
    measures ([max_split_depth] is a high-water mark, which only
    grows). *)

type stats = {
  checks : int;  (** top-level {!feasible} / {!range} probe calls *)
  eliminations : int;  (** variables eliminated (FM or equality) *)
  splits : int;  (** splinter case-splits taken *)
  max_split_depth : int;  (** deepest nesting of splits seen *)
}

val stats : unit -> stats
