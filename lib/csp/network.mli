(** Binary constraint networks [CN = <P, M, S>] (paper Section 3).

    [P] is a set of variables (the arrays), [M] gives each variable a
    finite domain (its candidate layouts), and [S] is a set of binary
    constraints: for a pair of variables, the set of allowed value pairs.
    Pairs of variables with no constraint in [S] are unconstrained.

    The network is polymorphic in the domain-value type: the layout
    pipeline instantiates it at [Layout.t], the tests also use plain
    integers and strings. *)

type 'a t

val create : names:string array -> domains:'a array array -> 'a t
(** [create ~names ~domains] builds a network with no constraints.
    Raises [Invalid_argument] if lengths differ, or any domain is empty. *)

val num_vars : 'a t -> int
val name : 'a t -> int -> string
val domain : 'a t -> int -> 'a array
(** A copy of the variable's domain values. *)

val domain_size : 'a t -> int -> int
val value : 'a t -> int -> int -> 'a
(** [value t i v] is the [v]-th domain value of variable [i]. *)

val total_domain_size : 'a t -> int
(** Sum of domain sizes over all variables: the paper's Table 1
    "Domain Size" column. *)

val add_allowed : 'a t -> int -> int -> (int * int) list -> unit
(** [add_allowed t i j pairs] adds the given [(vi, vj)] value-index pairs
    to the constraint between [i] and [j], creating it if absent (an
    absent constraint allows everything; once created, only added pairs
    are allowed).  Orientation follows the argument order; adding a
    pair twice is harmless.  Raises [Invalid_argument], and changes
    nothing, if [i = j] or an index is out of range. *)

val allow_product : 'a t -> int -> int array -> int -> int array -> unit
(** [allow_product t i vis j vjs] allows every pair of [vis × vjs] (value
    indices of [i] and of [j]) under {!add_allowed}'s contract: it creates
    the constraint if absent, even when a side is empty; a repeated or
    already allowed pair is counted once, in each direction; and it
    raises [Invalid_argument], having changed nothing, if [i = j] or a
    value on either side is out of range.  One call writes a whole
    product, so a caller that allows all of [j]'s values [vjs] under
    [i = vi] passes [[| vi |]] and [vjs] rather than one pair at a time.

    Each constraint is found by one integer key, [a * n + b] for the
    variables [a < b] of an [n]-variable network, in an int-keyed table:
    no write, lookup or traversal builds or hashes a tuple. *)

val constrained : 'a t -> int -> int -> bool
(** Whether a constraint exists between the two variables. *)

val allowed : 'a t -> int -> int -> int -> int -> bool
(** [allowed t i vi j vj] is false only if a constraint exists between [i]
    and [j] and excludes the pair; an out-of-range value is excluded. *)

val support_count : 'a t -> int -> int -> int -> int
(** [support_count t i vi j] is the number of values of [j] compatible
    with [i = vi]; [domain_size t j] when the pair is unconstrained.
    Raises [Invalid_argument] if [i = j] or a variable or [vi] is out of
    range, whether or not the pair is constrained. *)

val supports : 'a t -> int -> int -> Bitset.row array
(** [supports t i j] holds, for each value [vi] of [i], the row of the
    values of [j] compatible with [i = vi].  A constraint is stored once,
    as these rows in both directions and their popcounts, so the result
    is the network's own storage, not a copy: treat it as read-only.
    Raises [Invalid_argument] if the pair is unconstrained. *)

val compile : 'a t -> Compiled.t
(** The dense, value-index-only view of the whole network the solver and
    AC-2001 run on: {!compile_vars} on every variable.  Memoized until
    the next {!add_allowed} or {!allow_product}, so the analyses that
    compile a network again after its solve share one handle matrix. *)

val compile_vars : 'a t -> int array -> Compiled.t
(** [compile_vars t vars] is the view of the subnetwork on [vars]
    (strictly ascending; local variable [a] is [vars.(a)]) and the
    constraints among them, empty ones included, with the handles of
    local pairs [(a, b)], [a < b], numbered in ascending order.  The view
    borrows the network's support rows and counts ({!supports}) rather
    than copying them, so it is valid until the next {!add_allowed} or
    {!allow_product}.  Its cost is in the size of [vars] and their
    constraints, not of [t].  Not memoized.  Raises [Invalid_argument] on an out-of-range
    variable or an order that is not strictly ascending. *)

val neighbors : 'a t -> int -> int list
(** Variables sharing a constraint with the given one, ascending. *)

val degree : 'a t -> int -> int
val num_constraints : 'a t -> int
val constraint_pairs : 'a t -> (int * int) list
(** All constrained pairs [(i, j)] with [i < j], ascending. *)

val verify : 'a t -> int array -> bool
(** [verify t a] checks the complete assignment [a] (value index per
    variable) against every constraint.  Raises [Invalid_argument] if the
    assignment has the wrong length or an index is out of range. *)

val consistent_partial : 'a t -> int array -> bool
(** Like {!verify} for a partial instantiation: entries of [-1] are
    unassigned, and only constraints between assigned variables are
    checked — the paper's "consistent partial instantiation". *)

val components : 'a t -> int array array
(** Connected components of the constraint graph, by breadth-first
    search over the neighbour lists: members ascending, components
    ordered by smallest member, unconstrained variables singleton. *)

val restrict_domains : 'a t -> bool array array -> 'a t
(** [restrict_domains t keep] is a fresh network with the same variables
    but only the values [v] of variable [i] with [keep.(i).(v)], order
    preserved, and every constraint re-indexed onto the surviving values.
    Constraints whose allowed pairs all vanish are preserved empty (they
    allow nothing).  This is the substrate of sound
    domain preprocessing (dominance pruning in [Mlo_netgen]): removing a
    value whose supports in every constraint are a subset of a kept
    value's cannot change satisfiability.  Raises [Invalid_argument] if
    a mask's shape disagrees with its domain or a mask would empty a
    domain. *)

val pp : (Format.formatter -> 'a -> unit) -> Format.formatter -> 'a t -> unit
