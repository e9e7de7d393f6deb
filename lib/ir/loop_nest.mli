(** Perfectly nested affine loops with constant bounds.

    Loops are listed outermost first.  Each loop has an inclusive lower
    bound, an exclusive upper bound and a unit step — the shape of the
    embedded kernels the paper evaluates.  The body is a list of array
    references executed once per iteration, in order. *)

type loop = { var : string; lo : int; hi : int }
(** One loop level: [for (var = lo; var < hi; var++)]. *)

type t = private {
  name : string;
  loops : loop array;
  accesses : Access.t array;
}

val make : name:string -> loop list -> Access.t list -> t
(** Builds a nest.  Raises [Invalid_argument] if there are no loops or
    more than 6, a loop is empty ([hi <= lo]), loop variable names
    collide, there are no accesses, or an access depth differs from the
    number of loops. *)

val name : t -> string
val depth : t -> int
val loops : t -> loop array
val accesses : t -> Access.t array
val var_names : t -> string array

val trip_count : t -> int
(** Number of iterations (product of per-loop trip counts). *)

val arrays_touched : t -> string list
(** Names of arrays referenced by the nest, without duplicates, in first-
    occurrence order. *)

val iter : t -> (Mlo_linalg.Intvec.t -> unit) -> unit
(** [iter t f] calls [f] on every iteration vector in lexicographic
    (program) order.  The vector passed to [f] is reused across calls; the
    callback must copy it if it needs to retain it. *)

val innermost_step : t -> Mlo_linalg.Intvec.t
(** The iteration-space direction of two successive iterations that do not
    cross loop bounds: the unit vector of the innermost loop.  This is the
    [I_n - I] of the paper's Section 2. *)

val permute : t -> int array -> t
(** [permute t perm] reorders the loops: the loop at new depth [p] is the
    old loop [perm.(p)].  Accesses are rewritten accordingly.  Raises
    [Invalid_argument] if [perm] is not a permutation of [0 .. depth-1]. *)

val interchange : t -> t
(** Swaps the loops of a depth-2 nest.  Raises [Invalid_argument] if the
    nest depth is not 2. *)

val orders : t -> int array list
(** All [depth!] loop orders of the nest as permutations (new depth ->
    old depth), identity first: at most [6! = 720], since {!make} caps
    the depth at 6. *)

val permutations : t -> (int array * t) list
(** {!orders}, each paired with the nest it produces. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
