(** Allowed-pair relations backing binary constraints.

    A relation between a variable with [left] domain values and one with
    [right] domain values records which [(l, r)] pairs are permitted.
    Support counts per value are maintained incrementally; the
    least-constraining value ordering reads them in O(1). *)

type t

val create : left:int -> right:int -> t
(** Empty relation (no pair allowed) over the given domain sizes. *)

val add : t -> int -> int -> unit
(** [add t l r] permits the pair; idempotent.  Raises [Invalid_argument]
    out of range. *)

val mem : t -> int -> int -> bool
val pair_count : t -> int

val left_support : t -> int -> int
(** [left_support t l] is the number of right values compatible with [l]. *)

val right_support : t -> int -> int
(** [right_support t r] is the number of left values compatible with [r]. *)

val supports_of_left : t -> int -> int list
(** Right values compatible with the given left value, ascending. *)

val transpose : t -> t
(** The same relation viewed from the other side.  The result is a cached
    snapshot, shared between calls until the relation is next mutated:
    treat it as read-only, and {!copy} it before calling {!add} on it. *)

val copy : t -> t
val fold : (int -> int -> 'a -> 'a) -> t -> 'a -> 'a
(** Folds over allowed pairs in ascending [(l, r)] order. *)

val pp : Format.formatter -> t -> unit
