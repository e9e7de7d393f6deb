(** Dense integer vectors.

    Vectors are immutable by convention: every exported operation returns a
    fresh array and never mutates its arguments.  They are the carrier for
    hyperplane vectors, index vectors, and iteration vectors throughout the
    library. *)

type t = int array

val dim : t -> int
(** [dim v] is the number of components of [v]. *)

val make : int -> int -> t
(** [make n c] is the [n]-dimensional vector whose components are all [c]. *)

val zero : int -> t
(** [zero n] is the [n]-dimensional zero vector. *)

val unit : int -> int -> t
(** [unit n i] is the [i]-th standard basis vector of dimension [n]
    (0-indexed).  Raises [Invalid_argument] if [i] is out of range. *)

val of_list : int list -> t
(** [of_list xs] converts a list to a vector. *)

val to_list : t -> int list
(** [to_list v] converts a vector to a list. *)

val copy : t -> t
(** [copy v] is a fresh vector equal to [v]. *)

val equal : t -> t -> bool
(** Structural equality (same dimension, same components). *)

val compare : t -> t -> int
(** Total order: first by dimension, then lexicographically. *)

val hash : t -> int
(** Hash compatible with {!equal}. *)

val dot : t -> t -> int
(** [dot a b] is the inner product.  Raises [Invalid_argument] on dimension
    mismatch. *)

val add : t -> t -> t
(** Componentwise sum. *)

val sub : t -> t -> t
(** Componentwise difference. *)

val neg : t -> t
(** Componentwise negation. *)

val scale : int -> t -> t
(** [scale k v] multiplies every component by [k]. *)

val is_zero : t -> bool
(** [is_zero v] is true iff every component is 0. *)

exception Overflow
(** Raised by the checked operators when the exact result does not fit
    in a machine integer. *)

val ( +! ) : int -> int -> int
(** [a +! b] is [a + b], or raises {!Overflow} where [+] would wrap. *)

val ( -! ) : int -> int -> int
(** [a -! b] is [a - b], or raises {!Overflow} where [-] would wrap. *)

val ( *! ) : int -> int -> int
(** [a *! b] is [a * b], or raises {!Overflow} where [*] would wrap. *)

val gcd : int -> int -> int
(** Non-negative greatest common divisor; [gcd 0 0 = 0]. *)

val content : t -> int
(** [content v] is the gcd of the absolute values of the components
    (0 for the zero vector). *)

val primitive : t -> t
(** [primitive v] divides [v] by its content, yielding a vector whose
    components have gcd 1.  The zero vector is returned unchanged. *)

val canonical : t -> t
(** [canonical v] is the canonical representative of the hyperplane family
    containing [v]: primitive, with the first nonzero component positive.
    The zero vector is returned unchanged.  Two vectors describe the same
    hyperplane family iff their canonical forms are equal. *)

val first_nonzero : t -> int option
(** Index of the first nonzero component, if any. *)

val pp : Format.formatter -> t -> unit
(** Prints as ["(a b c)"], matching the paper's notation. *)

val to_string : t -> string
(** [to_string v] is [Format.asprintf "%a" pp v]. *)
