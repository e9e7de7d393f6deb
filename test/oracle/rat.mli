(** Exact rational arithmetic on machine integers.

    Rationals are kept in canonical form: the denominator is positive and
    the numerator and denominator are coprime.  Used by the rational
    Gaussian elimination of {!Linalg_reference}.  The arithmetic wraps
    silently where a machine-word product overflows, so the reference
    is trusted only on small entries. *)

type t = private { num : int; den : int }

val make : int -> int -> t
(** [make num den] is the canonical rational [num/den].
    Raises [Division_by_zero] if [den = 0]. *)

val of_int : int -> t
val zero : t
val one : t

val num : t -> int
val den : t -> int

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val div : t -> t -> t
(** [div a b] raises [Division_by_zero] if [b] is zero. *)

val neg : t -> t
val inv : t -> t
(** [inv a] raises [Division_by_zero] if [a] is zero. *)

val equal : t -> t -> bool
val compare : t -> t -> int
val is_zero : t -> bool
val sign : t -> int
val abs : t -> t

val to_float : t -> float
val pp : Format.formatter -> t -> unit
val to_string : t -> string
