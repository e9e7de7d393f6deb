(** Dense integer matrices.

    A matrix is an array of rows; all rows have equal length.  As with
    {!Intvec}, exported operations are non-mutating.  These matrices carry
    array access functions (rows indexed by loop variables) and data
    transforms (rows are hyperplane vectors). *)

type t = int array array

val rows : t -> int
val cols : t -> int
(** [cols m] is the common row length; 0 for a matrix with no rows. *)

val make : int -> int -> int -> t
(** [make r c x] is the [r]x[c] matrix filled with [x].
    Raises [Invalid_argument] on negative dimensions. *)

val identity : int -> t
(** [identity n] is the [n]x[n] identity matrix. *)

val of_rows : Intvec.t list -> t
(** Builds a matrix from row vectors.  Raises [Invalid_argument] if the
    rows have differing lengths. *)

val of_lists : int list list -> t
(** [of_lists rows] is [of_rows (List.map Intvec.of_list rows)]. *)

val row : t -> int -> Intvec.t
(** [row m i] is a copy of row [i]. *)

val col : t -> int -> Intvec.t
(** [col m j] is a copy of column [j]. *)

val copy : t -> t
val equal : t -> t -> bool
val compare : t -> t -> int

val transpose : t -> t

val mul : t -> t -> t
(** Matrix product.  Raises [Invalid_argument] on dimension mismatch. *)

val mul_vec : t -> Intvec.t -> Intvec.t
(** [mul_vec m v] is the matrix-vector product [m * v] ([v] a column). *)

val vec_mul : Intvec.t -> t -> Intvec.t
(** [vec_mul v m] is the vector-matrix product [v * m] ([v] a row). *)

val add : t -> t -> t
val scale : int -> t -> t

val determinant : t -> int
(** Exact determinant by fraction-free (Bareiss) elimination.
    Raises [Invalid_argument] if the matrix is not square. *)

val rank : t -> int
(** Rank over the rationals. *)

val is_square : t -> bool
val is_identity : t -> bool

val is_unimodular : t -> bool
(** True iff the matrix is square with determinant +1 or -1. *)

val is_nonsingular : t -> bool
(** True iff the matrix is square with nonzero determinant. *)

val append_row : t -> Intvec.t -> t
(** [append_row m v] is [m] with [v] appended as the last row. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
