(** Dense integer matrices.

    A matrix is an array of rows; all rows have equal length.  As with
    {!Intvec}, exported operations are non-mutating, except {!echelon},
    which reduces its argument in place.  These matrices carry
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

val echelon : cols:int -> t -> int
(** [echelon ~cols a] brings [a] to row echelon form in place by
    fraction-free elimination and returns its rank [r] over the first
    [cols] columns: rows [0 .. r-1] hold the pivots, each at its row's
    first nonzero entry, in increasing columns; every row it reduces is
    left primitive ({!Intvec.primitive}); the rows below [r] are zero in
    the first [cols] columns.  Columns past [cols] (a right-hand side,
    say) are reduced along but hold no pivot.  Raises {!Intvec.Overflow}
    where an entry would not fit in a machine integer. *)

val rank : t -> int
(** [rank m] is {!echelon} on a copy of [m] over all its columns: the
    rank over the rationals.  Raises {!Intvec.Overflow} as {!echelon}
    does. *)

val is_square : t -> bool
val is_identity : t -> bool

val append_row : t -> Intvec.t -> t
(** [append_row m v] is [m] with [v] appended as the last row. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
