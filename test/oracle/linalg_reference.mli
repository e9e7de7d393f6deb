(** The rational elimination the shipped {!Mlo_linalg.Intmat.echelon}
    replaced, kept as its reference, with the Bareiss determinant.

    Everything here computes over {!Rat} or over plain machine integers,
    and wraps silently where an entry overflows: it is trusted only on
    small entries, where it is the independent answer the shipped
    fraction-free elimination must reproduce. *)

val rank : Mlo_linalg.Intmat.t -> int
(** Rank over the rationals, by rational Gaussian elimination. *)

val basis : Mlo_linalg.Intmat.t -> Mlo_linalg.Intvec.t list
(** The nullspace basis of {!Mlo_linalg.Nullspace.basis}, from the
    rational reduced row echelon form: for each free column [f], in
    increasing order, [x_f = 1], [x_p = -rref(i, f)] on pivot [(i, p)],
    denominators cleared and the result put in
    {!Mlo_linalg.Intvec.canonical} form. *)

val determinant : Mlo_linalg.Intmat.t -> int
(** Exact determinant by fraction-free (Bareiss) elimination.
    Raises [Invalid_argument] if the matrix is not square. *)

val is_unimodular : Mlo_linalg.Intmat.t -> bool
(** True iff the matrix is square with determinant +1 or -1. *)

val is_nonsingular : Mlo_linalg.Intmat.t -> bool
(** True iff the matrix is square with nonzero determinant. *)
