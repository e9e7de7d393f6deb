(** Integer nullspace computation.

    The layout-derivation problem of the paper reduces to: given the
    difference vectors between array elements accessed by successive loop
    iterations, find integer hyperplane vectors [y] with [y . d = 0] for
    every difference [d].  This module computes a basis of primitive
    integer vectors for that space, by {!Intmat.echelon} and an integer
    back-substitution: no fraction is ever formed. *)

val basis : Intmat.t -> Intvec.t list
(** [basis a] is a list of linearly independent primitive integer vectors
    spanning the rational nullspace [{ x | a x = 0 }] of [a] (with [x] a
    column vector of dimension [cols a]).  The list has length
    [cols a - rank a], one vector per free column in increasing order:
    the one whose entry there is nonzero and whose other free entries are
    0.  Each vector is in {!Intvec.canonical} form.  Raises
    {!Intvec.Overflow} where an entry of the elimination or of a vector
    would not fit in a machine integer. *)

val left_basis : Intmat.t -> Intvec.t list
(** [left_basis a] is the left nullspace: primitive row vectors [y] of
    dimension [rows a] with [y a = 0], i.e. orthogonal to every {e column}
    of [a].  For hyperplane derivation from difference vectors stored as
    {e rows}, use {!basis} directly. *)

val orthogonal : Intvec.t list -> Intvec.t -> bool
(** [orthogonal ds y] checks [Intvec.dot y d = 0] for every [d] in [ds]. *)

val member : Intmat.t -> Intvec.t -> bool
(** [member a x] is true iff [a x = 0]. *)
