(** Deriving layout preferences from access patterns (paper Section 2).

    Two successive iterations of the innermost loop, [I] and [I_n = I + s]
    with [s] the innermost unit direction, touch elements of array [Q]
    that differ by [delta = F s] — the innermost column of the access
    matrix.  A layout gives the reference spatial locality iff all its
    hyperplane families are orthogonal to [delta]; the best layout is
    built from an integer basis of the orthogonal complement of [delta]. *)

val delta_at : Mlo_ir.Access.t -> int -> Mlo_linalg.Intvec.t
(** [delta_at a j] is the data-space difference produced by stepping the
    depth-[j] loop once: column [j] of the access matrix. *)

val access_delta : Mlo_ir.Access.t -> Mlo_linalg.Intvec.t
(** [delta_at a (depth a - 1)]: the innermost-step difference. *)

val preferred_layout : Mlo_ir.Access.t -> Layout.t option
(** The canonical layout giving the reference spatial locality with respect
    to the innermost loop, or [None] when the reference has temporal reuse
    in the innermost loop ([delta = 0]) and any layout serves it.  For 2-D
    arrays this reproduces the paper's examples: [Q1\[i1+i2\]\[i2\]]
    prefers [(1 -1)] and [Q2\[i1+i2\]\[i1\]] prefers [(0 1)]. *)

val layout_from_delta : Mlo_linalg.Intvec.t -> Layout.t option
(** The canonical layout orthogonal to a nonzero difference vector;
    [None] for the zero vector. *)

val score : Layout.t -> Mlo_ir.Access.t -> int
(** Locality quality of a layout for a reference under the current loop
    order, weighted by the latency it avoids: 5 for temporal reuse
    (register/L1 resident), 4 for spatial locality (one miss per line),
    0 for none (a long-latency access per iteration).  A mismatch is far
    worse than the temporal/spatial difference, so orders that serve
    every reference dominate orders that leave one unserved. *)

val delta_score : Layout.t -> Mlo_linalg.Intvec.t -> int
(** {!score} of a reference whose innermost step is the given
    difference vector. *)

val candidate_layouts : rank:int -> Mlo_ir.Access.t list -> Layout.t list
(** Deduplicated preferred layouts of the given references to one array
    (all of rank [rank]), augmented with row-major (and, when none of the
    references constrains the layout, column-major) so that every array
    has at least one candidate.  First-preference order is preserved. *)
