(** Applying a layout as a nonsingular data transformation.

    A layout's hyperplane rows are completed to a nonsingular matrix [T]
    ({!Mlo_linalg.Unimodular}); the element with original index [d] is
    stored at transformed coordinates [T d].  Because [T] is linear, the
    image of the original extent box fits in the bounding box spanned by
    the images of its corners; the transformed array is linearized
    row-major inside that box.  Non-unimodular completions (and skewed
    hyperplanes) can leave unused holes in the box — exactly the data-size
    growth the paper's footnote 2 warns about when non-primitive
    hyperplanes are chosen. *)

type t
(** A ready-to-use address map for one array under one layout. *)

val make : Layout.t -> extents:int array -> t
(** [make layout ~extents] precomputes the transform matrix and transformed
    bounding box for an array with the given per-dimension extents.
    Raises [Invalid_argument] if [Array.length extents <> Layout.rank
    layout] or any extent is non-positive. *)

val matrix : t -> Mlo_linalg.Intmat.t
(** The completed nonsingular transform (top rows = layout hyperplanes). *)

val linear_map : t -> int array * int
(** [linear_map t] is [(lin, c)] such that [cell_index t d = c + sum_j
    lin.(j) * d.(j)] for every index vector [d]: the transform's whole
    index-to-cell map collapsed into one affine form.  This is what lets
    a trace compiler fold layout, bounding box and linearization into
    per-loop address strides ({!Mlo_cachesim.Compiled_trace}). *)

val cell_index : t -> Mlo_linalg.Intvec.t -> int
(** Linear cell offset of element [d] in the transformed storage: the
    row-major position of [T d] within the transformed bounding box.
    Distinct in-bounds elements map to distinct offsets ([T] is
    nonsingular). *)

val footprint_cells : t -> int
(** Number of cells in the transformed bounding box (>= the number of
    array elements; equality iff the transform leaves no holes). *)

val original_cells : t -> int
(** Number of elements of the original array. *)

val expansion : t -> float
(** [footprint_cells / original_cells]: storage blow-up caused by the
    transform (1.0 for unimodular axis-aligned layouts). *)

val identity : extents:int array -> t
(** The address map of the untransformed (row-major) array. *)

val pp : Format.formatter -> t -> unit
