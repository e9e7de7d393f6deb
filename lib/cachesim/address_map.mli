(** Laying the program's arrays out in a flat byte address space.

    Every array gets a base address (line-aligned) and an address map
    derived from its chosen layout ({!Mlo_layout.Transform}); the address
    of an element is [base + cell_index * elem_size].  Skewed layouts can
    enlarge an array's footprint (bounding-box holes) — reflected in the
    bases of subsequent arrays, exactly as a compiler's data remapping
    would. *)

type t

val default_align : int
(** The base alignment {!build} uses unless told otherwise: 64 bytes. *)

val build :
  ?align:int ->
  Mlo_ir.Program.t ->
  layouts:(string -> Mlo_layout.Layout.t option) ->
  t
(** [build prog ~layouts] assigns addresses in declaration order.  Arrays
    for which [layouts] returns [None] keep the row-major default.
    [align] (default {!default_align}) must be a positive power of two;
    array bases are rounded up to it.  Raises [Invalid_argument] if a
    provided layout's rank differs from the array's. *)

val transform_of :
  Mlo_ir.Array_info.t -> Mlo_layout.Layout.t option -> Mlo_layout.Transform.t
(** [transform_of info layout] is the transform {!build} gives the array
    [info] under [layout] ([None]: the row-major default).  Raises
    [Invalid_argument] like {!build} on a rank mismatch. *)

val address : t -> string -> Mlo_linalg.Intvec.t -> int
(** Byte address of an array element (by original index vector).
    Raises [Invalid_argument] naming the array if it is not part of the
    program this map was built from (an optimizer/simulator mismatch). *)

val footprint_bytes : t -> int
(** Total bytes spanned, including transform holes and alignment. *)

val base : t -> string -> int
val transform : t -> string -> Mlo_layout.Transform.t
val elem_size : t -> string -> int
