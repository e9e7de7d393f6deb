(** Constraint-network extraction from a program (paper Section 3).

    The network has one variable per array.  Domains collect every layout
    demanded by some legal restructuring of some nest (plus row-major as
    the always-available default).  For each nest and each pair of arrays
    it constrains, each legal restructuring contributes one allowed layout
    pair — "the best layout choice under a given loop restructuring". *)

type t = {
  network : Mlo_layout.Layout.t Mlo_csp.Network.t;
  program : Mlo_ir.Program.t;
  constrained_arrays : string array;
      (** network variable index -> array name (declaration order) *)
  var_index : (string, int) Hashtbl.t;
      (** the inverse map, array name -> network variable index *)
}

val build :
  ?relax:bool ->
  ?candidates:(string -> Mlo_layout.Layout.t list) ->
  Mlo_ir.Program.t ->
  t
(** Extracts the network.

    [candidates] supplies additional domain layouts per array (beyond the
    demanded ones and the row-major default) — the candidate palette an
    implementation enumerates per array; defaults to none.  Layouts of
    the wrong rank are ignored.

    Restructurings that demand a layout for only one array of a
    co-accessed pair constrain only that side: the other side is
    wildcarded over its {e meaningful} layouts — everything any
    restructuring of any nest demands of it, plus its default — because
    under that restructuring any of those choices is equally good.  A
    restructuring demanding nothing for either array of a pair allows
    any combination of their meaningful layouts.  Padding layouts
    supplied only through [candidates] therefore never appear in any
    allowed pair: they enlarge the search space without ever being part
    of a solution of a constrained variable.

    With [relax] (default false) every constraint additionally allows the
    (row-major, row-major) compromise pair, guaranteeing satisfiability at
    the cost of admitting choices no restructuring asked for.  Arrays
    appearing in no constraint still get a variable (their assignment is
    free). *)

val weighted :
  ?relax:bool ->
  ?candidates:(string -> Mlo_layout.Layout.t list) ->
  Mlo_ir.Program.t ->
  t * Mlo_layout.Layout.t Mlo_csp.Weighted.t
(** Like {!build}, and additionally weights every allowed pair by the
    total cost ({!Mlo_ir.Cost.nest_cost}) of the nests whose restructurings
    proposed it — the paper's first future-work extension.  Wildcarded
    pairs get the same nest weight as demanded ones. *)

val var_of_array : t -> string -> int
(** Network variable index of an array.  Raises [Not_found]. *)

val assignment_layouts : t -> int array -> (string * Mlo_layout.Layout.t) list
(** Decodes a solver assignment into per-array layouts, declaration
    order. *)

val lookup : t -> int array -> string -> Mlo_layout.Layout.t option
(** [lookup t assignment name] is the layout the assignment gives to
    [name] ([None] if the name is unknown). *)

val components : t -> string array array
(** Connected components of the extracted network's constraint graph,
    as array names ({!Mlo_csp.Network.components} decoded through the
    variable map).  Arrays in different components never co-occur in a
    constraining nest, so their layouts are chosen independently;
    singleton components are arrays whose assignment is free. *)
