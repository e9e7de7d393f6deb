(** Loop-restructuring variants derived the direct way, the oracle for
    {!Mlo_layout.Nest_summary}.

    Each dependence-legal loop order of a nest is applied with
    {!Mlo_ir.Loop_nest.permute}, and every referenced array gets the
    layout that best serves the permuted nest's accesses to it.  The
    summary derives the same facts from one innermost column per
    access, without permuting. *)

type t = {
  perm : int array;  (** permutation applied (new depth -> old depth) *)
  nest : Mlo_ir.Loop_nest.t;  (** the restructured nest *)
}

val of_nest : Mlo_ir.Loop_nest.t -> t list
(** Dependence-legal restructurings, identity first
    (see {!Mlo_ir.Dependence.legal_permutations}). *)

val demanded_layout :
  Mlo_ir.Loop_nest.t -> string -> Mlo_layout.Layout.t option
(** [demanded_layout nest name] is the best layout for array [name] under
    the nest's {e current} loop order: the candidate layout maximizing the
    summed locality score of the nest's references to the array.  [None]
    if the nest does not reference the array or no reference constrains
    the layout (pure temporal reuse). *)

val layouts_for : t -> (string * Mlo_layout.Layout.t) list
(** Demanded layouts for every array the variant's nest references (arrays
    with no layout demand omitted), in first-touch order. *)

val nest_score :
  (string -> Mlo_layout.Layout.t option) -> Mlo_ir.Loop_nest.t -> int
(** Sum of {!Mlo_layout.Locality.score} over the nest's references,
    given a partial layout assignment by array name (unassigned arrays
    contribute 0). *)

val best_variant :
  Mlo_ir.Loop_nest.t -> (string -> Mlo_layout.Layout.t option) -> t
(** The legal restructuring whose accesses score best under the layouts
    given by the lookup; ties favour the original loop order. *)
