(** Human-readable account of an optimization result.

    For every nest of the optimized program: the loop order chosen, and
    for every reference whether the chosen layouts give it temporal
    reuse, spatial locality, or nothing (with the data-space stride that
    explains why).  This is the report a compiler writer reads to trust
    the tool's decision — and what the CLI's [--explain] prints. *)

type ref_quality =
  | Temporal  (** innermost-invariant: served by any layout *)
  | Spatial  (** successive iterations stay in one storage line *)
  | Unserved of Mlo_linalg.Intvec.t
      (** the data-space stride no layout hyperplane absorbs *)

type ref_report = {
  array_name : string;
  kind : Mlo_ir.Access.kind;
  quality : ref_quality;
}

type nest_report = {
  nest_name : string;
  loop_order : string list;  (** outermost first, after restructuring *)
  interchanged : bool;  (** loop order differs from the source order *)
  refs : ref_report list;
  trip_count : int;
}

type t = {
  layouts : (string * Mlo_layout.Layout.t) list;
  nests : nest_report list;
  served_fraction : float;
      (** trip-weighted share of references with temporal or spatial
          quality *)
}

val explain : Mlo_ir.Program.t -> Optimizer.solution -> t
(** [explain original solution] compares the original program with the
    solution's restructured one. *)

val pp : Format.formatter -> t -> unit
