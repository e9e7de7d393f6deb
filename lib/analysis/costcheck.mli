(** Cross-check of the static locality analyzer against the exact
    simulator: a standing regression tripwire for both.

    For each target program the closed-form L1 miss estimate
    ({!Locality.analyze}) is compared against the ground truth of
    {!Mlo_cachesim.Simulate.run}, both on the paper's hierarchy
    ({!Mlo_cachesim.Hierarchy.paper_config}); a relative error
    beyond the threshold is an [Error]-severity {!Diagnostic} (so the
    shared exit-code contract turns it into a failing CI step), and the
    per-target numbers are kept for display either way.  Run it at small
    (simulation) array sizes — the point is a fast, exact oracle. *)

type target = {
  ct_name : string;
  ct_program : Mlo_ir.Program.t;
  ct_layouts : string -> Mlo_layout.Layout.t option;
}

type entry = {
  ce_name : string;
  ce_estimated : float;  (** static L1 miss estimate *)
  ce_simulated : int;  (** simulated L1 misses *)
  ce_error : float;  (** [|est - sim| / max 1 sim] *)
}

type report = {
  cr_entries : entry list;  (** in target order *)
  cr_threshold : float;
  cr_diagnostics : Diagnostic.t list;  (** sorted, {!Diagnostic.sort} *)
}

val default_threshold : float
(** 0.15 — the repo's acceptance bound for the five suite benchmarks. *)

val run : ?threshold:float -> target list -> report
(** Estimate and simulate every target on
    {!Mlo_cachesim.Hierarchy.paper_config}; the estimate uses its L1
    geometry. *)

val pp : Format.formatter -> report -> unit
val to_json : report -> Mlo_obs.Json.t
