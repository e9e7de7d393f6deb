(** Per-nest dependence summaries (the [layoutopt deps] report).

    Runs the exact dependence analysis ({!Mlo_ir.Dependence}) over every
    nest of a program and reports, per conflicting reference pair, the
    proven verdict: independence, the exact distance vectors, or the
    realized direction vectors — together with each nest's legal
    loop-order count and the Presburger engine's effort counters for the
    run (feasibility checks, eliminations, splinter case-splits and the
    deepest split nesting).  Each pair names the method that decided it
    ([closed-form] or [omega]), and the run counts its closed-form pairs,
    so a report with no Presburger checks explains itself. *)

type pair_report = {
  src : int;  (** body index of the first access of the pair *)
  dst : int;  (** body index of the second access ([src <= dst]) *)
  src_ref : string;  (** pretty-printed reference, e.g. ["Q1[i+1][j]"] *)
  dst_ref : string;
  src_write : bool;
  dst_write : bool;
  deps : Mlo_ir.Dependence.dep list;  (** [[]] = proven independent *)
  decided_by : Mlo_ir.Dependence.method_;
      (** closed form (uniform pair) or the Omega test *)
}

type nest_report = {
  nest : string;
  depth : int;
  pairs : pair_report list;  (** conflicting pairs, body order *)
  legal_orders : int;
  total_orders : int;
}

type t = {
  program : string;
  nests : nest_report list;
  closed_form_pairs : int;
      (** pairs decided without the Presburger engine this run *)
  checks : int;  (** Presburger feasibility/range probes this run *)
  eliminations : int;
  splits : int;
  max_split_depth : int;
}

val run : Mlo_ir.Program.t -> t
(** Analyzes every nest.  Emits one ["deps:analyze"] trace span
    (category ["analysis"]) and a ["presburger"] counter sample with the
    engine's effort when tracing is enabled. *)

val pinned : nest_report -> bool
(** Only the source loop order is legal (and alternatives exist). *)

val pp : Format.formatter -> t -> unit

val to_json : t -> Mlo_obs.Json.t
(** One target object of the [memlayout-deps/1] schema: fields
    [program], [nests] (with [pairs], [legal_orders], [total_orders],
    [pinned], per-pair [method] and per-dep [kind]/[vector]/[dirs]),
    [closed_form_pairs] and [presburger] (effort counters). *)
