(** Search-effort counters.

    Consistency checks are the machine-independent proxy for the paper's
    Table 2 solution times; both monotonic wall-clock and CPU seconds are
    also recorded when the search is timed.

    On the compiled solver core a "check" is one support-row lookup:
    under no lookahead that is exactly one binary consistency check, as
    before; under forward checking one row lookup prunes a whole
    neighbour domain word-parallel, so [checks] counts row fetches rather
    than the per-value probes the byte-at-a-time implementation
    performed (the test oracle [Mlo_oracle.Solver_reference] retains the
    historical accounting). *)

type t = {
  mutable nodes : int;  (** variable instantiations attempted *)
  mutable checks : int;  (** support-row lookups / consistency checks *)
  mutable backtracks : int;  (** chronological backward steps *)
  mutable backjumps : int;  (** non-chronological backward steps *)
  mutable prunings : int;  (** domain values removed by lookahead *)
  mutable learned : int;
      (** nogoods recorded by the conflict-driven scheme ({!Cdl}); 0 for
          the non-learning schemes *)
  mutable forgotten : int;  (** learned nogoods dropped by store reduction *)
  mutable restarts : int;  (** Luby restarts taken by the search *)
  mutable bounded : int;
      (** subtrees cut by the branch-and-bound lower bound ({!Bnb}); 0
          for the satisfiability-only schemes *)
  mutable incumbents : int;
      (** strict incumbent improvements recorded by {!Bnb} (the first
          solution found counts as one) *)
  mutable max_depth : int;  (** deepest consistent partial instantiation *)
  mutable elapsed_s : float;
      (** monotonic wall-clock seconds ({!Clock.wall_s}), if timed *)
  mutable cpu_s : float;  (** process CPU seconds ({!Clock.cpu_s}) *)
  mutable nodes_by_depth : int array;
      (** instantiation attempts per search level ([[||]] until
          {!ensure_hists}; filled by the compiled engine only — the
          reference engine [Mlo_oracle.Solver_reference] predates the
          histograms and is kept as the unmodified oracle) *)
  mutable nodes_by_var : int array;
      (** instantiation attempts per variable index (same caveats) *)
  mutable cut : bool;
      (** the check budget or a cancel stopped a {!Cdl} / {!Bnb} search:
          a solution it returns is the best found, not a proven optimum *)
}

val create : unit -> t
val reset : t -> unit

val ensure_hists : t -> int -> unit
(** Size both histograms to at least [n] slots, preserving contents, so
    the recorder can bump unguarded. *)

val add : t -> t -> t
(** Componentwise sum (elapsed times add too, histograms merge
    slot-wise at the longer length, [cut] is either's); inputs
    unchanged. *)

val to_json : t -> Mlo_obs.Json.t
(** All counters plus both histograms as a flat JSON object (stable
    keys: the scalar field names, [nodes_by_depth], [nodes_by_var]). *)

val pp : Format.formatter -> t -> unit
