(** Search-effort counters, one record per {!Solver.run} (summed over
    components by {!Solver.component_driver}).

    Consistency checks are the machine-independent proxy for the paper's
    Table 2 solution times; monotonic wall-clock seconds are also
    recorded when the search is timed.  Every mode of the kernel
    counts the same way, and the learning modes add one check per
    assignment propagated through the nogood store.

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
      (** nogoods recorded by the learning modes ({!Cdl}, {!Bnb}); 0 for
          the paper's schemes *)
  mutable forgotten : int;  (** learned nogoods dropped by store reduction *)
  mutable restarts : int;  (** Luby restarts taken by {!Cdl} *)
  mutable bounded : int;
      (** subtrees cut by the branch-and-bound lower bound ({!Bnb}); 0
          for the satisfiability-only schemes *)
  mutable incumbents : int;
      (** strict incumbent improvements recorded by {!Bnb} (the first
          solution found counts as one) *)
  mutable max_depth : int;  (** deepest consistent partial instantiation *)
  mutable elapsed_s : float;
      (** monotonic wall-clock seconds ({!Clock.wall_s}), if timed *)
  mutable cut : bool;
      (** the check budget stopped a {!Cdl} / {!Bnb} search: a solution
          it returns is the best found, not a proven optimum *)
}

val create : unit -> t

val pp : Format.formatter -> t -> unit
