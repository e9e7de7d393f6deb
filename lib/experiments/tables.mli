(** Regeneration of every table and figure of the paper's evaluation.

    Each [run_*] function measures this implementation on the synthetic
    benchmark suite and returns structured rows carrying both the
    published value and the measured one; [print_*] renders them in the
    paper's layout.  Absolute values differ from the paper (different
    machines, different decade); the claims being reproduced are the
    orderings and rough ratios — see EXPERIMENTS.md. *)

(** {1 Table 1 — benchmark codes} *)

type table1_row = {
  t1_name : string;
  description : string;
  domain_size : int;  (** measured: total network domain size *)
  paper_domain_size : int;
  data_kb : float;  (** measured *)
  paper_data_kb : float;
}

val run_table1 : unit -> table1_row list
val print_table1 : Format.formatter -> table1_row list -> unit

(** {1 Table 2 — solution times} *)

type effort = {
  work : int;  (** heuristic: combinations scored; solvers: checks *)
  seconds : float;
  capped : bool;  (** the check budget was exhausted *)
}

type table2_row = {
  t2_name : string;
  heuristic : effort;
  base : effort;
  enhanced : effort;
  t2_pruned : int;
      (** values removed by dominance pruning (0 unless requested) *)
  paper : Mlo_workloads.Spec.solution_times;
}

val run_table2 :
  ?seed:int -> ?max_checks:int -> ?prune_dominated:bool -> unit -> table2_row list
(** [max_checks] (default [2_000_000_000]) bounds the base scheme on
    networks where random chronological backtracking degenerates.
    [prune_dominated] (default [false]) applies
    {!Mlo_netgen.Prune.apply} to every network before the solver runs;
    the heuristic column is unaffected (it never sees the network). *)

val print_table2 : Format.formatter -> table2_row list -> unit

(** {1 Figure 4 — breakdown of enhanced-scheme benefits} *)

type fig4_row = {
  f4_name : string;
  shares : (string * float) list;
      (** fraction of the base-to-enhanced saving attributed to each
          single improvement, in the paper's legend order *)
}

val run_fig4 : ?seed:int -> ?max_checks:int -> unit -> fig4_row list
val print_fig4 : Format.formatter -> fig4_row list -> unit

(** {1 Table 3 — execution times of the optimized codes} *)

type table3_row = {
  t3_name : string;
  original_cycles : int;
  heuristic_cycles : int;
  base_cycles : int;
  enhanced_cycles : int;
  paper : Mlo_workloads.Spec.exec_times;
}

val run_table3 : ?seed:int -> ?max_checks:int -> unit -> table3_row list
(** Simulates each benchmark's [sim_program] in four versions: original
    (row-major, original loop order), heuristic, base-scheme and
    enhanced-scheme optimized. *)

val print_table3 : Format.formatter -> table3_row list -> unit

(** {1 Ablation — solver design choices beyond the paper} *)

type ablation_row = {
  ab_name : string;  (** benchmark *)
  per_scheme : (string * effort) list;
      (** work/time for: base, the three single improvements, enhanced,
          enhanced+CBJ, enhanced+FC, AC-2001-preprocessed enhanced, and
          min-conflicts local search (work = reassignment steps; capped
          means it got stuck) *)
}

val run_ablation : ?seed:int -> ?max_checks:int -> unit -> ablation_row list
val print_ablation : Format.formatter -> ablation_row list -> unit

val improvement : original:int -> int -> float
(** Percent cycle reduction relative to the original version. *)

val average_improvement : table3_row list -> (table3_row -> int) -> float
(** Average percent improvement of a version (selected by the accessor)
    over the original, across rows — the paper's "on average" summary. *)
