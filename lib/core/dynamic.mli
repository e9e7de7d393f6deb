(** Dynamic memory layouts (the paper's second future-work item).

    "We would like to expand our constraint network formulation to
    accommodate dynamic memory layouts, i.e., layouts that can change
    during execution based on the requirements of the different segments
    of the program."

    A program is split into contiguous segments of nests.  Each segment's
    sub-program gets its own constraint network and layout assignment;
    between consecutive segments every array whose layout changes is
    physically remapped (each element read from the old placement and
    written to the new one, through the same simulated cache hierarchy
    the segments run on), so the profit of a better per-segment layout
    is weighed against real copy traffic. *)

type segment = { first_nest : int; last_nest : int }
(** Inclusive range of nest indices (program order). *)

val uniform_segments : Mlo_ir.Program.t -> int -> segment list
(** [uniform_segments prog k] splits the nests into [k] contiguous
    segments of near-equal count.  Raises [Invalid_argument] if [k] is
    not in [1 .. nests]. *)

val segment_program : Mlo_ir.Program.t -> segment -> Mlo_ir.Program.t
(** The sub-program of one segment (all arrays declared, only the
    segment's nests).  Raises [Invalid_argument] on an out-of-range or
    empty segment. *)

type plan = {
  segments : segment list;
  per_segment : (string * Mlo_layout.Layout.t) list list;
      (** layout assignment per segment, same order as [segments] *)
  changes : (int * string) list;
      (** (segment index, array) pairs where a remap happens at the
          segment's entry *)
}

val plan :
  ?candidates:(string -> Mlo_layout.Layout.t list) ->
  ?max_checks:int ->
  seed:int ->
  Mlo_ir.Program.t ->
  segments:segment list ->
  plan
(** Solves each segment's network with the enhanced scheme.
    Raises {!Optimizer.No_solution} if some segment has none. *)

val optimal_segments :
  ?candidates:(string -> Mlo_layout.Layout.t list) ->
  ?max_checks:int ->
  ?change_cost:float ->
  seed:int ->
  Mlo_ir.Program.t ->
  segment list
(** Chooses segment boundaries by dynamic programming over a static cost
    model: each candidate segment is scored by how much locality its own
    enhanced-scheme layouts leave on the table (unserved references
    weighted by trip count), and each boundary pays [change_cost] cycles
    per element of every array whose layout changes (default 10.0,
    roughly one L1-miss round trip per copied element).  Exact under the
    model; O(nests^3) segment solves, so intended for programs with at
    most a few dozen nests (raises [Invalid_argument] above 32 nests).
    Feed the result to {!plan} / {!simulate_plan}. *)

type report = {
  compute : Mlo_cachesim.Hierarchy.counters;
      (** all traffic: segment execution plus remap copies *)
  copy_accesses : int;  (** accesses attributable to remapping *)
  remaps : int;  (** number of array remaps performed *)
}

val simulate_plan : Mlo_ir.Program.t -> plan -> report
(** Runs the segments through one persistent
    {!Mlo_cachesim.Compiled_trace.machine} of
    {!Mlo_cachesim.Hierarchy.paper_config}, performing the remap copies
    between segments.  Each segment's nests run in their best legal loop
    order for that segment's layouts, as one compiled trace. *)
