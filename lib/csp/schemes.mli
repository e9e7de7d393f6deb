(** The paper's named solver configurations (Section 4 / Section 5).

    The {e base scheme} makes all three decisions randomly / naively:
    random variable selection, random value selection, chronological
    backtracking.  The {e enhanced scheme} replaces all three: the
    most-constraining variable is instantiated first, values are tried in
    least-constraining order, and dead-ends backjump along the constraint
    graph.  The three intermediate schemes used for Figure 4 enable one
    improvement at a time. *)

val base : ?seed:int -> ?max_checks:int -> unit -> Solver.config
val enhanced : ?seed:int -> ?max_checks:int -> unit -> Solver.config

val base_plus_variable_selection :
  ?seed:int -> ?max_checks:int -> unit -> Solver.config
(** Base scheme with only the variable-selection improvement. *)

val base_plus_value_selection :
  ?seed:int -> ?max_checks:int -> unit -> Solver.config
(** Base scheme with only the value-selection improvement. *)

val base_plus_backjumping :
  ?seed:int -> ?max_checks:int -> unit -> Solver.config
(** Base scheme with only backjumping. *)

val enhanced_with_ac : ?seed:int -> ?max_checks:int -> unit -> Solver.config
(** Enhanced scheme with AC-2001 arc-consistency preprocessing
    ({!Solver.preprocess}): every domain the search and its heuristics
    range over is first reduced to its arc-consistent core. *)

type ablation = {
  label : string;
  config : Solver.config;
}

val figure4_schemes : ?seed:int -> ?max_checks:int -> unit -> ablation list
(** The three single-improvement schemes, in the paper's Figure 4 order:
    variable selection, value selection, backjumping. *)

val extension_schemes : ?seed:int -> ?max_checks:int -> unit -> ablation list
(** Beyond the paper: enhanced scheme with conflict-directed backjumping,
    with forward checking, and with AC-2001 preprocessing. *)

val most_constraining_order : 'a Network.t -> int array
(** The static variable order the enhanced scheme's most-constraining
    rule follows when the search never backtracks: the kernel's own
    queue ({!Solver.Selection}) over full domains, each pick assigned
    before the next, in time linear in the variables, their degrees and
    the largest domain.  On a network whose relations allow every
    pair, it is the order in which the enhanced search's [decision]
    trace instants name the variables.  This is the ordering
    {!Mlo_analysis.Netcheck} measures width and induced width along
    (Freuder's backtrack-free condition). *)

val breakdown :
  base_checks:int -> enhanced_checks:int -> single:(string * int) list ->
  (string * float) list
(** Figure-4 arithmetic: given the base cost, the all-enhancements cost
    and each single-improvement cost (same units), attribute the total
    saving [base - enhanced] to the individual improvements
    proportionally to their individual savings [base - single_i], clamped
    at zero.  Returns (label, fraction) summing to 1 when any saving
    exists. *)
