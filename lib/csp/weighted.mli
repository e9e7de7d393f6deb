(** Weighted constraint networks (the paper's first future-work item).

    "We would like to give weights to constraints.  This will help us
    distinguish between different solutions to a given network."  Each
    allowed value pair of each constraint carries a non-negative weight
    (the layout pipeline uses the cost of the nests that proposed the
    pair); the goal becomes finding the consistent complete assignment of
    maximum total weight, found here by depth-first branch-and-bound with
    an admissible per-constraint upper bound. *)

type 'a t

val create : 'a Network.t -> 'a t
(** Wraps a network; all allowed pairs start with weight 0.  The wrapped
    network is shared, not copied: hard constraints added later are
    seen. *)

val network : 'a t -> 'a Network.t

val set_weight : 'a t -> int -> int -> int -> int -> float -> unit
(** [set_weight t i vi j vj w] sets the weight of the pair.  Weights are
    meaningful only for allowed pairs of constrained variable pairs.
    Raises [Invalid_argument] if [w < 0], [i = j], or the pair of
    variables is unconstrained. *)

val add_weight : 'a t -> int -> int -> int -> int -> float -> unit
(** Accumulating variant of {!set_weight}. *)

val weight : 'a t -> int -> int -> int -> int -> float

val assignment_weight : 'a t -> int array -> float
(** Total weight of a complete assignment over all constrained pairs.
    The assignment need not be consistent; inconsistent pairs contribute
    their stored weight (0 unless explicitly set). *)

type result = {
  best : (int array * float) option;
      (** maximum-weight consistent assignment, if any *)
  nodes : int;  (** branch-and-bound nodes explored *)
}

val solve : ?max_nodes:int -> 'a t -> result
(** Exact branch-and-bound maximization.  [max_nodes] bounds the search
    (the incumbent found so far is still returned, flagged by [nodes]
    reaching the limit). *)
