(** Learned-nogood store with watched-value propagation.

    A nogood is a set of [(variable, value)] literals recording that no
    solution of the network holds all of them simultaneously.  The
    learning modes of the search kernel ({!Solver.run}'s [Satisfy] and
    [Minimize], behind {!Cdl} and {!Bnb}) derive one from every dead end
    — the assignments at the levels of the conflict set the backjumper
    already computes — and feed assignments back through {!on_assign} so
    earlier conflicts prune later subtrees.  The kernel builds a store
    only in those modes.

    {2 Watched values}

    Each stored nogood watches two of its literals.  A literal is {e
    held} when its variable is currently assigned its value; the store
    only needs to react when a watched literal becomes held, so
    {!on_assign} walks just the nogoods watching [(var, value)].  Each
    one first tries to move the fired watch to another non-held literal;
    when none exists every literal but the second watch is held, and the
    nogood forces that last value out of its variable's candidate set (a
    propagation, blamed on the levels of all held literals via the
    [prune] callback) or — if the second watch is held too — reports the
    nogood violated outright.  Watches never need maintenance on
    backtracking or restarts: unassignment only un-holds literals.

    Missing a propagation is sound (nogoods only prune redundant search;
    the engine's own consistency checks still reject every non-solution),
    so the store is free to stop scanning early and to forget nogoods.

    {2 Unit nogoods and forgetting}

    Single-literal nogoods are globally sound value bans kept outside the
    watch store as per-variable bitsets ({!banned}) and are never
    forgotten.  The watched store is bounded: when learning would exceed
    the limit it drops the worst half — largest literal count first
    (a nogood's literal count equals its LBD here: conflict sets hold one
    literal per level), ties broken by lowest activity, binaries last —
    so {!size} never exceeds the limit. *)

type t

val create : ?limit:int -> Compiled.t -> t
(** Empty store over the compiled network's variables and value indices.
    [limit] bounds the number of watched (size >= 2) nogoods retained
    (default 4000; clamped to at least 2). *)

(** Outcome of {!on_assign}. *)
type event =
  | Quiet  (** no wipeout, no violation *)
  | Wiped of int
      (** propagation emptied this variable's candidate set (the [prune]
          callback returned [true]) *)
  | Violated of int
      (** every literal of this nogood is held; the holder's levels are a
          conflict set ({!iter_lits}) *)

val learn :
  t -> n:int -> vars:int array -> vals:int array -> levels:int array -> unit
(** Record the nogood formed by the first [n] entries of [vars]/[vals]
    (copied; caller keeps ownership).  [levels] gives each literal's
    assignment level at learn time: the two deepest become the initial
    watches, so the watches go non-held as soon as the engine backjumps.
    [n = 1] records a permanent ban instead; [n = 0] is a caller error
    (an empty conflict set means unsatisfiable — handle it before
    learning).  May trigger a reduction to stay within the store limit. *)

val on_assign :
  t ->
  var:int ->
  value:int ->
  held:(int -> int -> bool) ->
  prune:(int -> var:int -> value:int -> bool) ->
  event
(** Propagate the assignment [var := value] through the nogoods watching
    that literal.  [held v w] must say whether variable [v] is currently
    assigned value [w] (the just-made assignment included).  [prune id
    ~var ~value] must remove [value] from [var]'s candidate set, blaming
    the levels of the held literals of nogood [id] (walk them with
    {!iter_lits}), and return whether the candidate set wiped out.  The
    store cannot see candidate sets: the callback must itself skip (and
    return [false] for) variables that are assigned or whose set no
    longer contains the value.  The whole watch list is scanned; a
    violation outranks a wipeout in the returned event. *)

val iter_lits : t -> int -> (int -> int -> unit) -> unit
(** [iter_lits t id f] applies [f var value] to every literal of the
    stored nogood [id] (valid inside the {!on_assign} callbacks and for
    the id of a {!event} just returned). *)

val banned : t -> int -> int -> bool
(** [banned t var value] holds after a unit nogood on [(var, value)]. *)

val ban : t -> var:int -> value:int -> unit
(** Record a unit nogood directly (counted as learned). *)

val decay : t -> unit
(** Geometrically decay all nogood activities (by scaling the bump
    increment, VSIDS-style; rescales on overflow). *)

val reduce : t -> limit:int -> unit
(** Forget watched nogoods down to at most [limit] (largest first, ties
    by lowest activity, binaries last), rebuilding the watch lists.  The
    engine calls this at restart boundaries. *)

val size : t -> int
(** Watched nogoods currently stored (bans excluded). *)

val learned : t -> int
(** Total nogoods ever learned (bans included). *)

val forgotten : t -> int
(** Total nogoods dropped by reductions. *)
