(** Compiled (dense) view of a binary constraint network.

    Produced by {!Network.compile_vars}, for a whole network or one of
    its components; consumed by the solver's hot path and AC-2001.
    Value-index based only — domain values stay behind in the network.
    Everything here is read-only and allocation-free:

    - an n x n matrix of directed constraint handles over the view's n
      variables, both orientations precomputed (no transposition on the
      hot path);
    - per (handle, value) support rows stored as int-word bitsets in the
      {!Bitset} word layout, enabling word-parallel pruning;
    - per (handle, value) precomputed support counts;
    - neighbour int arrays.

    The view is a snapshot: mutating the source network after compiling
    does not update it ({!Network.compile} re-compiles as needed). *)

type t

val make :
  dom_size:int array ->
  neighbors:int array array ->
  handle:int array ->
  rows:Bitset.row array array ->
  supcnt:int array array ->
  t
(** Assembles a view from its parts; used by {!Network.compile_vars},
    which guarantees their consistency.  [handle.((i * n) + j)] is the directed
    handle of the pair [(i, j)] or [-1]; [rows.(h).(vi)] the supports of
    [i = vi] over [j]'s domain; [supcnt] its popcounts. *)

val num_vars : t -> int
val domain_size : t -> int -> int

val neighbors : t -> int -> int array
(** Variables sharing a constraint with the given one, ascending.  The
    returned array is the view's own storage: do not mutate. *)

val degree : t -> int -> int

val handle : t -> int -> int -> int
(** Directed handle of the pair, or [-1] if unconstrained. *)

val constrained : t -> int -> int -> bool

val num_handles : t -> int
(** Number of directed handles (twice the number of constraints). *)

val row : t -> int -> int -> Bitset.row
(** [row t h vi] is the support row of value [vi] under directed handle
    [h] — a borrowed bitset over the target variable's domain (do not
    mutate). *)

val allowed : t -> int -> int -> int -> int -> bool
(** Same contract as {!Network.allowed}, in O(1). *)

val support_count : t -> int -> int -> int -> int
(** Same contract as {!Network.support_count}, in O(1). *)

val verify : t -> int array -> bool
(** Complete assignment check, mirroring {!Network.verify}. *)
