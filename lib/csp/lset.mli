(** Sets of search levels as word masks, stored as rows of a flat int
    matrix (one allocation per solve, not one per level).

    Every operation takes the backing array, the row's word offset, and —
    where the row extent matters — the per-row word count [lw].  The
    search kernel ({!Solver.run}) touches these on every node, in every
    mode that jumps, and its most-constraining queue keeps one row of
    variable ranks per count of unassigned neighbours: same set
    semantics as an [Int_set], no allocation.  Rows are
    [words n] ints for level universe [0 .. n-1]. *)

val bits : int
(** Members per word (63: the OCaml int payload). *)

val words : int -> int
(** Words per row for a universe of [n] levels (at least 1). *)

val make_mat : int -> int -> int array
(** [make_mat rows n] allocates a zeroed matrix of [rows] rows over the
    level universe [0 .. n-1]. *)

val clear : int array -> int -> int -> unit
(** [clear s off lw] empties the row at word offset [off]. *)

val add : int array -> int -> int -> unit
(** [add s off l] inserts level [l]. *)

val remove : int array -> int -> int -> unit

val copy : int array -> int -> int array -> int -> int -> unit
(** [copy src soff dst doff lw] overwrites the destination row. *)

val union_below : int array -> int -> int array -> int -> int -> int -> unit
(** [union_below src soff dst doff limit lw] is
    [dst := dst U (src /\ [0, limit))]. *)

val keep_below : int array -> int -> int -> int -> unit
(** [keep_below s off limit lw] drops members [>= limit] in place. *)

val max_elt : int array -> int -> int -> int
(** Highest member of the row, or [-1] when empty. *)

val min_elt : int array -> int -> int -> int
(** Lowest member of the row, or [-1] when empty. *)

val next_elt : int array -> int -> int -> int -> int
(** [next_elt s off lw l] is the lowest member [>= l], or [-1] when
    there is none: with {!min_elt}, an ascending walk over the row that
    builds no closure. *)

val iter : (int -> unit) -> int array -> int -> int -> unit
(** [iter f s off lw] applies [f] to every member, ascending. *)
