(** Arc consistency with last-support memoization (AC-2001/3.1), running
    on the compiled network view.

    Used by {!Solver} for optional preprocessing, and through
    {!deletions} by the analyzer.  Computes
    the same (unique) arc-consistency closure as AC-3 (the test oracle
    [Mlo_oracle.Ac3]), but each revision re-checks one remembered
    support bit instead of re-scanning the neighbour domain, and
    replacement supports are found by word-parallel row scans. *)

val run : Compiled.t -> (Bitset.t array, int) result
(** [run comp] is [Ok domains] (arc-consistent, all non-empty) or
    [Error i] when variable [i]'s domain wiped out (no solution). *)

val removed : Compiled.t -> Bitset.t array -> (int * int) list
(** [removed comp domains] lists every [(variable, value)] pair of
    [comp] missing from [domains], in ascending order: the one listing
    of what {!run} deleted, which {!deletions} and the search kernel's
    [arc_deleted] ({!Solver.result}) both read. *)

val deletions : Compiled.t -> ((int * int) list, int) result
(** [deletions comp] is [Ok dels], every [(variable, value)] pair {!run}
    removes ({!removed}), or [Error i] when variable [i]'s domain wiped
    out.  The listing [layoutopt analyze] reports. *)
