(** Arc consistency with last-support memoization (AC-2001/3.1), running
    on the compiled network view.

    Used by {!Solver} for optional preprocessing, and through
    {!deletions} by the analyzer and the certificate writer.  Computes
    the same (unique) arc-consistency closure as AC-3 (the test oracle
    [Mlo_oracle.Ac3]), but each revision re-checks one remembered
    support bit instead of re-scanning the neighbour domain, and
    replacement supports are found by word-parallel row scans. *)

val run : Compiled.t -> (Bitset.t array, int) result
(** [run comp] is [Ok domains] (arc-consistent, all non-empty) or
    [Error i] when variable [i]'s domain wiped out (no solution). *)

val deletions : Compiled.t -> ((int * int) list, int) result
(** [deletions comp] is [Ok dels], every [(variable, value)] pair {!run}
    removes, in ascending order, or [Error i] when variable [i]'s domain
    wiped out.  The one listing [layoutopt analyze] reports and the
    enhanced-ac certificate's [Del] steps state. *)
