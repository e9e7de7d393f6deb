(** Time source for solver statistics and experiment timings. *)

val wall_ns : unit -> int
(** Monotonic wall-clock nanoseconds (CLOCK_MONOTONIC, arbitrary origin
    — meaningful only as differences).  Allocation-free. *)

val wall_s : unit -> float
(** [wall_ns] in seconds.  Same source as the bechamel monotonic-clock
    instance, so solver times and bench numbers are comparable. *)
