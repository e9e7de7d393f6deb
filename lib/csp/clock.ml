(* Time source for solver statistics and experiment timings.

   A direct clock_gettime(2) stub returning integer nanoseconds (lib/obs's,
   which also times trace events), so a read is one vdso-backed call and
   no allocation.  CLOCK_MONOTONIC is the same source as bechamel's
   monotonic-clock instance, so solver-reported times and
   micro-benchmark numbers are directly comparable. *)

external wall_ns : unit -> int = "mlo_obs_monotonic_ns" [@@noalloc]

let wall_s () = float_of_int (wall_ns ()) *. 1e-9
