(* Time sources for solver statistics and experiment timings.

   Both clocks are direct clock_gettime(2) stubs returning integer
   nanoseconds (lib/obs's, which also time trace events), so a read is
   one (vdso-backed, for CLOCK_MONOTONIC) call and no allocation —
   cheap enough to time every solve, including microsecond-scale ones.
   CLOCK_MONOTONIC is the same source as bechamel's monotonic-clock
   instance, so solver-reported times and micro-benchmark numbers are
   directly comparable. *)

external wall_ns : unit -> int = "mlo_obs_monotonic_ns" [@@noalloc]
external cpu_ns : unit -> int = "mlo_obs_cputime_ns" [@@noalloc]

let wall_s () = float_of_int (wall_ns ()) *. 1e-9
let cpu_s () = float_of_int (cpu_ns ()) *. 1e-9
