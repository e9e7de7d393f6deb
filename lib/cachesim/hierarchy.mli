(** Two-level data-cache hierarchy with fixed latencies: its
    configuration and the counters a simulation reports.

    Models the paper's evaluation platform: an embedded processor with an
    8KB 2-way L1 data cache (32-byte lines), a unified 64KB 4-way L2
    (64-byte lines), and latencies of 1, 6 and 70 cycles for L1, L2 and
    main memory.  Each data access costs the latency of the level that
    services it (L1 always probed, then L2, then memory).  The simulated
    hierarchy is {!Compiled_trace.machine}. *)

type config = {
  l1 : Cache.geometry;
  l2 : Cache.geometry;
  l1_latency : int;
  l2_latency : int;
  memory_latency : int;
  compute_cycles_per_access : int;
      (** fixed pipeline cost charged per reference, covering address
          arithmetic and the ALU work of the 2-issue core; keeps the
          simulated "execution time" from being memory-only *)
}

val paper_config : config
(** The machine of the paper's Section 5. *)

type counters = {
  accesses : int;
  l1_hits : int;
  l1_misses : int;
  l2_hits : int;
  l2_misses : int;
  cycles : int;
}

val l1_miss_rate : counters -> float
val l2_miss_rate : counters -> float
(** L2 misses per L2 access (i.e. per L1 miss); 0 when L2 is idle. *)

val pp_counters : Format.formatter -> counters -> unit
