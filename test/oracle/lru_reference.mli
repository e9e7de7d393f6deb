(** The timestamp LRU hierarchy, kept as the oracle of
    {!Mlo_cachesim.Compiled_trace.machine}.

    Every cache way carries the clock of its last use; a miss evicts the
    way with the oldest stamp (an invalid way first).  It must count the
    same hits, misses and cycles as the shipped machine, whose sets keep
    their ways in recency order instead. *)

type t

val create : Mlo_cachesim.Hierarchy.config -> t
(** A cold hierarchy: every way invalid, every counter zero. *)

val access : t -> int -> unit
(** [access t addr] probes L1, then L2 on an L1 miss, filling the line
    into each level that missed, and charges the latency of the level
    that served it plus the compute cycles. *)

val counters : t -> Mlo_cachesim.Hierarchy.counters
