type config = {
  l1 : Cache.geometry;
  l2 : Cache.geometry;
  l1_latency : int;
  l2_latency : int;
  memory_latency : int;
  compute_cycles_per_access : int;
}

let paper_config =
  {
    l1 = Cache.geometry ~size_bytes:8192 ~assoc:2 ~line_bytes:32;
    l2 = Cache.geometry ~size_bytes:65536 ~assoc:4 ~line_bytes:64;
    l1_latency = 1;
    l2_latency = 6;
    memory_latency = 70;
    compute_cycles_per_access = 1;
  }

type counters = {
  accesses : int;
  l1_hits : int;
  l1_misses : int;
  l2_hits : int;
  l2_misses : int;
  cycles : int;
}

let l1_miss_rate c =
  if c.accesses = 0 then 0. else float_of_int c.l1_misses /. float_of_int c.accesses

let l2_miss_rate c =
  let probes = c.l2_hits + c.l2_misses in
  if probes = 0 then 0. else float_of_int c.l2_misses /. float_of_int probes

let pp_counters ppf c =
  Format.fprintf ppf
    "accesses=%d L1(h=%d m=%d %.2f%%) L2(h=%d m=%d %.2f%%) cycles=%d"
    c.accesses c.l1_hits c.l1_misses
    (100. *. l1_miss_rate c)
    c.l2_hits c.l2_misses
    (100. *. l2_miss_rate c)
    c.cycles
