module Cache = Mlo_cachesim.Cache
module Hierarchy = Mlo_cachesim.Hierarchy

(* One cache level: per slot a tag and the clock of its last use. *)
type cache = {
  line_shift : int;
  set_shift : int; (* log2 num_sets *)
  set_mask : int; (* num_sets - 1 *)
  assoc : int;
  tags : int array; (* num_sets * assoc; -1 = invalid *)
  stamps : int array; (* LRU timestamps, parallel to tags *)
  mutable clock : int;
  mutable hits : int;
  mutable misses : int;
}

let log2 x =
  let rec go acc v = if v <= 1 then acc else go (acc + 1) (v lsr 1) in
  go 0 x

let cache (geom : Cache.geometry) =
  let num_sets = geom.size_bytes / (geom.assoc * geom.line_bytes) in
  {
    line_shift = log2 geom.line_bytes;
    set_shift = log2 num_sets;
    set_mask = num_sets - 1;
    assoc = geom.assoc;
    tags = Array.make (num_sets * geom.assoc) (-1);
    stamps = Array.make (num_sets * geom.assoc) 0;
    clock = 0;
    hits = 0;
    misses = 0;
  }

(* The hit slot of [tag] in the set at [base], or -1 on a miss. *)
let probe c base tag =
  let rec go w =
    if w >= c.assoc then -1
    else if c.tags.(base + w) = tag then base + w
    else go (w + 1)
  in
  go 0

(* True on a hit.  A miss fills the way with the oldest stamp, which is
   an invalid way (stamp 0) while the set has one. *)
let cache_access c addr =
  let line = addr lsr c.line_shift in
  let base = (line land c.set_mask) * c.assoc in
  let tag = line lsr c.set_shift in
  c.clock <- c.clock + 1;
  let slot = probe c base tag in
  if slot >= 0 then begin
    c.stamps.(slot) <- c.clock;
    c.hits <- c.hits + 1;
    true
  end
  else begin
    c.misses <- c.misses + 1;
    let victim = ref base in
    for w = 1 to c.assoc - 1 do
      if c.stamps.(base + w) < c.stamps.(!victim) then victim := base + w
    done;
    c.tags.(!victim) <- tag;
    c.stamps.(!victim) <- c.clock;
    false
  end

type t = {
  config : Hierarchy.config;
  l1 : cache;
  l2 : cache;
  mutable cycles : int;
}

let create (config : Hierarchy.config) =
  { config; l1 = cache config.l1; l2 = cache config.l2; cycles = 0 }

let access t addr =
  let c = t.config in
  let latency =
    if cache_access t.l1 addr then c.l1_latency
    else if cache_access t.l2 addr then c.l1_latency + c.l2_latency
    else c.l1_latency + c.l2_latency + c.memory_latency
  in
  t.cycles <- t.cycles + latency + c.compute_cycles_per_access

let counters t =
  {
    Hierarchy.accesses = t.l1.hits + t.l1.misses;
    l1_hits = t.l1.hits;
    l1_misses = t.l1.misses;
    l2_hits = t.l2.hits;
    l2_misses = t.l2.misses;
    cycles = t.cycles;
  }
