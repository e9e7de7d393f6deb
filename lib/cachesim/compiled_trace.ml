(* The trace-driven simulator's hot core: every access of a nest is an
   affine address stream, and the walk runs those streams through a
   flattened two-level hierarchy, the library's one cache model.  Its
   counters agree exactly with the timestamp LRU of the test oracle
   (test/oracle, driven by Simulate_reference), but the way that holds a
   line may differ: sets keep recency order, not a clock per way.
   Inside an innermost loop whose deltas all stay below the line size,
   each run of iterations on fixed lines is simulated up to its steady
   iteration and extrapolated from there (DESIGN.md Section 9). *)

module Program = Mlo_ir.Program
module Loop_nest = Mlo_ir.Loop_nest
module Access = Mlo_ir.Access
module Transform = Mlo_layout.Transform
module Trace = Mlo_obs.Trace
module Intvec = Mlo_linalg.Intvec

(* ------------------------------------------------------------------ *)
(* Skeleton: the layout-independent part of a compiled trace            *)
(* ------------------------------------------------------------------ *)

type skel_access = {
  sa_name : string;
  sa_matrix : int array array; (* rank rows x depth cols *)
  sa_offset : int array; (* rank *)
}

type skel_nest = {
  sn_name : string;
  sn_counts : int array; (* per-level trip count, outermost first *)
  sn_lows : int array; (* per-level lower bound *)
  sn_accesses : skel_access array;
}

type skeleton = {
  sk_nests : skel_nest array;
  sk_trips : int;
}

let skeleton prog =
  let nests =
    Array.map
      (fun nest ->
        let loops = Loop_nest.loops nest in
        {
          sn_name = Loop_nest.name nest;
          sn_counts = Array.map (fun l -> l.Loop_nest.hi - l.Loop_nest.lo) loops;
          sn_lows = Array.map (fun l -> l.Loop_nest.lo) loops;
          sn_accesses =
            Array.map
              (fun a ->
                {
                  sa_name = Access.array_name a;
                  sa_matrix = Access.matrix a;
                  sa_offset = Access.offset a;
                })
              (Loop_nest.accesses nest);
        })
      (Program.nests prog)
  in
  let trips =
    Array.fold_left
      (fun acc n -> acc + Array.fold_left ( * ) 1 n.sn_counts)
      0 nests
  in
  { sk_nests = nests; sk_trips = trips }

(* ------------------------------------------------------------------ *)
(* Compiled trace: affine address streams                               *)
(* ------------------------------------------------------------------ *)

type compiled_nest = {
  counts : int array; (* per-level trip count *)
  addr0 : int array; (* per access, byte address at the nest's lower corner *)
  deltas : int array array; (* deltas.(level).(access): byte increment *)
}

type t = {
  nests : compiled_nest array;
  amap : Address_map.t;
  trips : int;
  skel : skeleton; (* kept so the affine forms stay inspectable *)
}

type access_form = {
  form_array : string;
  form_addr0 : int; (* byte address at the nest's lower corner *)
  form_deltas : int array; (* per level, outermost first *)
}

type nest_form = {
  form_nest : string;
  form_counts : int array; (* per-level trip count, outermost first *)
  form_accesses : access_form array;
}

(* The affine fold of one access under its array's placement, whose
   transform's linear map ([Transform.linear_map]) is [(lin, c0)]:
     address(iter) = base + elem * (c0 + sum_j lin_j * (A_j . iter + off_j))
   collapses to addr0 + sum_level delta_level * (iter_level - low_level).
   Writes the per-level deltas into [deltas] and returns [addr0].  The
   fold is checked, and so are the lowest and highest addresses the nest
   reaches, [addr0] plus each level's negative or positive
   delta * (count - 1): no address of the nest wraps, or
   [Intvec.Overflow] names it.  Zero terms are skipped (most loops
   start at 0), since every profile query folds again. *)
let fold ~base ~elem ~lin ~c0 sn sa deltas =
  let depth = Array.length sn.sn_counts in
  let rank = Array.length sa.sa_offset in
  let cell0 = ref c0 in
  for j = 0 to rank - 1 do
    let row = sa.sa_matrix.(j) in
    let v = ref sa.sa_offset.(j) in
    for l = 0 to depth - 1 do
      if row.(l) <> 0 && sn.sn_lows.(l) <> 0 then
        v := Intvec.(!v +! (row.(l) *! sn.sn_lows.(l)))
    done;
    cell0 := Intvec.(!cell0 +! (lin.(j) *! !v))
  done;
  let addr0 = Intvec.(base +! (elem *! !cell0)) in
  let lo = ref addr0 and hi = ref addr0 in
  for l = 0 to depth - 1 do
    let d = ref 0 in
    for j = 0 to rank - 1 do
      let a = sa.sa_matrix.(j).(l) in
      if a <> 0 then d := Intvec.(!d +! (lin.(j) *! a))
    done;
    let delta = Intvec.(elem *! !d) in
    deltas.(l) <- delta;
    if delta <> 0 && sn.sn_counts.(l) > 1 then begin
      let span = Intvec.(delta *! (sn.sn_counts.(l) - 1)) in
      if span < 0 then lo := Intvec.(!lo +! span) else hi := Intvec.(!hi +! span)
    end
  done;
  addr0

let compile prog ~layouts =
  let skel = skeleton prog in
  Trace.with_span ~cat:"cachesim" "compile-trace" @@ fun () ->
  let amap = Address_map.build prog ~layouts in
  (* one scratch row of deltas, as deep as the deepest nest *)
  let d =
    Array.make
      (Array.fold_left (fun m sn -> max m (Array.length sn.sn_counts)) 0 skel.sk_nests)
      0
  in
  let nests =
    Array.map
      (fun sn ->
        let depth = Array.length sn.sn_counts in
        let na = Array.length sn.sn_accesses in
        let addr0 = Array.make na 0 in
        let deltas = Array.make_matrix depth na 0 in
        Array.iteri
          (fun k sa ->
            let lin, c0 =
              Transform.linear_map (Address_map.transform amap sa.sa_name)
            in
            addr0.(k) <-
              fold
                ~base:(Address_map.base amap sa.sa_name)
                ~elem:(Address_map.elem_size amap sa.sa_name)
                ~lin ~c0 sn sa d;
            for l = 0 to depth - 1 do
              deltas.(l).(k) <- d.(l)
            done)
          sn.sn_accesses;
        { counts = sn.sn_counts; addr0; deltas })
      skel.sk_nests
  in
  { nests; amap; trips = skel.sk_trips; skel }

let footprint_bytes t = Address_map.footprint_bytes t.amap
let trip_count t = t.trips

let forms t =
  Array.mapi
    (fun i cn ->
      let sn = t.skel.sk_nests.(i) in
      {
        form_nest = sn.sn_name;
        form_counts = Array.copy sn.sn_counts;
        form_accesses =
          Array.mapi
            (fun k sa ->
              {
                form_array = sa.sa_name;
                form_addr0 = cn.addr0.(k);
                form_deltas =
                  Array.init (Array.length cn.counts) (fun l -> cn.deltas.(l).(k));
              })
            sn.sn_accesses;
      })
    t.nests

(* One array's layout changed, everything else as compiled: only the
   listed accesses of that array are folded again, under its new
   transform, at its compiled base (a base depends only on the arrays
   declared before it). *)
let relayout t ~array_name ~transform ~nests ~accesses =
  let base = Address_map.base t.amap array_name in
  let elem = Address_map.elem_size t.amap array_name in
  let lin, c0 = Transform.linear_map transform in
  Array.mapi
    (fun j i ->
      let sn = t.skel.sk_nests.(i) in
      Array.map
        (fun k ->
          let sa = sn.sn_accesses.(k) in
          if not (String.equal sa.sa_name array_name) then
            invalid_arg "Compiled_trace.relayout: access of another array";
          let deltas = Array.make (Array.length sn.sn_counts) 0 in
          let addr0 = fold ~base ~elem ~lin ~c0 sn sa deltas in
          { form_array = array_name; form_addr0 = addr0; form_deltas = deltas })
        accesses.(j))
    nests

(* ------------------------------------------------------------------ *)
(* Flattened two-level hierarchy                                        *)
(* ------------------------------------------------------------------ *)

(* A Hierarchy.config as one record of flat arrays and ints, so a
   simulated access is shifts, masks and array reads with no
   cross-module calls and no allocation.  Each set keeps its ways in
   recency order, most recently used first, with invalid ways (-1) at
   the tail.  That is exact LRU with invalid ways filled first, the
   policy the test oracle implements with timestamps, so every hit, miss
   and cycle agrees (enforced by the equivalence properties in
   test/test_cachesim.ml); only the way that holds a line can differ,
   and no counter reads it.  The probe stays in this module so that it
   inlines into the walk's per-access loop. *)
type level = {
  tags : int array; (* per set, [assoc] tags most recent first *)
  line_shift : int;
  set_shift : int;
  set_mask : int;
  assoc : int;
  mutable hits : int;
  mutable misses : int;
}

type machine = {
  l1 : level;
  l2 : level;
  cost_l1 : int; (* L1 hit, compute included *)
  cost_l2 : int; (* L1 miss, L2 hit *)
  cost_mem : int; (* miss in both *)
  line_mask : int; (* the smaller of the two line sizes, minus one *)
  mutable cycles : int;
  mutable countdown : int; (* accesses left before the next trace sample *)
}

let log2 x =
  let rec go acc v = if v <= 1 then acc else go (acc + 1) (v lsr 1) in
  go 0 x

let make_level (g : Cache.geometry) =
  let num_sets = g.Cache.size_bytes / (g.Cache.assoc * g.Cache.line_bytes) in
  {
    tags = Array.make (num_sets * g.Cache.assoc) (-1);
    line_shift = log2 g.Cache.line_bytes;
    set_shift = log2 num_sets;
    set_mask = num_sets - 1;
    assoc = g.Cache.assoc;
    hits = 0;
    misses = 0;
  }

let machine ?(config = Hierarchy.paper_config) () =
  {
    l1 = make_level config.Hierarchy.l1;
    l2 = make_level config.Hierarchy.l2;
    cost_l1 =
      config.Hierarchy.l1_latency + config.Hierarchy.compute_cycles_per_access;
    cost_l2 =
      config.Hierarchy.l1_latency + config.Hierarchy.l2_latency
      + config.Hierarchy.compute_cycles_per_access;
    cost_mem =
      config.Hierarchy.l1_latency + config.Hierarchy.l2_latency
      + config.Hierarchy.memory_latency
      + config.Hierarchy.compute_cycles_per_access;
    line_mask =
      min config.Hierarchy.l1.Cache.line_bytes
        config.Hierarchy.l2.Cache.line_bytes
      - 1;
    cycles = 0;
    countdown = max_int;
  }

(* A hit at way 0 writes nothing.  A hit at way w moves ways 0..w-1 down
   by one and puts the line at way 0; a miss does the same from the last
   way, which it drops. *)
let[@inline] level_access lv addr =
  let line = addr lsr lv.line_shift in
  let base = (line land lv.set_mask) * lv.assoc in
  let tag = line lsr lv.set_shift in
  let tags = lv.tags in
  if Array.unsafe_get tags base = tag then begin
    lv.hits <- lv.hits + 1;
    true
  end
  else begin
    let last = base + lv.assoc - 1 in
    (* way 0 has missed; a direct-mapped set has no other *)
    let w = ref (if base < last then base + 1 else base) in
    while !w < last && Array.unsafe_get tags !w <> tag do
      incr w
    done;
    let hit = Array.unsafe_get tags !w = tag in
    for i = !w downto base + 1 do
      Array.unsafe_set tags i (Array.unsafe_get tags (i - 1))
    done;
    Array.unsafe_set tags base tag;
    if hit then lv.hits <- lv.hits + 1 else lv.misses <- lv.misses + 1;
    hit
  end

let[@inline] access h addr =
  let cost =
    if level_access h.l1 addr then h.cost_l1
    else if level_access h.l2 addr then h.cost_l2
    else h.cost_mem
  in
  h.cycles <- h.cycles + cost

let counters h =
  {
    Hierarchy.accesses = h.l1.hits + h.l1.misses;
    l1_hits = h.l1.hits;
    l1_misses = h.l1.misses;
    l2_hits = h.l2.hits;
    l2_misses = h.l2.misses;
    cycles = h.cycles;
  }

(* ------------------------------------------------------------------ *)
(* The nest walk                                                        *)
(* ------------------------------------------------------------------ *)

(* One iteration of the innermost loop: every access once, in body
   order, then every address advances by its delta. *)
let[@inline] iteration h cur dl na =
  for k = 0 to na - 1 do
    access h (Array.unsafe_get cur k)
  done;
  for k = 0 to na - 1 do
    Array.unsafe_set cur k (Array.unsafe_get cur k + Array.unsafe_get dl k)
  done

let advance cur dl na times =
  for k = 0 to na - 1 do
    Array.unsafe_set cur k
      (Array.unsafe_get cur k + (times * Array.unsafe_get dl k))
  done

(* The iterations from the current one, at most [left], during which no
   access leaves its line; every delta is below the line size. *)
let run_length cur dl na line_mask left =
  let len = ref left in
  for k = 0 to na - 1 do
    let d = Array.unsafe_get dl k in
    if d <> 0 then begin
      let off = Array.unsafe_get cur k land line_mask in
      let n = if d > 0 then ((line_mask - off) / d) + 1 else (off / -d) + 1 in
      if n < !len then len := n
    end
  done;
  !len

(* Simulate one iteration, then account [extra] more that repeat it. *)
let replay h cur dl na extra =
  let l1_hits = h.l1.hits and l1_misses = h.l1.misses in
  let l2_hits = h.l2.hits and l2_misses = h.l2.misses in
  let cycles = h.cycles in
  iteration h cur dl na;
  h.l1.hits <- h.l1.hits + (extra * (h.l1.hits - l1_hits));
  h.l1.misses <- h.l1.misses + (extra * (h.l1.misses - l1_misses));
  h.l2.hits <- h.l2.hits + (extra * (h.l2.hits - l2_hits));
  h.l2.misses <- h.l2.misses + (extra * (h.l2.misses - l2_misses));
  h.cycles <- h.cycles + (extra * (h.cycles - cycles));
  advance cur dl na extra

(* A run of [len] iterations that all touch the same lines in the same
   order.  LRU applied again to the sequence it just saw leaves the state
   it left, so after the first iteration L1 no longer changes, and every
   later iteration misses L1 at the same accesses.  If the second misses
   nowhere in L1, L2 is never touched again: it repeats to the end.
   Otherwise L2 has seen that miss sequence once, and after the third
   iteration twice, so it is at its fixed point too and the third repeats
   to the end.  Cache state is unchanged by the skipped iterations. *)
let steady_run h cur dl na len =
  iteration h cur dl na;
  if len >= 2 then begin
    let l1_misses = h.l1.misses in
    iteration h cur dl na;
    if h.l1.misses = l1_misses then begin
      let rest = len - 2 in
      h.l1.hits <- h.l1.hits + (rest * na);
      h.cycles <- h.cycles + (rest * na * h.cost_l1);
      advance cur dl na rest
    end
    else if len >= 3 then replay h cur dl na (len - 3)
  end

(* Whether every delta from [k] on is below the line (a plain recursion:
   [Array.for_all] would allocate two closures per nest). *)
let rec below_line dl line_mask k =
  k = Array.length dl
  || (abs dl.(k) <= line_mask && below_line dl line_mask (k + 1))

(* The walk.  When every innermost delta is below the smaller line size
   (a fixed L1 line is then a fixed L2 line too), each pass of the
   innermost loop splits into steady runs; otherwise it is walked access
   by access.  [sample] fires when the countdown of accesses runs out,
   checked once per pass. *)
let simulate_nest h ~sample nest =
  let depth = Array.length nest.counts in
  let na = Array.length nest.addr0 in
  let cur = Array.copy nest.addr0 in
  let steady = below_line nest.deltas.(depth - 1) h.line_mask 0 in
  let rec go level =
    let c = nest.counts.(level) in
    let dl = nest.deltas.(level) in
    if level = depth - 1 then begin
      if steady then begin
        let left = ref c in
        while !left > 0 do
          let len = run_length cur dl na h.line_mask !left in
          steady_run h cur dl na len;
          left := !left - len
        done
      end
      else
        for _ = 1 to c do
          iteration h cur dl na
        done;
      h.countdown <- h.countdown - (c * na);
      if h.countdown <= 0 then sample h
    end
    else
      for _ = 1 to c do
        go (level + 1);
        for k = 0 to na - 1 do
          cur.(k) <- cur.(k) + dl.(k)
        done
      done;
    (* rewind this level so the caller's increments stay incremental *)
    for k = 0 to na - 1 do
      cur.(k) <- cur.(k) - (c * dl.(k))
    done
  in
  go 0

(* Counter sampling period when tracing is enabled (accesses between
   "cache" counter events); the final totals are always emitted. *)
let trace_sample_every = 8192

let run h t =
  let walk sample = Array.iter (simulate_nest h ~sample) t.nests in
  if not (Trace.enabled ()) then walk (fun h -> h.countdown <- max_int)
  else
    Trace.with_span ~cat:"cachesim" "simulate"
      ~args:[ ("trips", Trace.Int t.trips) ]
      (fun () ->
        let emit () =
          Trace.counter ~cat:"cachesim" "cache"
            [
              ("l1_hits", float_of_int h.l1.hits);
              ("l1_misses", float_of_int h.l1.misses);
              ("l2_hits", float_of_int h.l2.hits);
              ("l2_misses", float_of_int h.l2.misses);
              ("cycles", float_of_int h.cycles);
            ]
        in
        h.countdown <- trace_sample_every;
        walk (fun h ->
            h.countdown <- trace_sample_every;
            emit ());
        emit ())

let simulate ?config t =
  let h = machine ?config () in
  run h t;
  counters h
