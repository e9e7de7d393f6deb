(** Static locality analysis: reuse vectors and closed-form miss
    prediction from compiled affine address forms.

    Every access in a compiled trace ({!Mlo_cachesim.Compiled_trace}) is
    an affine lattice [addr0 + sum_l delta_l * k_l] over the nest's
    iteration box, so its reuse structure is readable without walking a
    single address:

    - a zero [delta_l] is {e self-temporal} reuse carried by loop [l];
    - a [delta_l] smaller than the line size is {e self-spatial} reuse
      (successive iterations of [l] fall on the same line);
    - accesses to the same array whose delta vectors coincide and whose
      [addr0] differ by a constant form a {e group} and share lines.

    The per-nest miss estimate is a cold + capacity-approximate,
    interference-free bound: the distinct-line count of each group is
    computed in closed form (dense stride prefixes stay full at line
    granularity, the first sparse stride is an exact periodic alignment
    sum, line-aligned sparse strides multiply exactly), and reuse carried
    by a loop level is granted only when the subnest inside it fits the
    cache — both by total capacity and by the group's own footprint per
    cache set (so pathological power-of-two stride streams that thrash a
    set-associative cache are charged their conflict re-fetches).
    Cross-array conflict interference is ignored, which is what makes
    the estimate a bound rather than a prediction.

    On a fully-associative cache whose capacity covers the footprint all
    reuse is realized and the estimate degenerates to the distinct-line
    count; for the lattice shapes flagged [exact] that count is exact,
    which the qcheck family in [test/test_locality.ml] enforces against
    {!Mlo_cachesim.Simulate.run}. *)

type reuse_class = Temporal | Spatial | No_reuse

type level = {
  lv_delta : int;  (** signed byte stride at this loop level *)
  lv_count : int;  (** trip count *)
  lv_class : reuse_class;
  lv_realized : bool;
      (** the reuse carried by this level survives one execution of the
          subnest inside it (capacity and self-interference checks);
          always [true] for [No_reuse] levels *)
}

type group = {
  g_array : string;
  g_accesses : int list;  (** access indices within the nest, ascending *)
  g_levels : level array;  (** outermost first *)
  g_gaps : int array;
      (** sorted distinct constant address differences to the group
          leader (first element 0); singleton for a lone access *)
  g_lines : float;  (** distinct L1 lines touched (cold misses) *)
  g_misses : float;  (** closed-form miss estimate *)
  g_exact : bool;
      (** [g_lines] is an exact count and no capacity factor was
          applied, i.e. [g_misses = g_lines] exactly *)
}

type nest = {
  n_name : string;
  n_trips : int;  (** iterations of this nest *)
  n_groups : group list;
  n_lines : float;
  n_misses : float;
  n_exact : bool;
}

type report = {
  r_program : string;
  r_geometry : Mlo_cachesim.Cache.geometry;
  r_nests : nest list;
  r_lines : float;
  r_misses : float;
      (** whole-program L1 miss estimate, including cross-nest reuse
          credit for arrays still resident from an earlier nest *)
  r_exact : bool;
}

val analyze :
  ?geometry:Mlo_cachesim.Cache.geometry ->
  ?layouts:(string -> Mlo_layout.Layout.t option) ->
  Mlo_ir.Program.t ->
  report
(** Analyze [prog] under the given layout assignment (default layouts
    for arrays mapped to [None]).  [geometry] defaults to the paper's L1
    ({!Mlo_cachesim.Hierarchy.paper_config}).  Cost is linear in the
    number of accesses — no address stream is walked.  Raises like
    {!Mlo_cachesim.Address_map.build} on rank mismatches. *)

type metric = Misses | Lines
(** What {!profiler} charges a candidate layout per group: the
    closed-form miss estimate ([g_misses], the default) or the distinct
    L1 line count ([g_lines], the cold-miss floor — a capacity-blind
    objective for comparing layouts by footprint alone). *)

val profiler :
  ?metric:metric ->
  Mlo_ir.Program.t ->
  array_name:string ->
  layout:Mlo_layout.Layout.t ->
  float array
(** [profiler prog] returns the miss profile of one array under one
    candidate layout, on the paper's L1
    ({!Mlo_cachesim.Hierarchy.paper_config}): one entry per nest that
    references [array_name], in program order — entry [j] is for the
    [j]-th such nest — holding the estimated misses of the array's
    references there, minimized over the nest's dependence-legal loop
    orders, with every other array at its default layout.  Which nests
    reference an array does not depend on its layout, so every profile
    of one array has the same length and its entries line up.  An array
    that no nest references, or an unknown name, has the empty profile
    [[||]].  This is the cost signal dominance pruning ({!Mlo_netgen})
    compares candidate layouts with; its sum is the charge branch and
    bound minimizes.

    The program is staged once, by the first profiler over it.  Per
    entry: the default-layout compiled trace (address map and affine
    forms), and per (layout, extents) the layout's transform, built on
    first use.  Per nest: its legal orders, each with an order code,
    and, on the nest's first [Misses] query, its default-layout groups'
    views under each legal order.  Per array, its slots: the nests
    referencing it and its accesses in each, found with one lookup per
    query.  A query then folds only those accesses again under the
    layout's staged transform ({!Mlo_cachesim.Compiled_trace.relayout})
    and groups and analyzes only them, with the grouping {!analyze}
    uses.
    The other arrays' footprint inside each loop level, which decides
    whether a level's reuse is realized, is the sum of the nest's staged
    views that skips the array.  Under the queried layout a later
    array's base moves, but by a multiple of the 64-byte alignment,
    hence of the line, so it cannot change their counts.  What the
    estimate reads of a group under one loop order (its cold lines, the
    lines inside each level, whether those fit the sets they reach,
    which levels carry reuse) is memoized over the program on exactly
    what it depends on: the leader's offset within a line, the gap set
    and the per-level strides and trip counts.  Per group as its nest
    is written, one memo entry holds each legal order's permuted group
    and view by order code, so a query makes one lookup per (nest,
    group).  The lines each realized-level mask keeps are memoized too,
    and every line count on the offset, the gap set and the kept
    levels, sorted unless two share a stride.  Each entry equals the
    minimum, over the nest's legal orders, of the array's [g_misses] (or
    [g_lines]) in {!analyze} of the program with that nest permuted —
    bit for bit.

    Queries are memoized: a profile is a pure function of
    (program, metric, array, layout), so results are cached under the
    {e physical} identity of [prog] and shared by every profiler over
    the same program object — re-profiling a program the process has
    already costed (a solver service, repeated pruning passes) only pays
    hashtable lookups.  Staged data does not depend on the metric.  The
    cache is mutex-protected (a caller may query from several Domains) and
    holds its programs through ephemerons: an entry does not keep its
    program alive and is dropped once the program is collected.  Returned
    arrays are fresh — safe to mutate.  Raises [Invalid_argument] like
    {!Mlo_cachesim.Address_map.build} if [layout]'s rank differs from a
    touched array's. *)

val pp : Format.formatter -> report -> unit
(** Human-readable per-nest/per-group table. *)

val to_json : report -> Mlo_obs.Json.t
(** The report as a JSON object (the [locality] payload of the CLI's
    [memlayout-locality/1] documents). *)
