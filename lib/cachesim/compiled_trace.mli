(** Compiled address streams: the trace-driven simulator's hot core.

    For every [(nest, access, layout)] triple the byte address is the
    composition of two affine maps — the access function
    ({!Mlo_ir.Access.element_at}) and the layout's linearized transform
    ({!Mlo_layout.Transform.cell_index}) — and is therefore itself affine
    in the iteration vector:

    {v addr(iter) = addr0 + sum_level delta_level * (iter_level - lo_level) v}

    [compile] folds base address, element size, transform matrix,
    bounding-box mins and row-major strides into that single form, once
    per access; the nest walk then maintains one current address per
    access and adds a precomputed per-level delta at each loop advance —
    no allocation, no string lookups and no matrix arithmetic per
    simulated access.  The cache hierarchy, the library's one cache
    model ({!machine}), is likewise specialized into flat arrays so a
    simulated access is a handful of shifts, masks and array reads.

    Each set keeps its ways in recency order, most recently used first,
    which is exact LRU with invalid ways filled first.  Inside an
    innermost loop whose byte deltas are all below the smaller line size,
    a run of iterations in which no access leaves its line is simulated
    up to its steady iteration (the second, or the third when the second
    misses in L1) and the rest of the run is extrapolated from it: LRU
    applied again to the sequence it just saw leaves its state unchanged.

    The engine's counters are bit-identical to the test oracle's
    timestamp LRU, run by the interpretive engine
    [Mlo_oracle.Simulate_reference] in the test-only library [mlo_oracle]
    (qcheck-enforced); only the way that holds a line may differ, and no
    counter reads it. *)

type t
(** A fully compiled trace: every access's affine address stream under
    one layout assignment's address map. *)

val compile :
  Mlo_ir.Program.t -> layouts:(string -> Mlo_layout.Layout.t option) -> t
(** Compile a program under one layout assignment.  Cost is linear in
    the number of accesses (not iterations).  Raises like
    {!Address_map.build} on rank mismatches. *)

val footprint_bytes : t -> int
val trip_count : t -> int
(** Total loop iterations the trace executes (statically known). *)

type access_form = {
  form_array : string;  (** array the access reads or writes *)
  form_addr0 : int;  (** byte address at the nest's lower corner *)
  form_deltas : int array;
      (** per-level byte increment, outermost first: the access touches
          [form_addr0 + sum_l form_deltas.(l) * k_l] for
          [0 <= k_l < form_counts.(l)] *)
}

type nest_form = {
  form_nest : string;
  form_counts : int array;  (** per-level trip count, outermost first *)
  form_accesses : access_form array;
}

val forms : t -> nest_form array
(** The compiled affine address forms, one per nest in program order.
    This is the static view the locality analyzer
    ({!Mlo_analysis.Locality}) consumes: every simulated address is
    described exactly by these lattices, so reuse distances and line
    counts can be derived without walking the stream.  Fresh arrays —
    safe to mutate. *)

val relayout :
  t ->
  array_name:string ->
  transform:Mlo_layout.Transform.t ->
  nests:int array ->
  accesses:int array array ->
  access_form array array
(** [relayout t ~array_name ~transform ~nests ~accesses] folds again,
    with [array_name] alone moved to a layout whose transform is
    [transform] ({!Address_map.transform_of} of the array and the
    layout), the accesses [accesses.(j)] (indices into the nest's
    accesses) of nest [nests.(j)] (a program nest index): entry [j]
    holds their forms, in the order listed.  Each listed access must
    read or write [array_name]; nothing else is derived.  A base depends
    only on the arrays declared before it, so the array's base does not
    move, and each form is bit-identical to the same access's form in
    {!forms} of the trace compiled under the changed assignment.  The
    other arrays' forms are not recomputed: they are {!forms} of [t],
    except that an array declared after [array_name] moves under the
    changed assignment by its base shift, a multiple of the map's
    alignment.  The cost is linear in the listed accesses; the forms
    and their delta arrays are fresh.  Raises [Invalid_argument] like
    {!Address_map.base} on an unknown name, and when a listed access
    belongs to another array. *)

type machine
(** A two-level LRU hierarchy and its counters, mutated by every
    {!access} and {!run}.  A fresh machine is the cold restart. *)

val machine : ?config:Hierarchy.config -> unit -> machine
(** A cold machine: every way invalid, every counter zero.  [config]
    defaults to {!Hierarchy.paper_config}. *)

val access : machine -> int -> unit
(** [access m addr] performs one data access to byte [addr]: L1 is
    probed, then L2 on an L1 miss; each level that misses fills the line
    over its set's least recently used way, and the access costs the
    latency of the level that served it plus the compute cycles. *)

val run : machine -> t -> unit
(** [run m t] issues the whole trace on [m], nest after nest in program
    order, from the state [m] is in: the same counters as calling
    {!access} on every address in turn. *)

val counters : machine -> Hierarchy.counters
(** The totals since [m] was made. *)

val simulate : ?config:Hierarchy.config -> t -> Hierarchy.counters
(** Run the compiled trace on a cold machine and return its counters.
    [config] defaults to {!Hierarchy.paper_config}. *)
