module Program = Mlo_ir.Program
module Nest_summary = Mlo_layout.Nest_summary
module Cache = Mlo_cachesim.Cache
module Hierarchy = Mlo_cachesim.Hierarchy
module Compiled_trace = Mlo_cachesim.Compiled_trace
module Trace = Mlo_obs.Trace
module Json = Mlo_obs.Json
module Array_info = Mlo_ir.Array_info
module Layout = Mlo_layout.Layout
module Transform = Mlo_layout.Transform

type reuse_class = Temporal | Spatial | No_reuse

type level = {
  lv_delta : int;
  lv_count : int;
  lv_class : reuse_class;
  lv_realized : bool;
}

type group = {
  g_array : string;
  g_accesses : int list;
  g_levels : level array;
  g_gaps : int array;
  g_lines : float;
  g_misses : float;
  g_exact : bool;
}

type nest = {
  n_name : string;
  n_trips : int;
  n_groups : group list;
  n_lines : float;
  n_misses : float;
  n_exact : bool;
}

type report = {
  r_program : string;
  r_geometry : Cache.geometry;
  r_nests : nest list;
  r_lines : float;
  r_misses : float;
  r_exact : bool;
}

(* ------------------------------------------------------------------ *)
(* Closed-form line counting                                           *)
(* ------------------------------------------------------------------ *)

let rec gcd a b = if b = 0 then a else gcd b (a mod b)

(* floor division / non-negative remainder (addresses of out-of-bounds
   programs may go negative; the analysis must not misline them) *)
let fdiv a b = if a >= 0 then a / b else -(((-a) + b - 1) / b)
let fmod a b = a - (fdiv a b * b)
let range_lines ~line x s = fdiv (x + s - 1) line - fdiv x line + 1

(* Lines touched by [n] translates (stride [d]) of a set that occupies
   every line its byte range [x, x+s-1] meets.  Requires [d >= s + line]:
   translates are then line-disjoint and the per-translate count depends
   only on the base offset within a line, which is periodic in the
   translate index. *)
let sparse_interval_sum ~line x s d n =
  let r = fmod d line in
  let p = if r = 0 then 1 else line / gcd r line in
  let q = n / p and rem = n mod p in
  let total = ref 0 in
  for i = 0 to min p n - 1 do
    let o = fmod (x + (i * d)) line in
    let cnt = q + if i < rem then 1 else 0 in
    total := !total + (cnt * (((o + s - 1) / line) + 1))
  done;
  !total

type count = {
  cs_lines : float;
  cs_min : int;  (** smallest byte address of the set *)
  cs_span : int;  (** byte extent: max - min + 1 *)
  cs_exact : bool;
}

let cdiv a b = -fdiv (-a) b

(* One stride level over a full line-interval of span [s]: dense strides
   keep the interval, sparse ones are the periodic alignment sum.
   Always exact. *)
let count_single ~line x s (d, n) =
  if d <= s + line - 1 then
    float_of_int (range_lines ~line x ((d * (n - 1)) + s))
  else float_of_int (sparse_interval_sum ~line x s d n)

(* Two sparse strides [d1 <= d2] over a full line-interval of span [s]
   ([d1 >= s + line]): writing [d2 = q*d1 + e] with [|e|] minimal, the
   lattice decomposes into rows [r = i + q*j] at pitch [d1], row [r]
   holding the offsets [e*j] for the j-interval compatible with the two
   trip counts.  When a row's content stays within one pitch the rows
   are sorted intervals and the union is counted row by row, merging
   neighbours that share lines — exact as long as every merged row is
   itself full at line granularity. *)
let two_level ~line x s (d1, n1) (d2, n2) =
  let q = d2 / d1 in
  let q, e =
    let r = d2 - (q * d1) in
    if r * 2 > d1 then (q + 1, r - d1) else (q, r)
  in
  if (abs e * (n2 - 1)) + s > d1 then None
  else begin
    let rmax = n1 - 1 + (q * (n2 - 1)) in
    let total = ref 0.0 and exact = ref true in
    let prev_hi = ref min_int and prev_solid = ref false in
    let byte_min = ref max_int and byte_max = ref min_int in
    for r = 0 to rmax do
      let jlo = max 0 (cdiv (r - (n1 - 1)) q)
      and jhi = min (n2 - 1) (fdiv r q) in
      if jlo <= jhi then begin
        let cnt = jhi - jlo + 1 in
        let base =
          x + (r * d1) + if e >= 0 then e * jlo else e * jhi
        in
        let span = (abs e * (cnt - 1)) + s in
        let solid = cnt = 1 || abs e <= s + line - 1 in
        let lines =
          if e = 0 || cnt = 1 then float_of_int (range_lines ~line base s)
          else count_single ~line base s (abs e, cnt)
        in
        let lo = fdiv base line and hi = fdiv (base + span - 1) line in
        if lo > !prev_hi then total := !total +. lines
        else if solid && !prev_solid then
          total := !total +. float_of_int (max 0 (hi - !prev_hi))
        else begin
          total := !total +. lines;
          exact := false
        end;
        prev_hi := max !prev_hi hi;
        prev_solid := solid;
        byte_min := min !byte_min base;
        byte_max := max !byte_max (base + span - 1)
      end
    done;
    Some
      {
        cs_lines = !total;
        cs_min = !byte_min;
        cs_span = !byte_max - !byte_min + 1;
        cs_exact = !exact;
      }
  end

(* Distinct cache lines of
     { x + g + sum_l k_l * d_l : 0 <= g < gap_span, 0 <= k_l < n_l }
   where the gap offsets leave no line of their range untouched (the
   caller splits wider offset sets into clusters).  Strides are
   normalized positive and sorted; the ascending dense prefix keeps the
   set full at line granularity, the first sparse stride is an exact
   periodic alignment sum, and later strides multiply exactly when they
   are line-aligned and byte-disjoint (sharing at most the one boundary
   line, which translation by whole lines makes uniform).  The one
   inexact case — an unaligned or aliasing stride over a set that
   already has line-level holes — falls back to
   [min (n * lines) (range bound)] with [cs_exact = false]. *)
let count_set ~line x gap_span levels =
  let base = ref x and norm = ref [] in
  List.iter
    (fun (d, n) ->
      if d <> 0 && n > 1 then
        if d < 0 then begin
          base := !base + (d * (n - 1));
          norm := (-d, n) :: !norm
        end
        else norm := (d, n) :: !norm)
    levels;
  let levels = List.sort compare !norm in
  let x = !base in
  (* fold one more stride into an already-counted (non-interval) set:
     line-aligned byte-disjoint translates multiply exactly (translation
     by whole lines preserves the count; at most the boundary line is
     shared), anything else is bounded by the byte range *)
  let fold_stride (lines, span, exact) (d, n) =
    let reach = d * (n - 1) in
    if fmod d line = 0 && d > span then
      let lines =
        if d >= span + line then float_of_int n *. lines
        else
          let share =
            if fdiv (x + span - 1) line = fdiv (x + d) line then n - 1 else 0
          in
          (float_of_int n *. lines) -. float_of_int share
      in
      (lines, reach + span, exact)
    else
      let new_span = reach + span in
      let bound = float_of_int (range_lines ~line x new_span) in
      (Float.min (float_of_int n *. lines) bound, new_span, false)
  in
  let finish (lines, span, exact) =
    { cs_lines = lines; cs_min = x; cs_span = span; cs_exact = exact }
  in
  let rec dense s = function
    | [] -> finish (float_of_int (range_lines ~line x s), s, true)
    | (d, n) :: rest when d <= s + line - 1 -> dense ((d * (n - 1)) + s) rest
    | rem -> sparse s rem
  and sparse s = function
    | [] -> assert false
    | [ (d, n) ] ->
      finish
        ( float_of_int (sparse_interval_sum ~line x s d n),
          (d * (n - 1)) + s,
          true )
    | (d1, n1) :: (d2, n2) :: rest -> (
      match two_level ~line x s (d1, n1) (d2, n2) with
      | Some c when rest = [] -> c
      | Some c ->
        finish
          (List.fold_left fold_stride (c.cs_lines, c.cs_span, c.cs_exact) rest)
      | None ->
        let first = float_of_int (sparse_interval_sum ~line x s d1 n1) in
        finish
          (List.fold_left fold_stride
             (first, (d1 * (n1 - 1)) + s, true)
             ((d2, n2) :: rest)))
  in
  dense gap_span levels

(* ------------------------------------------------------------------ *)
(* Access groups                                                       *)
(* ------------------------------------------------------------------ *)

(* What a line count reads of a group of accesses to one array: the
   lattice { base + g + sum_l k_l * deltas.(l) : g in gaps,
   0 <= k_l < counts.(l) }. *)
type raw_group = {
  rg_base : int;  (** leader = smallest addr0 *)
  rg_deltas : int array;  (** per level, dead levels (count <= 1) zeroed *)
  rg_counts : int array;
  rg_gaps : int array;  (** sorted distinct offsets, first 0 *)
}

(* A group of accesses: its array, its accesses (ascending indices into
   the grouped forms) and their lattice. *)
type member_group = {
  mg_array : string;
  mg_members : int array;
  mg_group : raw_group;
}

let rec ints_from a b i =
  i = Array.length a || (a.(i) = b.(i) && ints_from a b (i + 1))

let ints_equal (a : int array) b =
  Array.length a = Array.length b && ints_from a b 0

(* Whether [a] and [b] agree on every live level (more than one trip). *)
let rec live_equal counts (a : int array) b l =
  l = Array.length a
  || ((counts.(l) <= 1 || a.(l) = b.(l)) && live_equal counts a b (l + 1))

(* Whether two accesses fall in one group: one array, and the same
   strides on every live level. *)
let same_group counts (a : Compiled_trace.access_form)
    (b : Compiled_trace.access_form) =
  String.equal a.form_array b.form_array
  && live_equal counts a.form_deltas b.form_deltas 0

(* Sorts [a] in place and returns its distinct elements. *)
let sorted_distinct a =
  Array.sort Int.compare a;
  let w = ref 1 in
  for i = 1 to Array.length a - 1 do
    if a.(i) <> a.(!w - 1) then begin
      a.(!w) <- a.(i);
      incr w
    end
  done;
  if !w = Array.length a then a else Array.sub a 0 !w

let lone_gap = [| 0 |]

(* The accesses of one nest (of trip counts [counts]) in groups, in the
   order of their first accesses.  A group's lattice leads at its
   smallest [addr0], has its first access's strides with the dead levels
   zeroed (in a copy, if there are any: [forms] is only read), and its
   sorted distinct offsets from the leader.  The report groups a whole
   nest; a profile query, the forms of the queried array alone. *)
let group_forms counts (forms : Compiled_trace.access_form array) =
  let n = Array.length forms in
  (* group.(k): access [k]'s group; first.(g) and size.(g): group [g]'s
     first access and its number of accesses *)
  let group = Array.make n 0 and first = Array.make n 0 in
  let size = Array.make n 0 and groups = ref 0 in
  for k = 0 to n - 1 do
    let g = ref 0 in
    while !g < !groups && not (same_group counts forms.(first.(!g)) forms.(k)) do
      incr g
    done;
    if !g = !groups then begin
      first.(!g) <- k;
      incr groups
    end;
    group.(k) <- !g;
    size.(!g) <- size.(!g) + 1
  done;
  Array.init !groups (fun g ->
      let lead = forms.(first.(g)) in
      let members = Array.make size.(g) 0 and i = ref 0 and base = ref max_int in
      for k = first.(g) to n - 1 do
        if group.(k) = g then begin
          members.(!i) <- k;
          incr i;
          if forms.(k).form_addr0 < !base then base := forms.(k).form_addr0
        end
      done;
      let gaps =
        if size.(g) = 1 then lone_gap
        else begin
          let gaps = Array.make size.(g) 0 in
          for i = 0 to size.(g) - 1 do
            gaps.(i) <- forms.(members.(i)).form_addr0 - !base
          done;
          sorted_distinct gaps
        end
      in
      let deltas =
        if Array.for_all (fun c -> c > 1) counts then lead.form_deltas
        else Array.mapi (fun l d -> if counts.(l) <= 1 then 0 else d) lead.form_deltas
      in
      {
        mg_array = lead.form_array;
        mg_members = members;
        mg_group =
          { rg_base = !base; rg_deltas = deltas; rg_counts = counts; rg_gaps = gaps };
      })

(* Fold the group's constant offsets into one lattice level when they
   are all multiples [q*d] of a stride with consecutive quotients within
   the trip count: the union of translates is then exactly the lattice
   with that level's count extended.  Returns the adjusted levels. *)
let absorb_gaps levels gaps =
  if Array.length gaps <= 1 then Some levels
  else
    let candidates = List.sort (fun (a, _) (b, _) -> compare b a) levels in
    let fits (d, n) =
      let d' = abs d in
      d' <> 0
      && Array.for_all (fun g -> g mod d' = 0) gaps
      &&
      let qs = Array.map (fun g -> g / d') gaps in
      let ok = ref true in
      Array.iteri (fun i q -> if i > 0 && q - qs.(i - 1) > n then ok := false) qs;
      !ok
    in
    match List.find_opt fits candidates with
    | None -> None
    | Some (d, n) ->
      let qlast = gaps.(Array.length gaps - 1) / abs d in
      Some
        (List.map
           (fun (d', n') -> if d' = d && n' = n then (d', n' + qlast) else (d', n'))
           levels)

(* The live (stride, trip) levels of [g] that [keep] admits, innermost
   first. *)
let kept_levels (g : raw_group) ~keep =
  let levels = ref [] in
  Array.iteri
    (fun l d ->
      if keep l && d <> 0 && g.rg_counts.(l) > 1 then
        levels := (d, g.rg_counts.(l)) :: !levels)
    g.rg_deltas;
  !levels

(* Distinct lines of the sub-lattice of [g] spanned by [levels] (plus the
   group's offset set). *)
let group_count ~line (g : raw_group) levels =
  (* offsets in arithmetic progression (any pair is one) are themselves a
     lattice level, so the union is a multi-level lattice counted by
     [count_set] — exact where its closed forms are *)
  let gaps_as_level () =
    let n = Array.length g.rg_gaps in
    if n < 2 then None
    else begin
      let d = g.rg_gaps.(1) - g.rg_gaps.(0) in
      let ok = ref (d > 0) in
      for i = 2 to n - 1 do
        if g.rg_gaps.(i) - g.rg_gaps.(i - 1) <> d then ok := false
      done;
      if !ok then Some (d, n) else None
    end
  in
  match
    match absorb_gaps levels g.rg_gaps with
    | Some _ as r -> r
    | None -> Option.map (fun lv -> lv :: levels) (gaps_as_level ())
  with
  | Some levels -> count_set ~line g.rg_base 1 levels
  | None ->
    (* split the offsets into clusters that stay full at line
       granularity, count each translate of the lattice, and sum;
       exact only when the cluster ranges are line-disjoint *)
    let clusters = ref [] and first = ref g.rg_gaps.(0) and last = ref g.rg_gaps.(0) in
    Array.iteri
      (fun i gp ->
        if i > 0 then
          if gp - !last <= line then last := gp
          else begin
            clusters := (!first, !last) :: !clusters;
            first := gp;
            last := gp
          end)
      g.rg_gaps;
    clusters := (!first, !last) :: !clusters;
    let counts =
      List.rev_map
        (fun (f, l) -> count_set ~line (g.rg_base + f) (l - f + 1) levels)
        !clusters
    in
    let total = List.fold_left (fun a c -> a +. c.cs_lines) 0.0 counts in
    let exact = List.for_all (fun c -> c.cs_exact) counts in
    let disjoint =
      let rec go = function
        | a :: (b :: _ as rest) ->
          fdiv (a.cs_min + a.cs_span - 1) line < fdiv b.cs_min line && go rest
        | _ -> true
      in
      go counts
    in
    let lo = List.fold_left (fun m c -> min m c.cs_min) max_int counts in
    let hi =
      List.fold_left (fun m c -> max m (c.cs_min + c.cs_span - 1)) min_int counts
    in
    let span = hi - lo + 1 in
    if disjoint then
      { cs_lines = total; cs_min = lo; cs_span = span; cs_exact = exact }
    else
      {
        cs_lines = Float.min total (float_of_int (range_lines ~line lo span));
        cs_min = lo;
        cs_span = span;
        cs_exact = false;
      }

(* Compositional estimate of the cache sets a sub-lattice reaches: dense
   strides sweep contiguous line runs, line-aligned sparse strides visit
   [num_sets / gcd] distinct set residues, unaligned ones spread freely. *)
let sets_estimate ~line ~num_sets (g : raw_group) ~keep =
  let gap_span = g.rg_gaps.(Array.length g.rg_gaps - 1) + 1 in
  let f = ref (max 1 (min num_sets ((gap_span + line - 1) / line))) in
  Array.iteri
    (fun l d ->
      let d = abs d and n = g.rg_counts.(l) in
      if keep l && d <> 0 && n > 1 then begin
        let factor =
          if d < line then ((d * (n - 1)) / line) + 1
          else if fmod d line = 0 then begin
            let ls = d / line mod num_sets in
            if ls = 0 then 1 else min n (num_sets / gcd ls num_sets)
          end
          else min n num_sets
        in
        f := min num_sets (!f * factor)
      end)
    g.rg_deltas;
  !f

(* ------------------------------------------------------------------ *)
(* Per-nest miss estimate                                              *)
(* ------------------------------------------------------------------ *)

let classify ~line d =
  if d = 0 then Temporal else if abs d < line then Spatial else No_reuse

(* What the estimate reads of one group under one loop order: the cold
   count (every level kept) and, per level [l], the lines of one
   execution of the subnest strictly inside [l], whether that part fits
   the sets it reaches, and whether [l] carries reuse at all (temporal
   or spatial, more than one trip).  The lines the realized levels span
   are counted per realized-level mask, on first use. *)
type view = {
  v_cold : count;  (** [cs_min] relative to the group's leader *)
  v_inside : float array;
  v_fits : bool array;
  v_carries : bool array;
  mutable v_kept : (int * float) list;
}

let make_view ~(geometry : Cache.geometry) ~count (g : raw_group) =
  let line = geometry.Cache.line_bytes in
  let num_sets = geometry.Cache.size_bytes / (geometry.Cache.assoc * line) in
  let depth = Array.length g.rg_deltas in
  let cold = count g (kept_levels g ~keep:(fun _ -> true)) in
  let inside =
    Array.init depth (fun l ->
        (count g (kept_levels g ~keep:(fun l' -> l' > l))).cs_lines)
  in
  {
    v_cold = { cold with cs_min = cold.cs_min - g.rg_base };
    v_inside = inside;
    v_fits =
      Array.init depth (fun l ->
          inside.(l)
          <= float_of_int
               (geometry.Cache.assoc
               * sets_estimate ~line ~num_sets g ~keep:(fun l' -> l' > l)));
    v_carries =
      Array.init depth (fun l ->
          g.rg_counts.(l) > 1 && classify ~line g.rg_deltas.(l) <> No_reuse);
    v_kept = [];
  }

(* Two memos, each keyed on exactly what it reads.  [group_count] reads
   the leader's address only through [fdiv] and [fmod] by the line size,
   so moving a group by whole lines moves its [cs_min] by as much and
   leaves the rest of the count alone: both keys hold the leader's
   offset within a line in place of its address, and both store
   [cs_min] relative to the leader.  The count memo keys on the gap set
   and the kept levels ([levels_key]).  The view memo keys on the gap
   set and the per-level strides and trip counts.  A view is made only
   on its key's first use, and it counts only then and on a
   realized-level mask's first use, through the count memo. *)

let rec mix h a i =
  if i = Array.length a then h else mix ((h * 65599) + a.(i)) a (i + 1)

(* [levels] flattened into [a] from pair [i] on: stride, trip, ... *)
let rec flatten_levels a i = function
  | [] -> a
  | (d, n) :: rest ->
    a.(2 * i) <- d;
    a.((2 * i) + 1) <- n;
    flatten_levels a (i + 1) rest

(* The count memo's key for [levels], flattened.  [count_set] sorts the
   levels, so it reads them as a multiset; [absorb_gaps]' stable sort
   reads their order, but only among levels of equal stride.  So levels
   whose strides are pairwise distinct are keyed sorted, and any other
   list as it comes.  The two kinds of key cannot meet: a sorted key
   repeats no stride. *)
let levels_key levels =
  let a = flatten_levels (Array.make (2 * List.length levels) 0) 0 levels in
  let pairs = Array.length a / 2 in
  (* insertion sort of the pairs, by stride, then trip *)
  for i = 1 to pairs - 1 do
    let d = a.(2 * i) and n = a.((2 * i) + 1) and j = ref (i - 1) in
    while !j >= 0 && (a.(2 * !j) > d || (a.(2 * !j) = d && a.((2 * !j) + 1) > n)) do
      a.((2 * !j) + 2) <- a.(2 * !j);
      a.((2 * !j) + 3) <- a.((2 * !j) + 1);
      decr j
    done;
    a.((2 * !j) + 2) <- d;
    a.((2 * !j) + 3) <- n
  done;
  let distinct = ref true in
  for i = 1 to pairs - 1 do
    if a.(2 * i) = a.(2 * (i - 1)) then distinct := false
  done;
  if !distinct then a else flatten_levels a 0 levels

module Count_key = struct
  type t = { offset : int; gaps : int array; levels : int array }

  let equal a b =
    a.offset = b.offset && ints_equal a.gaps b.gaps && ints_equal a.levels b.levels

  let hash k = Hashtbl.hash (mix (mix k.offset k.gaps 0) k.levels 0)
end

module Count_tbl = Hashtbl.Make (Count_key)

let memo_count ~line memo (g : raw_group) levels =
  let key =
    {
      Count_key.offset = fmod g.rg_base line;
      gaps = g.rg_gaps;
      levels = levels_key levels;
    }
  in
  match Count_tbl.find memo key with
  | c -> { c with cs_min = g.rg_base + c.cs_min }
  | exception Not_found ->
    let c = group_count ~line g levels in
    Count_tbl.add memo key { c with cs_min = c.cs_min - g.rg_base };
    c

module View_key = struct
  type t = { offset : int; gaps : int array; deltas : int array; counts : int array }

  let equal a b =
    a.offset = b.offset && ints_equal a.gaps b.gaps
    && ints_equal a.deltas b.deltas && ints_equal a.counts b.counts

  let hash k =
    Hashtbl.hash (mix (mix (mix k.offset k.gaps 0) k.deltas 0) k.counts 0)
end

module View_tbl = Hashtbl.Make (View_key)

let view_key ~line (g : raw_group) =
  {
    View_key.offset = fmod g.rg_base line;
    gaps = g.rg_gaps;
    deltas = g.rg_deltas;
    counts = g.rg_counts;
  }

let memo_view ~(geometry : Cache.geometry) ~count tbl (g : raw_group) =
  let key = view_key ~line:geometry.Cache.line_bytes g in
  match View_tbl.find tbl key with
  | v -> v
  | exception Not_found ->
    let v = make_view ~geometry ~count g in
    View_tbl.add tbl key v;
    v

(* The realized-level rule, stated once for the report and the
   profiler: reuse carried by level [l] is realized when the subnest
   inside it fits the cache ([inner.(l)] is that subnest's footprint, all
   groups together) and the group's own part fits the sets it reaches.
   A level that carries no reuse counts as realized. *)
let realized ~cap_lines ~inner v l =
  (not v.v_carries.(l)) || (inner.(l) <= cap_lines && v.v_fits.(l))

let rec kept_lines mask = function
  | (m, k) :: rest -> if m = mask then k else kept_lines mask rest
  | [] -> raise_notrace Not_found

(* The group's miss estimate: each unrealized level multiplies the lines
   the realized levels span by its trip count, and the misses never fall
   below the cold lines. *)
let group_misses ~count ~cap_lines ~inner v (g : raw_group) =
  let factor = ref 1.0 and mask = ref 0 in
  for l = 0 to Array.length g.rg_counts - 1 do
    if realized ~cap_lines ~inner v l then mask := !mask lor (1 lsl l)
    else factor := !factor *. float_of_int g.rg_counts.(l)
  done;
  let mask = !mask in
  let kept =
    match kept_lines mask v.v_kept with
    | k -> k
    | exception Not_found ->
      let k =
        (count g (kept_levels g ~keep:(fun l -> mask land (1 lsl l) <> 0)))
          .cs_lines
      in
      v.v_kept <- (mask, k) :: v.v_kept;
      k
  in
  Float.max v.v_cold.cs_lines (!factor *. kept)

(* Adds the footprint inside each level of [v]'s group to [inner]. *)
let add_inside inner v =
  for l = 0 to Array.length inner - 1 do
    inner.(l) <- inner.(l) +. v.v_inside.(l)
  done

let analyze_nest ~geometry ~count ~view (nf : Compiled_trace.nest_form) =
  let line = geometry.Cache.line_bytes in
  let cap_lines = float_of_int (geometry.Cache.size_bytes / line) in
  let depth = Array.length nf.Compiled_trace.form_counts in
  let viewed =
    Array.to_list
      (Array.map
         (fun mg -> (mg, view mg.mg_group))
         (group_forms nf.Compiled_trace.form_counts nf.Compiled_trace.form_accesses))
  in
  let inner = Array.make depth 0.0 in
  List.iter (fun (_, v) -> add_inside inner v) viewed;
  let colds =
    List.map
      (fun (mg, v) ->
        (mg, { v.v_cold with cs_min = mg.mg_group.rg_base + v.v_cold.cs_min }))
      viewed
  in
  (* Two groups of the same array whose byte ranges land on overlapping
     line intervals share lines the per-group counts each claim, so the
     summed distinct-line count is only an upper bound there. *)
  let overlaps_sibling (mg, a) =
    List.exists
      (fun (mg', b) ->
        mg' != mg
        && String.equal mg'.mg_array mg.mg_array
        && fdiv a.cs_min line <= fdiv (b.cs_min + b.cs_span - 1) line
        && fdiv b.cs_min line <= fdiv (a.cs_min + a.cs_span - 1) line)
      colds
  in
  let finished =
    List.map2
      (fun (mg, v) gc ->
        let g = mg.mg_group in
        let levels =
          Array.init depth (fun l ->
              let d = g.rg_deltas.(l) in
              {
                lv_delta = d;
                lv_count = g.rg_counts.(l);
                lv_class = classify ~line d;
                lv_realized = realized ~cap_lines ~inner v l;
              })
        in
        {
          g_array = mg.mg_array;
          g_accesses = Array.to_list mg.mg_members;
          g_levels = levels;
          g_gaps = g.rg_gaps;
          g_lines = v.v_cold.cs_lines;
          g_misses = group_misses ~count ~cap_lines ~inner v g;
          g_exact =
            v.v_cold.cs_exact
            && Array.for_all (fun lv -> lv.lv_realized) levels
            && not (overlaps_sibling gc);
        })
      viewed colds
  in
  let trips = Array.fold_left ( * ) 1 nf.Compiled_trace.form_counts in
  ( {
      n_name = nf.Compiled_trace.form_nest;
      n_trips = trips;
      n_groups = finished;
      n_lines = List.fold_left (fun a g -> a +. g.g_lines) 0.0 finished;
      n_misses = List.fold_left (fun a g -> a +. g.g_misses) 0.0 finished;
      n_exact = List.for_all (fun g -> g.g_exact) finished;
    },
    colds )

(* ------------------------------------------------------------------ *)
(* Cross-nest warm reuse                                               *)
(* ------------------------------------------------------------------ *)

(* One array's touch in one nest, summarized for residency tracking. *)
type touch = {
  t_clock : float;
      (** lines streamed by the program before the touching nest began —
          the worst-case reuse distance includes that nest's own
          traffic *)
  t_lines : float;
  t_min : int;
  t_max : int;
  t_sig : (int * int array * int array) list;  (** base, deltas, gaps *)
  t_exact : bool;
  t_realized : bool;
}

let array_touches nest_groups =
  let tbl = Hashtbl.create 7 in
  List.iter
    (fun ((mg, c), g) ->
      let rg = mg.mg_group in
      let prev =
        match Hashtbl.find_opt tbl mg.mg_array with
        | Some t -> t
        | None ->
          {
            t_clock = 0.0;
            t_lines = 0.0;
            t_min = max_int;
            t_max = min_int;
            t_sig = [];
            t_exact = true;
            t_realized = true;
          }
      in
      Hashtbl.replace tbl mg.mg_array
        {
          prev with
          t_lines = prev.t_lines +. g.g_lines;
          t_min = min prev.t_min c.cs_min;
          t_max = max prev.t_max (c.cs_min + c.cs_span - 1);
          t_sig = (rg.rg_base, rg.rg_deltas, rg.rg_gaps) :: prev.t_sig;
          t_exact = prev.t_exact && g.g_exact;
          t_realized = prev.t_realized && g.g_misses = g.g_lines;
        })
    nest_groups;
  tbl

(* Credit lines still resident from an earlier nest: if fewer lines than
   the cache holds were streamed since the array was last touched and
   both touches realize all their reuse, its overlap with the previous
   range does not miss again.  Identical access structure keeps the
   credit exact (the whole touch repeats); otherwise only the range
   overlap is credited and the estimate is marked approximate. *)
let warm_credit ~line ~cap_lines nests_groups =
  let resident : (string, touch) Hashtbl.t = Hashtbl.create 17 in
  let clock = ref 0.0 in
  List.map
    (fun (n, groups) ->
      let touches = array_touches groups in
      let clock0 = !clock in
      let credit = ref 0.0 and inexact = ref false in
      Hashtbl.iter
        (fun name now ->
          match Hashtbl.find_opt resident name with
          | Some last
            when last.t_realized && now.t_realized
                 && clock0 -. last.t_clock +. now.t_lines
                    <= float_of_int cap_lines ->
            if
              last.t_exact && now.t_exact
              && List.sort compare last.t_sig = List.sort compare now.t_sig
            then credit := !credit +. now.t_lines
            else begin
              let lo = max last.t_min now.t_min
              and hi = min last.t_max now.t_max in
              if lo <= hi then begin
                let overlap =
                  float_of_int (range_lines ~line lo (hi - lo + 1))
                in
                credit :=
                  !credit +. Float.min overlap (Float.min last.t_lines now.t_lines);
                inexact := true
              end
            end
          | _ -> ())
        touches;
      clock := !clock +. n.n_lines;
      Hashtbl.iter
        (fun name now ->
          Hashtbl.replace resident name { now with t_clock = clock0 })
        touches;
      if !credit > 0.0 then
        {
          n with
          n_misses = Float.max 0.0 (n.n_misses -. !credit);
          n_exact = n.n_exact && not !inexact;
        }
      else n)
    nests_groups

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

let default_geometry = Hierarchy.paper_config.Hierarchy.l1

let analyze_forms ~geometry ~program nfs =
  let line = geometry.Cache.line_bytes in
  let cap_lines = geometry.Cache.size_bytes / line in
  let count = memo_count ~line (Count_tbl.create 64) in
  let view = memo_view ~geometry ~count (View_tbl.create 64) in
  let nests =
    Array.to_list nfs
    |> List.map (fun nf ->
           let n, colds = analyze_nest ~geometry ~count ~view nf in
           (n, List.combine colds n.n_groups))
  in
  let nests = warm_credit ~line ~cap_lines nests in
  {
    r_program = program;
    r_geometry = geometry;
    r_nests = nests;
    r_lines = List.fold_left (fun a n -> a +. n.n_lines) 0.0 nests;
    r_misses = List.fold_left (fun a n -> a +. n.n_misses) 0.0 nests;
    r_exact = List.for_all (fun n -> n.n_exact) nests;
  }

let analyze ?(geometry = default_geometry) ?(layouts = fun _ -> None) prog =
  Trace.with_span ~cat:"analysis" "locality"
    ~args:[ ("program", Trace.Str (Program.name prog)) ]
  @@ fun () ->
  let tr = Compiled_trace.compile prog ~layouts in
  analyze_forms ~geometry ~program:(Program.name prog) (Compiled_trace.forms tr)

(* The profiler's per-program entry: the program staged once, plus the
   query memo.  A profile is a pure function of (program, metric, array,
   layout); programs are immutable and dominance pruning asks the same
   (array, layout) questions every time it sees the same program — a
   long-running optimizer service, or the bench harness re-extracting
   the same spec, re-profiles nothing after the first pass.  Entries are
   kept by [Program.memo], keyed by physical program identity in an
   ephemeron table, whose data does not keep its key alive, so an entry
   dies with its program.  One mutex per entry: a caller may query from
   several Domains. *)
type metric = Misses | Lines

module Profile_key = struct
  type t = string * Layout.t * metric

  let equal (a, la, ma) (b, lb, mb) =
    String.equal a b && ma = mb && Layout.equal la lb

  let hash (a, l, m) = Hashtbl.hash (a, Layout.hash l, m)
end

module Profile_tbl = Hashtbl.Make (Profile_key)

module Transform_tbl = Hashtbl.Make (struct
  type t = Layout.t * int array  (** layout, extents *)

  let equal (la, ea) (lb, eb) = Layout.equal la lb && ints_equal ea eb
  let hash (l, e) = Hashtbl.hash (Layout.hash l, mix 0 e 0)
end)

(* A loop order of a nest (level [l] of the reordered nest is level
   [perm.(l)] of the nest as written) and its code, the permutation's
   digits in base [depth]. *)
type order = { o_perm : int array; o_code : int }

let order perm =
  {
    o_perm = perm;
    o_code = Array.fold_left (fun c p -> (c * Array.length perm) + p) 0 perm;
  }

(* A group of a nest, in the nest with its loops reordered by [perm]:
   the grouping, leader and offsets do not depend on the loop order. *)
let permute_group perm (g : raw_group) =
  {
    g with
    rg_deltas = Array.map (fun p -> g.rg_deltas.(p)) perm;
    rg_counts = Array.map (fun p -> g.rg_counts.(p)) perm;
  }

(* A group under one loop order, and its view. *)
type permuted = { p_code : int; p_group : raw_group; p_view : view }

(* The profiler's view-memo entry of a group as its nest is written:
   the group under each loop order asked for, newest first.  The stored
   group may lead at another address than a later group with the same
   key, by whole lines, which no count reads. *)
type order_views = permuted list ref

let rec find_order code = function
  | p :: rest -> if p.p_code = code then p else find_order code rest
  | [] -> raise_notrace Not_found

(* [g] under order [o] and its view, from [g]'s entry [e]; on the
   order's first use, the permuted group's view comes from [view]. *)
let permuted ~view (e : order_views) (g : raw_group) o =
  match find_order o.o_code !e with
  | p -> p
  | exception Not_found ->
    let g = permute_group o.o_perm g in
    let p = { p_code = o.o_code; p_group = g; p_view = view g } in
    e := p :: !e;
    p

(* One array's slots: the nests that reference it and its accesses in
   each, staged for every query of the array. *)
type touched = {
  tc_info : Array_info.t;
  tc_extents : int array;
  tc_nests : int array;  (** ascending *)
  tc_accesses : int array array;
      (** per such nest, the indices of the array's accesses, ascending *)
}

type nest_stage = {
  ns_orders : order array;  (** the dependence-legal orders, identity first *)
  mutable ns_views : (string * view array) array option;
      (** on first use: per default-layout group, its array and its
          view under each legal order *)
}

type profile_entry = {
  pe_trace : Compiled_trace.t;
      (** every array at its default layout: the staged address map a
          query relayouts one array of *)
  pe_forms : Compiled_trace.nest_form array;  (** [pe_trace]'s forms *)
  pe_nests : nest_stage array;
  pe_touched : (string, touched) Hashtbl.t;
  pe_transforms : Transform.t Transform_tbl.t;
      (** per (layout, extents), the layout's transform *)
  pe_count : raw_group -> (int * int) list -> count;
      (** [group_count], memoized over the entry *)
  pe_view : raw_group -> view;  (** [make_view], memoized over the entry *)
  pe_orders : order_views View_tbl.t;
      (** per group as its nest is written, its views under the orders
          asked for *)
  pe_profiles : float array Profile_tbl.t;
  pe_lock : Mutex.t;
}

let make_profile_entry prog =
  let line = default_geometry.Cache.line_bytes in
  (* A query moves only one array's accesses and reads every other at
     its staged address.  Under the queried layout a later array's base
     moves by a multiple of the base alignment; moving a group by whole
     lines leaves every count but [cs_min] alone, and the profile never
     reads [cs_min]. *)
  assert (Mlo_cachesim.Address_map.default_align mod line = 0);
  let trace = Compiled_trace.compile prog ~layouts:(fun _ -> None) in
  let forms = Compiled_trace.forms trace in
  let summary = Nest_summary.of_program prog in
  (* name -> (nest, access indices) list, both ascending *)
  let touched = Hashtbl.create 16 in
  for i = Array.length forms - 1 downto 0 do
    let accesses = forms.(i).form_accesses in
    for k = Array.length accesses - 1 downto 0 do
      let name = accesses.(k).form_array in
      let later = Option.value (Hashtbl.find_opt touched name) ~default:[] in
      Hashtbl.replace touched name
        (match later with
        | (j, ks) :: rest when j = i -> (i, k :: ks) :: rest
        | _ -> (i, [ k ]) :: later)
    done
  done;
  let stage name per_nest =
    let info = Program.find_array prog name in
    let nests = Array.of_list (List.map fst per_nest) in
    {
      tc_info = info;
      tc_extents = Array_info.extents info;
      tc_nests = nests;
      tc_accesses =
        Array.of_list (List.map (fun (_, ks) -> Array.of_list ks) per_nest);
    }
  in
  let count = memo_count ~line (Count_tbl.create 256) in
  {
    pe_trace = trace;
    pe_forms = forms;
    pe_nests =
      Array.mapi
        (fun i _ ->
          {
            ns_orders =
              Array.of_list
                (List.map order (Nest_summary.nest summary i).Nest_summary.orders);
            ns_views = None;
          })
        forms;
    pe_touched =
      Hashtbl.of_seq
        (Seq.map
           (fun (name, per_nest) -> (name, stage name per_nest))
           (Hashtbl.to_seq touched));
    pe_transforms = Transform_tbl.create 16;
    pe_count = count;
    pe_view = memo_view ~geometry:default_geometry ~count (View_tbl.create 256);
    pe_orders = View_tbl.create 256;
    pe_profiles = Profile_tbl.create 64;
    pe_lock = Mutex.create ();
  }

let profile_entry = Program.memo make_profile_entry

let profile_line = default_geometry.Cache.line_bytes

let profile_cap_lines =
  float_of_int (default_geometry.Cache.size_bytes / profile_line)

(* The entry of [g] in [pe_orders], made empty on first use. *)
let order_views entry (g : raw_group) =
  let key = view_key ~line:profile_line g in
  match View_tbl.find entry.pe_orders key with
  | e -> e
  | exception Not_found ->
    let e = ref [] in
    View_tbl.add entry.pe_orders key e;
    e

(* The transform of [tc]'s array under [layout]: built on first use per
   (layout, extents), with the rank check of [Address_map.build]. *)
let transform entry tc layout =
  let key = (layout, tc.tc_extents) in
  match Transform_tbl.find entry.pe_transforms key with
  | t -> t
  | exception Not_found ->
    let t = Mlo_cachesim.Address_map.transform_of tc.tc_info (Some layout) in
    Transform_tbl.add entry.pe_transforms key t;
    t

(* Nest [i]'s default-layout groups, each with its array and its views
   under the nest's legal orders: staged on the nest's first [Misses]
   query, for every array the nest references. *)
let nest_views entry i =
  let ns = entry.pe_nests.(i) in
  match ns.ns_views with
  | Some vs -> vs
  | None ->
    let nf = entry.pe_forms.(i) in
    let vs =
      Array.map
        (fun mg ->
          let e = order_views entry mg.mg_group in
          ( mg.mg_array,
            Array.map
              (fun o -> (permuted ~view:entry.pe_view e mg.mg_group o).p_view)
              ns.ns_orders ))
        (group_forms nf.form_counts nf.form_accesses)
    in
    ns.ns_views <- Some vs;
    vs

(* Nest [i]'s charge for [array_name], minimized over the nest's legal
   orders, from [forms], the array's accesses in the nest under the
   queried layout.  Only the array's own groups are analyzed: under
   [Misses] the rest of the nest enters only through the footprint
   inside each level, which does not depend on the queried layout; it
   is the sum of the nest's staged views that skips the array's groups.
   Every [cs_lines] is an integer far below 2^53, so splitting that sum
   is exact. *)
let nest_profile entry ~metric ~array_name i forms =
  let orders = entry.pe_nests.(i).ns_orders in
  let mine = group_forms entry.pe_forms.(i).form_counts forms in
  let entries = Array.map (fun mg -> order_views entry mg.mg_group) mine in
  let best = ref infinity in
  for o = 0 to Array.length orders - 1 do
    let order = orders.(o) in
    let charge =
      match metric with
      | Lines ->
        let acc = ref 0.0 in
        for k = 0 to Array.length mine - 1 do
          let p = permuted ~view:entry.pe_view entries.(k) mine.(k).mg_group order in
          acc := !acc +. p.p_view.v_cold.cs_lines
        done;
        !acc
      | Misses ->
        let inner = Array.make (Array.length order.o_perm) 0.0 in
        let others = nest_views entry i in
        for k = 0 to Array.length others - 1 do
          let name, vs = others.(k) in
          if not (String.equal name array_name) then add_inside inner vs.(o)
        done;
        for k = 0 to Array.length mine - 1 do
          add_inside inner
            (permuted ~view:entry.pe_view entries.(k) mine.(k).mg_group order).p_view
        done;
        let acc = ref 0.0 in
        for k = 0 to Array.length mine - 1 do
          let p = permuted ~view:entry.pe_view entries.(k) mine.(k).mg_group order in
          acc :=
            !acc
            +. group_misses ~count:entry.pe_count ~cap_lines:profile_cap_lines
                 ~inner p.p_view p.p_group
        done;
        !acc
    in
    best := Float.min !best charge
  done;
  !best

let profiler ?(metric = Misses) prog =
  let entry = profile_entry prog in
  fun ~array_name ~layout ->
    Mutex.protect entry.pe_lock @@ fun () ->
    let key = (array_name, layout, metric) in
    let profile =
      match Profile_tbl.find_opt entry.pe_profiles key with
      | Some p -> p
      | None ->
        let profile =
          match Hashtbl.find_opt entry.pe_touched array_name with
          | None -> [||]
          | Some tc ->
            Array.mapi
              (fun j forms ->
                nest_profile entry ~metric ~array_name tc.tc_nests.(j) forms)
              (Compiled_trace.relayout entry.pe_trace ~array_name
                 ~transform:(transform entry tc layout) ~nests:tc.tc_nests
                 ~accesses:tc.tc_accesses)
        in
        Profile_tbl.replace entry.pe_profiles key profile;
        profile
    in
    Array.copy profile

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let class_string = function
  | Temporal -> "t"
  | Spatial -> "s"
  | No_reuse -> "-"

let reuse_string g =
  String.concat ""
    (Array.to_list
       (Array.map
          (fun lv ->
            let c = class_string lv.lv_class in
            if lv.lv_class <> No_reuse && not lv.lv_realized then
              String.uppercase_ascii c
            else c)
          g.g_levels))

let pp ppf r =
  Format.fprintf ppf "@[<v>locality %s (L1 %dB/%d-way/%dB lines)@,"
    r.r_program r.r_geometry.Cache.size_bytes r.r_geometry.Cache.assoc
    r.r_geometry.Cache.line_bytes;
  List.iter
    (fun n ->
      Format.fprintf ppf "  %s: trips=%d lines=%.0f misses=%.0f%s@," n.n_name
        n.n_trips n.n_lines n.n_misses
        (if n.n_exact then "" else " ~");
      List.iter
        (fun g ->
          Format.fprintf ppf "    %-12s reuse=%s group=%d lines=%.0f misses=%.0f%s@,"
            g.g_array (reuse_string g)
            (List.length g.g_accesses)
            g.g_lines g.g_misses
            (if g.g_exact then "" else " ~"))
        n.n_groups)
    r.r_nests;
  Format.fprintf ppf "  total: lines=%.0f misses=%.0f%s@]" r.r_lines r.r_misses
    (if r.r_exact then "" else " ~")

let class_json = function
  | Temporal -> "temporal"
  | Spatial -> "spatial"
  | No_reuse -> "none"

let to_json r =
  let group_json g =
    Json.Obj
      [
        ("array", Json.Str g.g_array);
        ("accesses", Json.Arr (List.map (fun i -> Json.Num (float_of_int i)) g.g_accesses));
        ( "levels",
          Json.Arr
            (Array.to_list
               (Array.map
                  (fun lv ->
                    Json.Obj
                      [
                        ("delta", Json.Num (float_of_int lv.lv_delta));
                        ("count", Json.Num (float_of_int lv.lv_count));
                        ("reuse", Json.Str (class_json lv.lv_class));
                        ("realized", Json.Bool lv.lv_realized);
                      ])
                  g.g_levels)) );
        ( "gaps",
          Json.Arr
            (Array.to_list
               (Array.map (fun g -> Json.Num (float_of_int g)) g.g_gaps)) );
        ("lines", Json.Num g.g_lines);
        ("misses", Json.Num g.g_misses);
        ("exact", Json.Bool g.g_exact);
      ]
  in
  let nest_json n =
    Json.Obj
      [
        ("nest", Json.Str n.n_name);
        ("trips", Json.Num (float_of_int n.n_trips));
        ("groups", Json.Arr (List.map group_json n.n_groups));
        ("lines", Json.Num n.n_lines);
        ("misses", Json.Num n.n_misses);
        ("exact", Json.Bool n.n_exact);
      ]
  in
  Json.Obj
    [
      ("program", Json.Str r.r_program);
      ( "geometry",
        Json.Obj
          [
            ("size_bytes", Json.Num (float_of_int r.r_geometry.Cache.size_bytes));
            ("assoc", Json.Num (float_of_int r.r_geometry.Cache.assoc));
            ("line_bytes", Json.Num (float_of_int r.r_geometry.Cache.line_bytes));
          ] );
      ("nests", Json.Arr (List.map nest_json r.r_nests));
      ("lines", Json.Num r.r_lines);
      ("misses", Json.Num r.r_misses);
      ("exact", Json.Bool r.r_exact);
    ]
