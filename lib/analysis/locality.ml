module Program = Mlo_ir.Program
module Nest_summary = Mlo_layout.Nest_summary
module Cache = Mlo_cachesim.Cache
module Hierarchy = Mlo_cachesim.Hierarchy
module Compiled_trace = Mlo_cachesim.Compiled_trace
module Trace = Mlo_obs.Trace
module Json = Mlo_obs.Json

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

type raw_group = {
  rg_array : string;
  rg_members : int list;
  rg_deltas : int array;  (** per level, dead levels (count <= 1) zeroed *)
  rg_counts : int array;
  rg_base : int;  (** leader = smallest addr0 *)
  rg_gaps : int array;  (** sorted distinct offsets, first 0 *)
}

let rec ints_from a b i =
  i = Array.length a || (a.(i) = b.(i) && ints_from a b (i + 1))

let ints_equal (a : int array) b =
  Array.length a = Array.length b && ints_from a b 0

let build_groups (nf : Compiled_trace.nest_form) =
  let counts = nf.Compiled_trace.form_counts in
  (* (array, deltas, members newest first), newest group first *)
  let groups = ref [] in
  Array.iteri
    (fun k (a : Compiled_trace.access_form) ->
      let deltas =
        Array.mapi
          (fun l d -> if counts.(l) <= 1 then 0 else d)
          a.Compiled_trace.form_deltas
      in
      let member = (k, a.Compiled_trace.form_addr0) in
      match
        List.find_opt
          (fun (name, d, _) ->
            String.equal name a.Compiled_trace.form_array && ints_equal d deltas)
          !groups
      with
      | Some (_, _, cell) -> cell := member :: !cell
      | None -> groups := (a.Compiled_trace.form_array, deltas, ref [ member ]) :: !groups)
    nf.Compiled_trace.form_accesses;
  List.rev_map
    (fun (name, deltas, cell) ->
      let members = List.rev !cell in
      let base = List.fold_left (fun m (_, a) -> min m a) max_int members in
      let gaps =
        List.sort_uniq compare (List.map (fun (_, a) -> a - base) members)
      in
      {
        rg_array = name;
        rg_members = List.map fst members;
        rg_deltas = deltas;
        rg_counts = counts;
        rg_base = base;
        rg_gaps = Array.of_list gaps;
      })
    !groups

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
   and the kept levels in order (the order reaches [absorb_gaps]' stable
   sort).  The view memo keys on the gap set and the per-level strides
   and trip counts.  A profile query reads one view per (loop order,
   group); it counts only on a view's first use and on a realized-level
   mask's first use, through the count memo. *)
let memo_count ~line memo (g : raw_group) levels =
  let key = (fmod g.rg_base line, g.rg_gaps, levels) in
  match Hashtbl.find_opt memo key with
  | Some c -> { c with cs_min = g.rg_base + c.cs_min }
  | None ->
    let c = group_count ~line g levels in
    Hashtbl.add memo key { c with cs_min = c.cs_min - g.rg_base };
    c

module View_key = struct
  type t = { offset : int; gaps : int array; deltas : int array; counts : int array }

  let equal a b =
    a.offset = b.offset && ints_equal a.gaps b.gaps
    && ints_equal a.deltas b.deltas && ints_equal a.counts b.counts

  let rec mix h a i =
    if i = Array.length a then h else mix ((h * 65599) + a.(i)) a (i + 1)

  let hash k =
    Hashtbl.hash (mix (mix (mix k.offset k.gaps 0) k.deltas 0) k.counts 0)
end

module View_tbl = Hashtbl.Make (View_key)

let memo_view ~(geometry : Cache.geometry) ~count tbl (g : raw_group) =
  let key =
    {
      View_key.offset = fmod g.rg_base geometry.Cache.line_bytes;
      gaps = g.rg_gaps;
      deltas = g.rg_deltas;
      counts = g.rg_counts;
    }
  in
  match View_tbl.find_opt tbl key with
  | Some v -> v
  | None ->
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
    match List.assoc_opt mask v.v_kept with
    | Some k -> k
    | None ->
      let k =
        (count g (kept_levels g ~keep:(fun l -> mask land (1 lsl l) <> 0)))
          .cs_lines
      in
      v.v_kept <- (mask, k) :: v.v_kept;
      k
  in
  Float.max v.v_cold.cs_lines (!factor *. kept)

(* [base.(l)] plus the footprint inside level [l] of the viewed groups. *)
let inner_lines base viewed =
  let inner = Array.copy base in
  List.iter
    (fun (_, v) ->
      for l = 0 to Array.length inner - 1 do
        inner.(l) <- inner.(l) +. v.v_inside.(l)
      done)
    viewed;
  inner

let analyze_nest ~geometry ~count ~view (nf : Compiled_trace.nest_form) =
  let line = geometry.Cache.line_bytes in
  let cap_lines = float_of_int (geometry.Cache.size_bytes / line) in
  let depth = Array.length nf.Compiled_trace.form_counts in
  let viewed = List.map (fun g -> (g, view g)) (build_groups nf) in
  let inner = inner_lines (Array.make depth 0.0) viewed in
  let colds =
    List.map
      (fun (g, v) -> (g, { v.v_cold with cs_min = g.rg_base + v.v_cold.cs_min }))
      viewed
  in
  (* Two groups of the same array whose byte ranges land on overlapping
     line intervals share lines the per-group counts each claim, so the
     summed distinct-line count is only an upper bound there. *)
  let overlaps_sibling (g, a) =
    List.exists
      (fun (g', b) ->
        g' != g
        && g'.rg_array = g.rg_array
        && fdiv a.cs_min line <= fdiv (b.cs_min + b.cs_span - 1) line
        && fdiv b.cs_min line <= fdiv (a.cs_min + a.cs_span - 1) line)
      colds
  in
  let finished =
    List.map2
      (fun (g, v) gc ->
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
          g_array = g.rg_array;
          g_accesses = g.rg_members;
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
    (fun ((rg, c), g) ->
      let prev =
        match Hashtbl.find_opt tbl rg.rg_array with
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
      Hashtbl.replace tbl rg.rg_array
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
  let count = memo_count ~line (Hashtbl.create 64) in
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

(* A group of a nest, in the nest with its loops reordered by [perm]
   (level [l] of the result is level [perm.(l)] of [g]'s nest): the
   grouping, leader and offsets do not depend on the loop order. *)
let permute_group perm (g : raw_group) =
  {
    g with
    rg_deltas = Array.map (fun p -> g.rg_deltas.(p)) perm;
    rg_counts = Array.map (fun p -> g.rg_counts.(p)) perm;
  }

(* The profiler's per-program entry: the program staged once, plus the
   query memo.  A profile is a pure function of (program, metric, array,
   layout); programs are immutable and dominance pruning asks the same
   (array, layout) questions every time it sees the same program — a
   long-running optimizer service, or the bench harness re-extracting
   the same spec, re-profiles nothing after the first pass.  Entries are
   kept by [Program.memo], keyed by physical program identity in an
   ephemeron table: the staged trace refers back to its program, and an
   ephemeron's data does not keep its key alive, so an entry dies with
   its program.  One mutex per entry: a caller may query from several
   Domains. *)
type metric = Misses | Lines

module Profile_key = struct
  type t = string * Mlo_layout.Layout.t * metric

  let equal (a, la, ma) (b, lb, mb) =
    String.equal a b && ma = mb && Mlo_layout.Layout.equal la lb

  let hash (a, l, m) = Hashtbl.hash (a, Mlo_layout.Layout.hash l, m)
end

module Profile_tbl = Hashtbl.Make (Profile_key)

type profile_entry = {
  pe_trace : Compiled_trace.t;
      (** every array at its default layout: the staged address map a
          query relayouts one array of *)
  pe_forms : Compiled_trace.nest_form array;  (** [pe_trace]'s forms *)
  pe_perms : int array list array;  (** per nest: dependence-legal orders *)
  pe_touched : (string, int array * int array array) Hashtbl.t;
      (** array name -> the nests referencing it, ascending, and per
          such nest the indices of the array's accesses, ascending *)
  pe_others : (int * string, float array list) Hashtbl.t;
      (** (nest, array) -> per legal order, the footprint inside each
          level of every other array's groups *)
  pe_count : raw_group -> (int * int) list -> count;
      (** [group_count], memoized over the entry *)
  pe_view : raw_group -> view;  (** [make_view], memoized over the entry *)
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
  let count = memo_count ~line (Hashtbl.create 256) in
  {
    pe_trace = trace;
    pe_forms = forms;
    pe_perms =
      (let summary = Nest_summary.of_program prog in
       Array.mapi (fun i _ -> (Nest_summary.nest summary i).Nest_summary.orders) forms);
    pe_touched =
      Hashtbl.of_seq
        (Seq.map
           (fun (name, per_nest) ->
             ( name,
               ( Array.of_list (List.map fst per_nest),
                 Array.of_list (List.map (fun (_, ks) -> Array.of_list ks) per_nest) ) ))
           (Hashtbl.to_seq touched));
    pe_others = Hashtbl.create 64;
    pe_count = count;
    pe_view = memo_view ~geometry:default_geometry ~count (View_tbl.create 256);
    pe_profiles = Profile_tbl.create 64;
    pe_lock = Mutex.create ();
  }

let profile_entry = Program.memo make_profile_entry

(* Nest [i]'s charge for [array_name], minimized over the nest's legal
   orders, from [mine], the array's accesses in the nest under the
   queried layout.  Only the array's own groups are analyzed: under
   [Misses] the rest of the nest enters only through the footprint
   inside each level, which does not depend on the queried layout and is
   staged per (nest, legal order, array) on first use, from the staged
   forms — every [cs_lines] is an integer far below 2^53, so splitting
   that sum is exact. *)
let nest_profile entry ~metric ~array_name i mine =
  let nf = entry.pe_forms.(i) in
  let viewed perm gs =
    List.map
      (fun g ->
        let g = permute_group perm g in
        (g, entry.pe_view g))
      gs
  in
  let mine = build_groups { nf with form_accesses = mine }
  and perms = entry.pe_perms.(i) in
  match metric with
  | Lines ->
    List.fold_left
      (fun best perm ->
        Float.min best
          (List.fold_left
             (fun acc (_, v) -> acc +. v.v_cold.cs_lines)
             0.0 (viewed perm mine)))
      infinity perms
  | Misses ->
    let inners =
      match Hashtbl.find_opt entry.pe_others (i, array_name) with
      | Some inners -> inners
      | None ->
        let others =
          List.filter
            (fun g -> not (String.equal g.rg_array array_name))
            (build_groups nf)
        and none = Array.map (fun _ -> 0.0) nf.form_counts in
        let inners =
          List.map (fun perm -> inner_lines none (viewed perm others)) perms
        in
        Hashtbl.add entry.pe_others (i, array_name) inners;
        inners
    in
    let cap_lines =
      float_of_int
        (default_geometry.Cache.size_bytes / default_geometry.Cache.line_bytes)
    in
    List.fold_left2
      (fun best perm others ->
        let vs = viewed perm mine in
        let inner = inner_lines others vs in
        Float.min best
          (List.fold_left
             (fun acc (g, v) ->
               acc +. group_misses ~count:entry.pe_count ~cap_lines ~inner v g)
             0.0 vs))
      infinity perms inners

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
          | Some (nests, accesses) ->
            Array.mapi
              (fun j mine -> nest_profile entry ~metric ~array_name nests.(j) mine)
              (Compiled_trace.relayout entry.pe_trace ~array_name ~layout ~nests
                 ~accesses)
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
