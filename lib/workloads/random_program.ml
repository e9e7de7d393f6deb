module Intvec = Mlo_linalg.Intvec
module Affine = Mlo_ir.Affine
module Access = Mlo_ir.Access
module Loop_nest = Mlo_ir.Loop_nest
module Array_info = Mlo_ir.Array_info
module Program = Mlo_ir.Program
module Hyperplane = Mlo_layout.Hyperplane
module Layout = Mlo_layout.Layout
module Rng = Mlo_csp.Rng

type params = {
  name : string;
  seed : int;
  num_arrays : int;
  num_nests : int;
  extent : int;
  sim_extent : int;
  min_arrays_per_nest : int;
  max_arrays_per_nest : int;
  conflict_percent : int;
  skew_percent : int;
  temporal_percent : int;
  group_size : int;
  ref_conflict_percent : int;
  nest_depth : int;
  shift_nests : int;
}

let default =
  {
    name = "random";
    seed = 1;
    num_arrays = 8;
    num_nests = 12;
    extent = 64;
    sim_extent = 64;
    min_arrays_per_nest = 2;
    max_arrays_per_nest = 3;
    conflict_percent = 30;
    skew_percent = 30;
    temporal_percent = 30;
    group_size = 0;
    ref_conflict_percent = 0;
    nest_depth = 2;
    shift_nests = 0;
  }

(* The scale family: component-rich programs from tens to thousands of
   arrays.  Grouping arrays into pools of 8 makes the extracted network
   decompose into at least [num_arrays / 8] connected components (arrays
   of different groups never share a nest), which is the shape
   whole-program inputs actually have — and the shape the component
   solver feeds on.  Nest count grows at 2/5 the
   array count so per-group constraint density stays near the paper's
   benchmarks; [sim_extent] is halved to keep trace-driven validation of
   the big instances affordable. *)
let scale ?(seed = 11) num_arrays =
  {
    name = Printf.sprintf "scale-%d" num_arrays;
    seed = seed + num_arrays;
    num_arrays;
    num_nests = max 8 (2 * num_arrays / 5);
    extent = 64;
    sim_extent = 32;
    min_arrays_per_nest = 2;
    max_arrays_per_nest = 4;
    conflict_percent = 30;
    skew_percent = 60;
    temporal_percent = 20;
    group_size = 8;
    ref_conflict_percent = 0;
    nest_depth = 2;
    shift_nests = max 1 (num_arrays / 10);
  }

(* The hard family: one dense co-reference component near the
   satisfiability phase transition.  Nests are 3-deep over a 3-layout
   palette, so every legal loop order induces one of three layout
   demands per reference and the extracted pair constraints become
   matching-like relations in which EVERY value keeps a support — arc
   consistency and forward checking are blind to them, and the search
   must discover globally-inconsistent loop-order choices deep in the
   tree.  Most references put the planted (intended) layout on the
   innermost loop; [ref_conflict_percent] of them scramble their slot
   order, which breaks the planted solution locally and tunes the
   instance toward the transition.  This is the regime where plain
   conflict-directed backjumping rediscovers the same deep conflicts
   endlessly while nogood learning prunes them once. *)
let hard ?(seed = 23) num_arrays =
  {
    name = Printf.sprintf "hard-%d" num_arrays;
    seed = seed + (3 * num_arrays);
    num_arrays;
    num_nests = 2 * num_arrays;
    extent = 64;
    sim_extent = 32;
    min_arrays_per_nest = 3;
    max_arrays_per_nest = 4;
    conflict_percent = 0;
    skew_percent = 0;
    temporal_percent = 10;
    group_size = 0;
    ref_conflict_percent = 50;
    nest_depth = 3;
    shift_nests = 0;
  }

(* The 2-D layout palette of the paper's examples: row-major,
   column-major, both diagonals, and the skewed families the Section 3
   network uses (e.g. (1 2)). *)
let palette =
  [|
    [| 1; 0 |];
    [| 0; 1 |];
    [| 1; -1 |];
    [| 1; 1 |];
    [| 1; 2 |];
    [| 2; 1 |];
    [| 1; -2 |];
    [| 2; -1 |];
  |]

let array_name q = Printf.sprintf "Q%d" (q + 1)

(* The layouts this configuration draws from: in the deep regime the
   first [nest_depth] entries (tight domains — every nest competes over
   the same few layouts, one per loop), the whole palette otherwise. *)
let palette_for p =
  if p.nest_depth >= 3 then
    Array.sub palette 0 (min p.nest_depth (Array.length palette))
  else palette

let intended_vector p q =
  (* stable per-array draw, independent of nest generation *)
  let rng = Rng.create ((p.seed * 7919) + q) in
  let pal = palette_for p in
  pal.(Rng.int rng (Array.length pal))

let intended_layouts p =
  List.init p.num_arrays (fun q ->
      ( array_name q,
        Layout.of_hyperplane (Hyperplane.make (intended_vector p q)) ))

(* Innermost-loop stride that makes layout [y] the preferred one:
   the canonical vector orthogonal to [y] in 2-D. *)
let delta_for y = Intvec.canonical [| y.(1); -y.(0) |]

let independent_outer rng ~skew_percent delta =
  let skewed = Rng.int rng 100 < skew_percent in
  let candidates =
    if skewed then
      [
        [| 1; 1 |]; [| 1; -1 |]; [| 1; 2 |]; [| 2; 1 |]; [| 1; -2 |];
        [| 2; -1 |]; [| 1; 0 |]; [| 0; 1 |];
      ]
    else [ [| 1; 0 |]; [| 0; 1 |] ]
  in
  let independent o = (o.(0) * delta.(1)) - (o.(1) * delta.(0)) <> 0 in
  let ok = List.filter independent candidates in
  List.nth ok (Rng.int rng (List.length ok))

(* A planned reference: one stride column per loop, outermost first.
   Two-loop nests keep the classic [outer; inner] shape (inner zero for
   temporal references); deeper nests carry one palette delta per loop
   so the demanded layout depends on which loop ends up innermost. *)
type planned_ref = {
  array_ : int;
  cols : Intvec.t array; (* length = nest depth *)
  fixed : int; (* minor index for rows with no loop dependence *)
  write : bool;
}

type planned_nest = { label : string; refs : planned_ref list; cheap : bool }

(* All arrays share one square extent; loop bounds shrink per nest so
   skewed references stay inside it: with per-row coefficient weight
   w = sum_l |cols_l(r)|, indices span w * (bound - 1), so the nest
   runs its loops to bound = (extent - 1) / w_max + 1. *)
let ref_weight r =
  let w d = Array.fold_left (fun acc c -> acc + abs c.(d)) 0 r.cols in
  max (max (w 0) (w 1)) 1

let nest_bound ~extent refs =
  let wmax = List.fold_left (fun acc r -> max acc (ref_weight r)) 1 refs in
  max 2 (((extent - 1) / wmax) + 1)

let plan p =
  let rng = Rng.create p.seed in
  let pick_arrays () =
    let k =
      p.min_arrays_per_nest
      + Rng.int rng (p.max_arrays_per_nest - p.min_arrays_per_nest + 1)
    in
    if p.group_size <= 0 || p.group_size >= p.num_arrays then begin
      let k = min k p.num_arrays in
      let perm = Rng.shuffled_init rng p.num_arrays in
      Array.to_list (Array.sub perm 0 k)
    end
    else begin
      (* grouped: a nest only ever references arrays of one group, so
         groups are independent components of the extracted network *)
      let ngroups = (p.num_arrays + p.group_size - 1) / p.group_size in
      let g = Rng.int rng ngroups in
      let lo = g * p.group_size in
      let size = min p.group_size (p.num_arrays - lo) in
      let k = min k size in
      let perm = Rng.shuffled_init rng size in
      List.init k (fun i -> lo + perm.(i))
    end
  in
  (* Deep nests draw contiguous windows on the array ring instead of
     independent samples: overlapping windows re-cover the same array
     pairs, so each pair constraint is a union of several distinct
     matchings (loose, arc-consistent relations) rather than a single
     tight bijection, and the constraint graph is a ring of short
     chords — the bounded-width shape on which chronological search
     keeps re-solving the same subproblems while learned nogoods cache
     them. *)
  let pick_window () =
    let k =
      p.min_arrays_per_nest
      + Rng.int rng (p.max_arrays_per_nest - p.min_arrays_per_nest + 1)
    in
    let k = min k p.num_arrays in
    let start = Rng.int rng p.num_arrays in
    List.init k (fun i -> (start + i) mod p.num_arrays)
  in
  (* [conflict]: every non-temporal reference pulls its array toward an
     alternative to the intended layout. *)
  let make_refs arrays_chosen ~conflict ~allow_temporal =
    List.mapi
      (fun pos q ->
        if allow_temporal && Rng.int rng 100 < p.temporal_percent then begin
          (* innermost-invariant reference: no layout demand, so the
             restructurings that see it constrain only the other arrays
             (wildcard pairs in the network) *)
          let o = independent_outer rng ~skew_percent:p.skew_percent [| 0; 1 |] in
          {
            array_ = q;
            cols = [| o; [| 0; 0 |] |];
            fixed = Rng.int rng 4;
            write = pos = 0;
          }
        end
        else begin
          let y =
            if conflict then begin
              let alternatives =
                Array.to_list (palette_for p)
                |> List.filter (fun v ->
                       not (Intvec.equal v (intended_vector p q)))
              in
              List.nth alternatives (Rng.int rng (List.length alternatives))
            end
            else intended_vector p q
          in
          let delta = delta_for y in
          let o = independent_outer rng ~skew_percent:p.skew_percent delta in
          { array_ = q; cols = [| o; delta |]; fixed = 0; write = pos = 0 }
        end)
      arrays_chosen
  in
  (* Deep references (nest_depth >= 3): one palette delta per loop, so
     under each legal loop order the reference demands the layout whose
     delta sits on the innermost loop.  The nests are read-only — no
     dependences, every loop order legal — so each nest contributes a
     full matching between its arrays' palettes: every domain value
     keeps a support in every pair constraint and arc consistency
     cannot see the inconsistencies, which live in the global choice of
     innermost loop per nest.  Aligned references put the intended
     layout on the last loop, so the original (identity) order is the
     planted one — and temporal references, whose single active column
     sits on the first loop, stay demand-free under it; with
     probability [ref_conflict_percent] a reference scrambles its
     slots instead, locally breaking the planted order. *)
  let make_refs_deep arrays_chosen =
    let pal = palette_for p in
    let depth = Array.length pal in
    List.map
      (fun q ->
        if Rng.int rng 100 < p.temporal_percent then begin
          (* one active column: innermost-invariant (no demand) except
             under the orders that rotate that column innermost *)
          let o = delta_for pal.(Rng.int rng (Array.length pal)) in
          let cols =
            Array.init depth (fun l -> if l = 0 then o else [| 0; 0 |])
          in
          { array_ = q; cols; fixed = Rng.int rng 4; write = false }
        end
        else begin
          let y0 = intended_vector p q in
          let rest =
            Array.of_list
              (List.filter
                 (fun v -> not (Intvec.equal v y0))
                 (Array.to_list pal))
          in
          let perm = Rng.shuffled_init rng (Array.length rest) in
          let slots =
            Array.init depth (fun l ->
                if l = depth - 1 then y0 else rest.(perm.(l)))
          in
          if Rng.int rng 100 < p.ref_conflict_percent then begin
            let sp = Rng.shuffled_init rng depth in
            let orig = Array.copy slots in
            Array.iteri (fun l _ -> slots.(l) <- orig.(sp.(l))) slots
          end;
          {
            array_ = q;
            cols = Array.map delta_for slots;
            fixed = 0;
            write = false;
          }
        end)
      arrays_chosen
  in
  let nests = ref [] in
  for n = 0 to p.num_nests - 1 do
    if p.nest_depth >= 3 then
      let arrays_chosen = pick_window () in
      (* deep regime: hardness comes from the per-nest innermost-loop
         choice, not from per-nest conflicts or twins *)
      nests :=
        { label = Printf.sprintf "deep%d" n;
          refs = make_refs_deep arrays_chosen;
          cheap = false }
        :: !nests
    else begin
      let arrays_chosen = pick_arrays () in
      if Rng.int rng 100 < p.conflict_percent then begin
        (* an expensive conflicting nest, plus its cheaper aligned twin
           over the same arrays, keeping the intended combination
           available in every constraint the conflicting nest creates.
           The twin never draws temporal references: it must anchor the
           intended pair for every array pair of the nest. *)
        let refs =
          make_refs arrays_chosen ~conflict:true ~allow_temporal:true
        in
        nests :=
          { label = Printf.sprintf "conflict%d" n; refs; cheap = false }
          :: !nests;
        let twin_refs =
          make_refs arrays_chosen ~conflict:false ~allow_temporal:false
        in
        nests :=
          { label = Printf.sprintf "aligned%d_twin" n;
            refs = twin_refs;
            cheap = true }
          :: !nests
      end
      else begin
        let refs =
          make_refs arrays_chosen ~conflict:false ~allow_temporal:true
        in
        nests :=
          { label = Printf.sprintf "aligned%d" n; refs; cheap = false }
          :: !nests
      end
    end
  done;
  List.rev !nests

(* Materialize index expressions for a reference at a given loop bound:
   constants lift negative strides back into [0, extent). *)
let reference_indices ~bound r =
  List.init 2 (fun d ->
      let coeffs = Array.map (fun c -> c.(d)) r.cols in
      let neg_magnitude =
        Array.fold_left (fun acc c -> acc + max 0 (-c)) 0 coeffs
      in
      let lift =
        if Array.for_all (fun c -> c = 0) coeffs then r.fixed
        else neg_magnitude * (bound - 1)
      in
      Affine.{ coeffs; const = lift })

let loop_vars = [| "i"; "j"; "k"; "l"; "m"; "n" |]

(* Windowed-update nests (the [shift_nests] axis): store Q[i+b][j],
   load Q[i][j+1] over i, j in [0, b) with b = extent/2.  The pair is
   uniform with distance (b, -1) — beyond the i trip count, so the
   exact dependence engine proves independence and frees the
   interchange, where a bounds-blind analysis pins the nest to its
   source order.  Each nest references a single array, so it adds no
   pair constraints: component structure and satisfiability of the
   classic nests are untouched.  Deterministic and RNG-free, so
   [shift_nests = 0] configurations generate bit-identically to the
   pre-shift family. *)
let shift_nest p ~extent s =
  let b = max 1 (extent / 2) in
  let q = s mod p.num_arrays in
  let loops =
    [
      { Loop_nest.var = "i"; lo = 0; hi = b };
      { Loop_nest.var = "j"; lo = 0; hi = b };
    ]
  in
  let store =
    Access.make Access.Write (array_name q)
      [
        Affine.{ coeffs = [| 1; 0 |]; const = b };
        Affine.{ coeffs = [| 0; 1 |]; const = 0 };
      ]
  in
  let load =
    Access.make Access.Read (array_name q)
      [
        Affine.{ coeffs = [| 1; 0 |]; const = 0 };
        Affine.{ coeffs = [| 0; 1 |]; const = 1 };
      ]
  in
  Loop_nest.make ~name:(Printf.sprintf "shift%d" s) loops [ store; load ]

let realize p ~extent =
  let planned = plan p in
  let arrays =
    List.init p.num_arrays (fun q ->
        Array_info.make (array_name q) [ extent; extent ])
  in
  let nests =
    List.map
      (fun pn ->
        let bound = nest_bound ~extent pn.refs in
        let bound = if pn.cheap then max 2 (bound / 2) else bound in
        let depth =
          match pn.refs with r :: _ -> Array.length r.cols | [] -> 2
        in
        let loops =
          List.init depth (fun l ->
              let var =
                if l < Array.length loop_vars then loop_vars.(l)
                else Printf.sprintf "i%d" l
              in
              { Loop_nest.var; lo = 0; hi = bound })
        in
        let accesses =
          List.map
            (fun r ->
              let kind = if r.write then Access.Write else Access.Read in
              Access.make kind (array_name r.array_)
                (reference_indices ~bound r))
            pn.refs
        in
        Loop_nest.make ~name:pn.label loops accesses)
      planned
  in
  let shifts = List.init (max 0 p.shift_nests) (shift_nest p ~extent) in
  Program.make ~name:p.name arrays (nests @ shifts)

let generate p = realize p ~extent:p.extent
let generate_sim p = realize p ~extent:p.sim_extent
