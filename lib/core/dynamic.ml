module Program = Mlo_ir.Program
module Array_info = Mlo_ir.Array_info
module Loop_nest = Mlo_ir.Loop_nest
module Layout = Mlo_layout.Layout
module Hierarchy = Mlo_cachesim.Hierarchy
module Address_map = Mlo_cachesim.Address_map
module Compiled_trace = Mlo_cachesim.Compiled_trace

type segment = { first_nest : int; last_nest : int }

let uniform_segments prog k =
  let n = Array.length (Program.nests prog) in
  if k < 1 || k > n then invalid_arg "Dynamic.uniform_segments: bad count";
  List.init k (fun s ->
      let first = s * n / k in
      let last = ((s + 1) * n / k) - 1 in
      { first_nest = first; last_nest = last })

let segment_program prog seg =
  let nests = Program.nests prog in
  let n = Array.length nests in
  if seg.first_nest < 0 || seg.last_nest >= n || seg.first_nest > seg.last_nest
  then invalid_arg "Dynamic.segment_program: bad segment";
  let sub =
    Array.to_list (Array.sub nests seg.first_nest (seg.last_nest - seg.first_nest + 1))
  in
  Program.make
    ~name:(Printf.sprintf "%s.seg%d-%d" (Program.name prog) seg.first_nest seg.last_nest)
    (Array.to_list (Program.arrays prog))
    sub

type plan = {
  segments : segment list;
  per_segment : (string * Layout.t) list list;
  changes : (int * string) list;
}

let touched_by prog seg name =
  let nests = Program.nests prog in
  let rec go i =
    i <= seg.last_nest
    && (List.mem name (Loop_nest.arrays_touched nests.(i)) || go (i + 1))
  in
  go seg.first_nest

let plan ?candidates ?max_checks ~seed prog ~segments =
  let solved =
    List.map
      (fun seg ->
        let sub = segment_program prog seg in
        let sol =
          Optimizer.optimize ?candidates ?max_checks (Optimizer.Enhanced seed) sub
        in
        (seg, sol.Optimizer.layouts))
      segments
  in
  (* arrays a segment does not touch keep their previous layout: remapping
     them would be pure waste, and the sub-solver's choice for them is
     arbitrary *)
  let per_segment =
    match solved with
    | [] -> []
    | (_, first) :: rest ->
      let _, acc =
        List.fold_left
          (fun (prev, acc) (seg, cur) ->
            let merged =
              List.map
                (fun (name, layout) ->
                  if touched_by prog seg name then (name, layout)
                  else
                    match List.assoc_opt name prev with
                    | Some keep -> (name, keep)
                    | None -> (name, layout))
                cur
            in
            (merged, merged :: acc))
          (first, [ first ]) rest
      in
      List.rev acc
  in
  let changes =
    match per_segment with
    | [] -> []
    | first :: rest ->
      let _, changes =
        List.fold_left
          (fun (prev, acc) (idx, cur) ->
            let acc =
              List.fold_left
                (fun acc (name, layout) ->
                  match List.assoc_opt name prev with
                  | Some old when not (Layout.equal old layout) ->
                    (idx, name) :: acc
                  | Some _ | None -> acc)
                acc cur
            in
            (cur, acc))
          (first, [])
          (List.mapi (fun i l -> (i + 1, l)) rest)
      in
      List.rev changes
  in
  { segments; per_segment; changes }

(* ------------------------------------------------------------------ *)
(* Optimal segmentation                                                 *)
(* ------------------------------------------------------------------ *)

module Locality = Mlo_layout.Locality
module Nest_summary = Mlo_layout.Nest_summary

let optimal_segments ?candidates ?max_checks ?(change_cost = 10.0) ~seed prog =
  let nests = Program.nests prog in
  let n = Array.length nests in
  if n > 32 then
    invalid_arg "Dynamic.optimal_segments: too many nests for exact DP";
  let summary = Nest_summary.of_program prog in
  (* layouts of the enhanced solution for the segment [i..j], memoized *)
  let seg_layouts = Hashtbl.create 64 in
  (* [None] marks a candidate segment whose network could not be solved
     within budget: the DP prices it as infinitely expensive rather than
     aborting (single-nest segments always remain as a fallback). *)
  let layouts_of i j =
    match Hashtbl.find_opt seg_layouts (i, j) with
    | Some l -> l
    | None ->
      let l =
        match
          let sub = segment_program prog { first_nest = i; last_nest = j } in
          Optimizer.optimize ?candidates ?max_checks (Optimizer.Enhanced seed)
            sub
        with
        | sol -> Some sol.Optimizer.layouts
        | exception Optimizer.No_solution _ -> None
      in
      Hashtbl.replace seg_layouts (i, j) l;
      l
  in
  (* locality left on the table by a segment under its own layouts:
     unserved reference iterations, after each nest picks its best legal
     loop order *)
  let max_ref_score = 5 in
  let seg_penalty i j =
    match layouts_of i j with
    | None -> infinity
    | Some layouts ->
    let lookup name = List.assoc_opt name layouts in
    let total = ref 0.0 in
    for k = i to j do
      let nk = Nest_summary.nest summary k in
      let inner = Nest_summary.innermost (Nest_summary.best_order nk lookup) in
      let per_iter =
        Array.fold_left
          (fun acc (a : Nest_summary.access) ->
            let s =
              match lookup a.array with
              | Some l -> Locality.delta_score l a.columns.(inner)
              | None -> max_ref_score
            in
            acc + (max_ref_score - s))
          0 nk.Nest_summary.accesses
      in
      total :=
        !total +. float_of_int (per_iter * Loop_nest.trip_count nests.(k))
    done;
    !total
  in
  (* copy traffic paid when moving from segment [pi..pj] to [i..j] *)
  let transition (pi, pj) (i, j) =
    match (layouts_of pi pj, layouts_of i j) with
    | None, _ | _, None -> infinity
    | Some prev, Some cur ->
      Array.fold_left
        (fun acc info ->
          let name = Array_info.name info in
          if not (touched_by prog { first_nest = i; last_nest = j } name) then
            acc (* untouched arrays are not remapped (see plan) *)
          else
            match (List.assoc_opt name prev, List.assoc_opt name cur) with
            | Some a, Some b when not (Layout.equal a b) ->
              acc +. (change_cost *. float_of_int (Array_info.cells info))
            | _, _ -> acc)
        0.0 (Program.arrays prog)
  in
  (* g.(i).(j) = best cost covering [0..j] with last segment [i..j] *)
  let g = Array.make_matrix n n infinity in
  let choice = Array.make_matrix n n (-1) in
  for j = 0 to n - 1 do
    for i = 0 to j do
      let own = seg_penalty i j in
      if i = 0 then g.(i).(j) <- own
      else begin
        for i' = 0 to i - 1 do
          let c = g.(i').(i - 1) +. transition (i', i - 1) (i, j) +. own in
          if c < g.(i).(j) then begin
            g.(i).(j) <- c;
            choice.(i).(j) <- i'
          end
        done
      end
    done
  done;
  (* best last segment *)
  let best_i = ref 0 in
  for i = 1 to n - 1 do
    if g.(i).(n - 1) < g.(!best_i).(n - 1) then best_i := i
  done;
  let rec unwind i j acc =
    let seg = { first_nest = i; last_nest = j } in
    if i = 0 then seg :: acc
    else unwind choice.(i).(j) (i - 1) (seg :: acc)
  in
  unwind !best_i (n - 1) []

type report = {
  compute : Hierarchy.counters;
  copy_accesses : int;
  remaps : int;
}

(* Remap one array: read each element at its old address, write it at the
   new one. *)
let remap machine ~old_map ~new_map info =
  let name = Array_info.name info in
  let extents = Array_info.extents info in
  let rank = Array.length extents in
  let idx = Array.make rank 0 in
  let count = ref 0 in
  let rec go d =
    if d = rank then begin
      Compiled_trace.access machine (Address_map.address old_map name idx);
      Compiled_trace.access machine (Address_map.address new_map name idx);
      count := !count + 2
    end
    else
      for x = 0 to extents.(d) - 1 do
        idx.(d) <- x;
        go (d + 1)
      done
  in
  go 0;
  !count

let simulate_plan prog plan =
  let machine = Compiled_trace.machine () in
  let copy_accesses = ref 0 in
  let remaps = ref 0 in
  let prev_map = ref None in
  List.iter2
    (fun seg layouts ->
      let lookup name = List.assoc_opt name layouts in
      let sub = segment_program prog seg in
      let restructured = Mlo_netgen.Select.restructure sub lookup in
      let amap = Address_map.build prog ~layouts:lookup in
      (match !prev_map with
      | None -> ()
      | Some (prev_amap, prev_layouts) ->
        Array.iter
          (fun info ->
            let name = Array_info.name info in
            let changed =
              match (List.assoc_opt name prev_layouts, lookup name) with
              | Some a, Some b -> not (Layout.equal a b)
              | _, _ -> false
            in
            if changed then begin
              incr remaps;
              copy_accesses :=
                !copy_accesses
                + remap machine ~old_map:prev_amap ~new_map:amap info
            end)
          (Program.arrays prog));
      (* the segment's arrays are the whole program's, so its trace has
         the addresses of [amap] *)
      Compiled_trace.run machine
        (Compiled_trace.compile restructured ~layouts:lookup);
      prev_map := Some (amap, layouts))
    plan.segments plan.per_segment;
  {
    compute = Compiled_trace.counters machine;
    copy_accesses = !copy_accesses;
    remaps = !remaps;
  }
