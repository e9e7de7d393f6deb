(* Static locality analyzer vs the exact simulator, and the dominance
   pruning built on top of it. *)

module Locality = Mlo_analysis.Locality
module Costcheck = Mlo_analysis.Costcheck
module Diagnostic = Mlo_analysis.Diagnostic
module Simulate = Mlo_cachesim.Simulate
module Hierarchy = Mlo_cachesim.Hierarchy
module Cache = Mlo_cachesim.Cache
module Address_map = Mlo_cachesim.Address_map
module Compiled_trace = Mlo_cachesim.Compiled_trace
module Suite = Mlo_workloads.Suite
module Spec = Mlo_workloads.Spec
module Random_program = Mlo_workloads.Random_program
module Program = Mlo_ir.Program
module Array_info = Mlo_ir.Array_info
module Loop_nest = Mlo_ir.Loop_nest
module Dependence = Mlo_ir.Dependence
module B = Mlo_ir.Builder
module Layout = Mlo_layout.Layout
module Network = Mlo_csp.Network
module Solver = Mlo_csp.Solver
module Schemes = Mlo_csp.Schemes
module Build = Mlo_netgen.Build
module Prune = Mlo_netgen.Prune
module Fixtures = Mlo_oracle.Fixtures

let none _ = None

(* ------------------------------------------------------------------ *)
(* Accuracy on the benchmark suite                                      *)
(* ------------------------------------------------------------------ *)

(* Acceptance bound: the closed-form estimate must land within 15% of
   the simulated L1 misses on every suite benchmark at sim sizes. *)
let test_suite_accuracy () =
  List.iter
    (fun spec ->
      let sim_prog = spec.Spec.sim_program in
      let r = Locality.analyze sim_prog ~layouts:none in
      let sim = Simulate.run sim_prog ~layouts:none in
      let actual = float_of_int sim.Simulate.counters.Hierarchy.l1_misses in
      let err = Float.abs (r.Locality.r_misses -. actual) /. actual in
      Alcotest.(check bool)
        (Printf.sprintf "%s within 15%% (est %.0f, sim %.0f, err %.3f)"
           spec.Spec.name r.Locality.r_misses actual err)
        true (err <= 0.15))
    (Suite.all ())

(* ------------------------------------------------------------------ *)
(* Exactness on a fully-associative no-capacity cache                   *)
(* ------------------------------------------------------------------ *)

(* Single-nest random programs with small affine accesses.  On a
   fully-associative cache whose capacity covers the footprint every
   reuse is realized, so the estimate degenerates to the distinct-line
   count — which must match the simulator's cold misses to the line
   whenever the analyzer claims exactness. *)
let gen_exact_case seed =
  let st = Random.State.make [| 0x10ca11; seed |] in
  let depth = 2 + Random.State.int st 2 in
  let trips = Array.init depth (fun _ -> 2 + Random.State.int st 5) in
  let var_names = List.init depth (fun l -> Printf.sprintf "i%d" l) in
  let x = B.ctx var_names in
  let num_arrays = 1 + Random.State.int st 3 in
  let arrays = ref [] and accesses = ref [] in
  for a = 0 to num_arrays - 1 do
    let name = Printf.sprintf "A%d" a in
    let rank = 2 in
    let extents = Array.make rank 1 in
    (* Separable accesses — at most one loop variable per dimension, the
       shape the closed forms count exactly.  One coefficient matrix per
       array; later accesses usually reuse it with shifted offsets (same
       delta vector -> one exactly-counted group), occasionally diverge
       (overlapping groups -> the analyzer must drop its exactness
       claim, also exercised). *)
    let pick_coeffs () =
      Array.init rank (fun _ ->
          let row = Array.make depth 0 in
          let v = Random.State.int st depth in
          row.(v) <- Random.State.int st 3;
          row)
    in
    let base_coeffs = pick_coeffs () in
    let n_acc = 1 + Random.State.int st 2 in
    for acc = 0 to n_acc - 1 do
      let fresh = acc > 0 && Random.State.int st 10 = 0 in
      let dims =
        List.init rank (fun d ->
            let coeffs = if fresh then (pick_coeffs ()).(d) else base_coeffs.(d) in
            let offset = Random.State.int st 3 in
            let expr =
              Array.to_list coeffs
              |> List.mapi (fun l c -> B.(c *: var x (List.nth var_names l)))
              |> List.fold_left B.( +: ) (B.const x offset)
            in
            let max_val =
              offset
              + (Array.to_list coeffs
                |> List.mapi (fun l c -> c * (trips.(l) - 1))
                |> List.fold_left ( + ) 0)
            in
            extents.(d) <- max extents.(d) (max_val + 1);
            expr)
      in
      accesses := B.read name dims :: !accesses
    done;
    arrays := Array_info.make name (Array.to_list extents) :: !arrays
  done;
  let nest = B.nest "n0" x (Array.to_list trips) (List.rev !accesses) in
  let prog =
    Program.make ~name:(Printf.sprintf "exact%d" seed) (List.rev !arrays)
      [ nest ]
  in
  let line = [| 16; 32; 64 |].(Random.State.int st 3) in
  let footprint =
    Address_map.footprint_bytes (Address_map.build prog ~layouts:none)
  in
  let size = ref (max line 64) in
  while !size < footprint do
    size := 2 * !size
  done;
  let geo = Cache.geometry ~size_bytes:!size ~assoc:(!size / line) ~line_bytes:line in
  let config =
    {
      Hierarchy.l1 = geo;
      l2 =
        Cache.geometry ~size_bytes:(2 * !size)
          ~assoc:(2 * !size / line)
          ~line_bytes:line;
      l1_latency = 1;
      l2_latency = 6;
      memory_latency = 70;
      compute_cycles_per_access = 1;
    }
  in
  (prog, geo, config)

let check_exact_case seed =
  let prog, geo, config = gen_exact_case seed in
  let r = Locality.analyze ~geometry:geo prog ~layouts:none in
  let sim =
    float_of_int
      (Simulate.run ~config prog ~layouts:none).Simulate.counters
        .Hierarchy.l1_misses
  in
  let exact_holds = (not r.Locality.r_exact) || r.Locality.r_misses = sim in
  (r.Locality.r_exact, exact_holds)

let prop_fully_assoc_exact =
  QCheck.Test.make
    ~name:"exact-flagged estimates equal cold misses on a fully-assoc cache"
    ~count:150 QCheck.small_nat (fun seed -> snd (check_exact_case seed))

(* The exactness qualifier must not be vacuous: the family is built so
   the analyzer commits to an exact count on the large majority of it. *)
let test_exactness_frequency () =
  let exact = ref 0 and total = 200 in
  for seed = 0 to total - 1 do
    let was_exact, holds = check_exact_case seed in
    Alcotest.(check bool)
      (Printf.sprintf "seed %d exact estimate equals simulation" seed)
      true holds;
    if was_exact then incr exact
  done;
  Alcotest.(check bool)
    (Printf.sprintf "exact on most of the family (%d/%d)" !exact total)
    true
    (!exact * 5 >= total * 3)

(* ------------------------------------------------------------------ *)
(* Costcheck                                                            *)
(* ------------------------------------------------------------------ *)

let suite_targets () =
  List.map
    (fun spec ->
      {
        Costcheck.ct_name = spec.Spec.name;
        ct_program = spec.Spec.sim_program;
        ct_layouts = none;
      })
    (Suite.all ())

let test_costcheck_suite_clean () =
  let r = Costcheck.run (suite_targets ()) in
  Alcotest.(check int) "five entries" 5 (List.length r.Costcheck.cr_entries);
  Alcotest.(check int)
    "no divergence diagnostics at the default threshold" 0
    (List.length r.Costcheck.cr_diagnostics);
  Alcotest.(check int) "exit code 0" 0
    (Diagnostic.exit_code r.Costcheck.cr_diagnostics)

let test_costcheck_divergence_contract () =
  (* An impossible threshold turns every entry into an error-severity
     estimate-divergence diagnostic and trips the exit-1 contract. *)
  let r = Costcheck.run ~threshold:(-1.) (suite_targets ()) in
  Alcotest.(check int) "every entry diverges" 5
    (List.length r.Costcheck.cr_diagnostics);
  List.iter
    (fun d ->
      Alcotest.(check string) "code" "estimate-divergence" d.Diagnostic.code;
      Alcotest.(check bool) "severity" true
        (d.Diagnostic.severity = Diagnostic.Error))
    r.Costcheck.cr_diagnostics;
  Alcotest.(check int) "exit code 1" 1
    (Diagnostic.exit_code r.Costcheck.cr_diagnostics)

(* ------------------------------------------------------------------ *)
(* Dominance pruning                                                    *)
(* ------------------------------------------------------------------ *)

let solve_enhanced net =
  let config = Schemes.enhanced ~seed:1 () in
  let r = Solver.solve_components ~config net in
  match r.Solver.outcome with
  | Solver.Solution a -> Some a
  | _ -> None

(* Map a layout choice per array back to value indices of a network. *)
let assignment_of_layouts net layouts =
  Array.init (Network.num_vars net) (fun i ->
      let want = List.assoc (Network.name net i) layouts in
      let dom = Network.domain net i in
      let idx = ref (-1) in
      Array.iteri
        (fun v l -> if !idx < 0 && Layout.equal l want then idx := v)
        dom;
      !idx)

(* The acceptance triple on the five benchmarks: pruning removes values,
   never changes satisfiability, the pruned network's solution is a
   solution of the original network, and the solution the solver then
   finds is never costlier than the unpruned one. *)
let test_prune_benchmarks () =
  let total_pruned = ref 0 in
  List.iter
    (fun spec ->
      let b = Spec.extract spec in
      let b', info = Prune.apply b in
      total_pruned := !total_pruned + Prune.total info;
      Alcotest.(check int)
        (spec.Spec.name ^ " info total consistent")
        (Prune.total info)
        (info.Prune.before - info.Prune.after);
      match (solve_enhanced b.Build.network, solve_enhanced b'.Build.network) with
      | Some _, Some a' ->
        let layouts' = Build.assignment_layouts b' a' in
        Alcotest.(check bool)
          (spec.Spec.name ^ " pruned solution solves the original network")
          true
          (Network.verify b.Build.network
             (assignment_of_layouts b.Build.network layouts'));
        let layouts = Build.assignment_layouts b (Option.get (solve_enhanced b.Build.network)) in
        let c = Fixtures.simulated_cycles spec layouts
        and c' = Fixtures.simulated_cycles spec layouts' in
        Alcotest.(check bool)
          (Printf.sprintf "%s pruned choice is never costlier (%d vs %d)"
             spec.Spec.name c' c)
          true (c' <= c)
      | None, None -> ()
      | _ ->
        Alcotest.fail (spec.Spec.name ^ ": pruning changed satisfiability"))
    (Suite.all ());
  (* the headline acceptance: at least one dominated layout disappears *)
  Alcotest.(check bool)
    (Printf.sprintf "pruning removes values somewhere (total %d)" !total_pruned)
    true (!total_pruned >= 1)

let test_prune_mxm_drops_padding () =
  let b = Spec.extract (Suite.by_name "mxm") in
  let _, info = Prune.apply b in
  Alcotest.(check bool)
    (Printf.sprintf "MxM loses >= 1 dominated value (lost %d)"
       (Prune.total info))
    true
    (Prune.total info >= 1)

let prop_prune_preserves_satisfiability =
  QCheck.Test.make
    ~name:"pruning preserves satisfiability on generated programs" ~count:15
    QCheck.small_nat (fun seed ->
      let params =
        {
          Random_program.default with
          Random_program.seed;
          num_arrays = 4;
          num_nests = 4;
          extent = 12;
          sim_extent = 8;
        }
      in
      let prog = Random_program.generate params in
      let b = Build.build prog in
      let b', _ = Prune.apply b in
      (* restrict_domains refuses to empty a domain, so reaching the
         solver at all already certifies non-empty domains *)
      let sat n = solve_enhanced n <> None in
      sat b.Build.network = sat b'.Build.network)

(* ------------------------------------------------------------------ *)
(* Profiler memoization                                                 *)
(* ------------------------------------------------------------------ *)

(* The profiler caches per-(array, layout) profiles under the program's
   physical identity.  The memo must be invisible: repeated queries
   (same or fresh profiler instance over the same program object) agree,
   a physically distinct but equal program yields the same numbers (the
   cold path is deterministic), and the returned arrays are fresh — a
   caller scribbling on one must not poison later answers. *)
let test_profiler_memo_invisible () =
  let spec = Suite.by_name "mxm" in
  let prog = spec.Spec.program in
  let p1 = Locality.profiler prog in
  let col = Layout.col_major 2 in
  let a = p1 ~array_name:"A" ~layout:col in
  let a_copy = Array.copy a in
  (* scribble on the returned array; the cache must not see it *)
  Array.fill a 0 (Array.length a) (-1.0);
  let b = p1 ~array_name:"A" ~layout:col in
  Alcotest.(check bool) "cached query unaffected by caller mutation" true
    (b = a_copy);
  let p2 = Locality.profiler prog in
  Alcotest.(check bool) "fresh profiler instance, same program: same answer"
    true
    (p2 ~array_name:"A" ~layout:col = a_copy);
  (* a structurally equal but physically distinct program recomputes
     from cold and must land on the same numbers *)
  let prog' = (Suite.by_name "mxm").Spec.program in
  Alcotest.(check bool) "physically distinct equal program: same answer" true
    (Locality.profiler prog' ~array_name:"A" ~layout:col = a_copy);
  (* an unknown array references no nest: its profile is empty *)
  Alcotest.(check bool) "unknown array is empty" true
    (p1 ~array_name:"no-such-array" ~layout:col = [||])

let test_profiler_distinct_layouts_distinct_entries () =
  (* A single loop walking one column of a 64x64 array.  Depth 1 means
     exactly one loop permutation, so min-over-perms cannot mask the
     layout: col-major streams the column (few misses) while row-major
     strides a full row apart (a miss per iteration).  The profiles must
     separate, proving the cache keys on the layout and not just the
     array name. *)
  let x = B.ctx [ "i" ] in
  let nest =
    B.nest "col_walk" x [ 64 ] [ B.read "A" [ B.var x "i"; B.const x 0 ] ]
  in
  let prog =
    Program.make ~name:"colwalk" [ Array_info.make "A" [ 64; 64 ] ] [ nest ]
  in
  let p = Locality.profiler prog in
  let row = p ~array_name:"A" ~layout:(Layout.row_major 2)
  and col = p ~array_name:"A" ~layout:(Layout.col_major 2) in
  Alcotest.(check bool) "row and col profiles differ" true (row <> col)

(* The cache must not keep a program alive: an entry held strongly would
   pin every program the process ever profiled, with its staged trace
   and memos.  Profile a fresh program, drop it, and it must be
   collected. *)
let[@inline never] profile_and_drop w =
  let x = B.ctx [ "i"; "j" ] in
  let nest =
    B.nest "copy" x [ 16; 16 ]
      [
        B.read "A" [ B.var x "i"; B.var x "j" ];
        B.write "B" [ B.var x "j"; B.var x "i" ];
      ]
  in
  let prog =
    Program.make ~name:"dropped"
      [ Array_info.make "A" [ 16; 16 ]; Array_info.make "B" [ 16; 16 ] ]
      [ nest ]
  in
  ignore (Locality.profiler prog ~array_name:"A" ~layout:(Layout.col_major 2));
  Weak.set w 0 (Some prog)

let test_profiler_entry_dies_with_program () =
  let w = Weak.create 1 in
  profile_and_drop w;
  Gc.full_major ();
  Alcotest.(check bool) "profiled program collected" false (Weak.check w 0)

(* ------------------------------------------------------------------ *)
(* The staged profiler against oracles built from the public API        *)
(* ------------------------------------------------------------------ *)

(* Programs with their candidate-layout networks: the suite, scale-10,
   and small generated programs. *)
let fixed_programs =
  lazy
    (List.map
       (fun spec -> (spec.Spec.program, (Spec.extract spec).Build.network))
       (Suite.all () @ [ Suite.scale 10 ]))

let generated_program seed =
  let prog =
    Random_program.generate
      {
        Random_program.default with
        Random_program.seed;
        num_arrays = 4;
        num_nests = 4;
        extent = 12;
        sim_extent = 8;
      }
  in
  (prog, (Build.build prog).Build.network)

(* Multi-nest programs at sizes where the capacity and per-set checks
   bite: trip counts up to 40, strides up to 3 and offsets up to 5 per
   dimension, so a level's reuse often hinges on the other arrays'
   footprint inside it.  Nests share their trip counts and arrays their
   extents, so lattices repeat across arrays and nests and the count
   memo answers many of the queries. *)
let stress_program st =
  let depth = 2 + Random.State.int st 2 in
  let var_names = List.init depth (fun l -> Printf.sprintf "i%d" l) in
  let x = B.ctx var_names in
  let num_arrays = 2 + Random.State.int st 3 in
  let extents = [| 1; 1 |] in
  let trips = Array.init depth (fun _ -> 4 + Random.State.int st 37) in
  let nests =
    List.init
      (1 + Random.State.int st 3)
      (fun k ->
        let accesses =
          List.init
            (2 + Random.State.int st 4)
            (fun _ ->
              let a = Random.State.int st num_arrays in
              let dims =
                List.init 2 (fun d ->
                    let v = Random.State.int st depth in
                    let c = Random.State.int st 4 and off = Random.State.int st 6 in
                    extents.(d) <-
                      max extents.(d) (off + (c * (trips.(v) - 1)) + 1);
                    B.(
                      (c *: var x (List.nth var_names v)) +: const x off))
              in
              (if Random.State.bool st then B.read else B.write)
                (Printf.sprintf "A%d" a) dims)
        in
        B.nest (Printf.sprintf "n%d" k) x (Array.to_list trips) accesses)
  in
  let arrays =
    List.init num_arrays (fun a ->
        Array_info.make ~elem_size:8 (Printf.sprintf "A%d" a)
          (Array.to_list extents))
  in
  let prog = Program.make ~name:"stress" arrays nests in
  let name = Printf.sprintf "A%d" (Random.State.int st num_arrays) in
  let layout =
    [| Layout.row_major 2; Layout.col_major 2; Layout.diagonal2;
       Layout.anti_diagonal2 |].(Random.State.int st 4)
  in
  (prog, name, layout)

(* One (program, array, candidate layout) per seed, in turn from the
   fixed programs, the generator's and the stress family. *)
let pick_case seed =
  let st = Random.State.make [| 0x57a6ed; seed |] in
  let from (prog, net) =
    let var = Random.State.int st (Network.num_vars net) in
    let dom = Network.domain net var in
    (prog, Network.name net var, dom.(Random.State.int st (Array.length dom)))
  in
  match seed mod 3 with
  | 0 ->
    let ps = Lazy.force fixed_programs in
    from (List.nth ps (Random.State.int st (List.length ps)))
  | 1 -> from (generated_program seed)
  | _ -> stress_program st

let only name layout n = if String.equal n name then Some layout else None

(* [relayout] against a fresh instantiation under the changed
   assignment, whose bases come from a second [Address_map.build]: the
   queried array's forms are bit-identical (its base does not move and
   its accesses are the only ones folded again), and every other access
   of the staged trace's forms is the fresh one moved back by its
   array's base shift, whole alignment units. *)
let relayout_matches prog name layout =
  let staged = Address_map.build prog ~layouts:none
  and moved = Address_map.build prog ~layouts:(only name layout) in
  let shift a = Address_map.base moved a - Address_map.base staged a in
  let trace = Compiled_trace.compile prog ~layouts:none in
  let fresh =
    Compiled_trace.forms
      (Compiled_trace.compile prog ~layouts:(only name layout))
  in
  (* the nests referencing [name], and in each its access indices *)
  let touched =
    List.filter_map
      (fun i ->
        let ks =
          List.filter
            (fun k ->
              String.equal fresh.(i).form_accesses.(k).form_array name)
            (List.init (Array.length fresh.(i).form_accesses) Fun.id)
        in
        if ks = [] then None else Some (i, Array.of_list ks))
      (List.init (Array.length fresh) Fun.id)
  in
  let nests = Array.of_list (List.map fst touched)
  and accesses = Array.of_list (List.map snd touched) in
  shift name = 0
  && Array.for_all
       (fun info -> shift (Array_info.name info) mod Address_map.default_align = 0)
       (Program.arrays prog)
  && Compiled_trace.relayout trace ~array_name:name
       ~transform:
         (Address_map.transform_of (Program.find_array prog name) (Some layout))
       ~nests ~accesses
     = Array.mapi
         (fun j i -> Array.map (fun k -> fresh.(i).form_accesses.(k)) accesses.(j))
         nests
  && Array.for_all2
       (fun (s : Compiled_trace.nest_form) (f : Compiled_trace.nest_form) ->
         s.form_counts = f.form_counts
         && Array.for_all2
              (fun (a : Compiled_trace.access_form) b ->
                String.equal a.form_array name
                || { a with form_addr0 = a.form_addr0 + shift a.form_array } = b)
              s.form_accesses f.form_accesses)
       (Compiled_trace.forms trace) fresh

let prop_relayout_matches_instantiate =
  QCheck.Test.make
    ~name:"relayout forms equal a fresh instantiation up to base shifts"
    ~count:150 QCheck.small_nat (fun seed ->
      let prog, name, layout = pick_case seed in
      relayout_matches prog name layout)

(* The profiler's definition, from the public API alone: per nest that
   references the array, in program order, the minimum over its legal
   orders of the array's [g_misses] (or [g_lines]) in [Locality.analyze]
   of the program with that nest permuted. *)
let oracle_profile ~metric prog ~array_name ~layout =
  let arrays = Array.to_list (Program.arrays prog) in
  let nests = Program.nests prog in
  List.init (Array.length nests) Fun.id
  |> List.filter (fun i ->
         List.mem array_name (Loop_nest.arrays_touched nests.(i)))
  |> List.map (fun i ->
         List.fold_left
           (fun best (perm, _) ->
             let nests' =
               Array.to_list
                 (Array.mapi
                    (fun j n -> if j = i then Loop_nest.permute n perm else n)
                    nests)
             in
             let prog' = Program.make ~name:(Program.name prog) arrays nests' in
             let r = Locality.analyze prog' ~layouts:(only array_name layout) in
             let n = List.nth r.Locality.r_nests i in
             let charge =
               List.fold_left
                 (fun acc g ->
                   if String.equal g.Locality.g_array array_name then
                     acc
                     +.
                     match metric with
                     | Locality.Misses -> g.Locality.g_misses
                     | Locality.Lines -> g.Locality.g_lines
                   else acc)
                 0.0 n.Locality.n_groups
             in
             Float.min best charge)
           infinity
           (Dependence.legal_permutations nests.(i)))
  |> Array.of_list

let prop_profiler_matches_oracle =
  QCheck.Test.make ~name:"profiler equals the analyze oracle bit for bit"
    ~count:40 QCheck.small_nat (fun seed ->
      let prog, array_name, layout = pick_case seed in
      List.for_all
        (fun metric ->
          Locality.profiler ~metric prog ~array_name ~layout
          = oracle_profile ~metric prog ~array_name ~layout)
        [ Locality.Misses; Locality.Lines ])

(* A skewed layout widens the first array's bounding box, so under it
   every later array moves; [relayout] must still agree with a fresh
   instantiation up to those shifts, and the profile with the oracle. *)
let test_relayout_later_arrays_move () =
  let x = B.ctx [ "i"; "j" ] in
  let nest =
    B.nest "walk" x [ 8; 8 ]
      [
        B.read "A" [ B.var x "i"; B.var x "j" ];
        B.read "B" [ B.var x "j"; B.var x "i" ];
        B.write "C" [ B.var x "i"; B.var x "j" ];
      ]
  in
  let prog =
    Program.make ~name:"shifted"
      [
        Array_info.make "A" [ 8; 8 ];
        Array_info.make "B" [ 8; 8 ];
        Array_info.make "C" [ 8; 8 ];
      ]
      [ nest ]
  in
  let staged = Address_map.build prog ~layouts:none
  and moved = Address_map.build prog ~layouts:(only "A" Layout.diagonal2) in
  List.iter
    (fun a ->
      Alcotest.(check bool) (a ^ " moves") true
        (Address_map.base moved a > Address_map.base staged a))
    [ "B"; "C" ];
  Alcotest.(check bool) "forms equal a fresh instantiation up to the shifts"
    true
    (relayout_matches prog "A" Layout.diagonal2);
  List.iter
    (fun metric ->
      Alcotest.(check bool) "profile equals the oracle" true
        (Locality.profiler ~metric prog ~array_name:"A" ~layout:Layout.diagonal2
        = oracle_profile ~metric prog ~array_name:"A" ~layout:Layout.diagonal2))
    [ Locality.Misses; Locality.Lines ]

(* The profiler's memos answer many groups from one entry, so each input
   below would go wrong if a memo key left out what it reads; every
   answer must still match the oracle.
   - Two arrays of one shape walked alike, the second one element off
     its base: their groups share gaps and levels but not the leader's
     offset within a line, so they touch different line counts.
   - One array walked alike in two nests whose inner trip counts differ:
     same offset, gaps and strides, different line counts.
   - One array whose group has the same shape in two nests, alone in the
     first and next to a column walk of C in the second.  The column
     walk fills the cache inside the outer loop, so A's reuse across
     that loop is realized in the first nest and not in the second (the
     dependence on C pins the second nest's loop order). *)
let test_profiler_memo_keys_on_offset () =
  let x = B.ctx [ "i"; "j" ] in
  let nest =
    B.nest "rows" x [ 8; 8 ]
      [
        B.read "A" [ B.var x "i"; B.var x "j" ];
        B.read "B" [ B.var x "i"; B.(var x "j" +: const x 1) ];
      ]
  in
  let prog =
    Program.make ~name:"offsets"
      [ Array_info.make "A" [ 8; 32 ]; Array_info.make "B" [ 8; 32 ] ]
      [ nest ]
  in
  let row = Layout.row_major 2 in
  let p = Locality.profiler ~metric:Locality.Lines prog in
  let a = p ~array_name:"A" ~layout:row and b = p ~array_name:"B" ~layout:row in
  Alcotest.(check bool) "the offset changes the line count" true (a <> b);
  List.iter
    (fun (name, got) ->
      Alcotest.(check bool) (name ^ " matches the oracle") true
        (got
        = oracle_profile ~metric:Locality.Lines prog ~array_name:name
            ~layout:row))
    [ ("A", a); ("B", b) ];
  let two_nests what ~metric arrays nests =
    let prog = Program.make ~name:what arrays nests in
    let got = Locality.profiler ~metric prog ~array_name:"A" ~layout:row in
    Alcotest.(check bool) (what ^ ": A matches the oracle") true
      (got = oracle_profile ~metric prog ~array_name:"A" ~layout:row);
    Alcotest.(check bool) (what ^ ": the two nests' entries differ") true
      (Array.length got = 2 && got.(0) <> got.(1))
  in
  let a_ij = B.read "A" [ B.var x "i"; B.var x "j" ] in
  two_nests "trips" ~metric:Locality.Lines
    [ Array_info.make "A" [ 8; 32 ] ]
    [ B.nest "short" x [ 8; 8 ] [ a_ij ]; B.nest "long" x [ 8; 32 ] [ a_ij ] ];
  let a_0j = B.read "A" [ B.const x 0; B.var x "j" ] in
  two_nests "footprint" ~metric:Locality.Misses
    [ Array_info.make "A" [ 4; 256 ]; Array_info.make "C" [ 257; 8 ] ]
    [
      B.nest "alone" x [ 4; 256 ] [ a_0j ];
      B.nest "crowded" x [ 4; 256 ]
        [
          a_0j;
          B.write "C" [ B.var x "j"; B.(var x "i" +: const x 1) ];
          B.read "C" [ B.(var x "j" +: const x 1); B.var x "i" ];
        ];
    ]

(* [prog] with array [k]'s extents grown by [k] and [2k]: arrays of one
   rank with different extents, whose transforms under one layout
   differ. *)
let vary_extents prog =
  let arrays =
    Array.to_list
      (Array.mapi
         (fun k info ->
           Array_info.make ~elem_size:(Array_info.elem_size info)
             (Array_info.name info)
             (Array.to_list
                (Array.mapi (fun d e -> e + (k * (d + 1))) (Array_info.extents info))))
         (Program.arrays prog))
  in
  Program.make ~name:(Program.name prog) arrays (Array.to_list (Program.nests prog))

(* Whole cost tables on one profiler: every (array, candidate layout) of
   a program's network under both metrics, asked in a shuffled order.
   The profiler's slot, view and transform memos are shared by all
   these queries, and by both metrics, where one query per case shares
   little; every entry must still be the oracle's.  The stress programs'
   arrays get different extents, so that one layout has several
   transforms. *)
let prop_shuffled_cost_tables =
  QCheck.Test.make ~name:"shuffled whole cost tables equal the oracle"
    ~count:24 QCheck.small_nat (fun seed ->
      let st = Random.State.make [| 0x7ab1e5; seed |] in
      let prog, net =
        if seed mod 2 = 0 then generated_program seed
        else
          let prog, _, _ = stress_program st in
          let prog = vary_extents prog in
          (prog, (Build.build prog).Build.network)
      in
      let queries =
        Array.of_list
          (List.concat_map
             (fun var ->
               List.concat_map
                 (fun layout ->
                   [
                     (Network.name net var, layout, Locality.Misses);
                     (Network.name net var, layout, Locality.Lines);
                   ])
                 (Array.to_list (Network.domain net var)))
             (List.init (Network.num_vars net) Fun.id))
      in
      for i = Array.length queries - 1 downto 1 do
        let j = Random.State.int st (i + 1) in
        let q = queries.(i) in
        queries.(i) <- queries.(j);
        queries.(j) <- q
      done;
      let misses = Locality.profiler ~metric:Locality.Misses prog
      and lines = Locality.profiler ~metric:Locality.Lines prog in
      Array.for_all
        (fun (array_name, layout, metric) ->
          let p = match metric with Locality.Misses -> misses | Locality.Lines -> lines in
          p ~array_name ~layout = oracle_profile ~metric prog ~array_name ~layout)
        queries)

(* The count memo keys a group's kept levels sorted, except when two of
   them share a stride: [absorb_gaps] then folds the offsets into the
   first of them that fits, so their order can change the count.  In
   [A[i+j]] and [A[i+j+2]] under loops of 4 and 8 both levels have one
   stride and both fit the offsets.  With a third loop of that stride
   ([A[3i+3j+3k]] and [A[3i+3j+3k+18]] under loops of 6, 8 and 6) the
   nest's orders count different lines (22 as written, 18 with [k]
   outermost), so a memo that sorted those levels would answer every
   order with the first order's count.  Every order is legal; the
   profile must equal the oracle, which counts each order afresh. *)
let test_profiler_equal_strides () =
  let one_array name ~elem ~extent nest =
    Program.make ~name [ Array_info.make ~elem_size:elem "A" [ extent ] ] [ nest ]
  in
  let x = B.ctx [ "i"; "j" ] in
  let ij o = B.((var x "i" +: var x "j") +: const x o) in
  let two =
    one_array "two-levels" ~elem:8 ~extent:16
      (B.nest "sum" x [ 4; 8 ] [ B.read "A" [ ij 0 ]; B.read "A" [ ij 2 ] ])
  in
  let x = B.ctx [ "i"; "j"; "k" ] in
  let ijk o =
    B.(((3 *: var x "i") +: (3 *: var x "j")) +: (3 *: var x "k") +: const x o)
  in
  let three =
    one_array "three-levels" ~elem:8 ~extent:80
      (B.nest "sum" x [ 6; 8; 6 ] [ B.read "A" [ ijk 0 ]; B.read "A" [ ijk 18 ] ])
  in
  let layout = Layout.row_major 1 in
  List.iter
    (fun prog ->
      let nest = (Program.nests prog).(0) in
      Alcotest.(check int)
        (Program.name prog ^ ": every order is legal")
        (if Loop_nest.depth nest = 2 then 2 else 6)
        (List.length (Dependence.legal_permutations nest));
      List.iter
        (fun metric ->
          Alcotest.(check bool)
            (Program.name prog ^ ": the profile equals the oracle")
            true
            (Locality.profiler ~metric prog ~array_name:"A" ~layout
            = oracle_profile ~metric prog ~array_name:"A" ~layout))
        [ Locality.Lines; Locality.Misses ])
    [ two; three ];
  (* the orders of the three-level nest do count different lines *)
  let lines order =
    let nest = Loop_nest.permute (Program.nests three).(0) order in
    let r =
      Locality.analyze
        (Program.make ~name:"three-levels" (Array.to_list (Program.arrays three)) [ nest ])
    in
    (List.hd (List.hd r.Locality.r_nests).Locality.n_groups).Locality.g_lines
  in
  Alcotest.(check (float 0.)) "as written" 22. (lines [| 0; 1; 2 |]);
  Alcotest.(check (float 0.)) "k outermost" 18. (lines [| 2; 0; 1 |])

let test_profiler_rank_mismatch () =
  let prog = (Suite.by_name "mxm").Spec.program in
  let p = Locality.profiler prog in
  Alcotest.check_raises "rank-3 layout on the rank-2 array A"
    (Invalid_argument "Address_map.build: layout rank for A") (fun () ->
      ignore (p ~array_name:"A" ~layout:(Layout.row_major 3)));
  (* the failed query leaves the entry usable *)
  let col = Layout.col_major 2 in
  Alcotest.(check bool) "later queries unaffected" true
    (p ~array_name:"A" ~layout:col
    = Locality.profiler (Suite.by_name "mxm").Spec.program ~array_name:"A"
        ~layout:col)

let () =
  Alcotest.run "locality"
    [
      ( "accuracy",
        [ Alcotest.test_case "suite within 15%" `Slow test_suite_accuracy ] );
      ( "exactness",
        [
          QCheck_alcotest.to_alcotest prop_fully_assoc_exact;
          Alcotest.test_case "exact on most of the family" `Slow
            test_exactness_frequency;
        ] );
      ( "costcheck",
        [
          Alcotest.test_case "suite passes the default threshold" `Slow
            test_costcheck_suite_clean;
          Alcotest.test_case "divergence is an error diagnostic" `Slow
            test_costcheck_divergence_contract;
        ] );
      ( "pruning",
        [
          Alcotest.test_case "benchmarks: sound and never costlier" `Slow
            test_prune_benchmarks;
          Alcotest.test_case "mxm drops a dominated value" `Quick
            test_prune_mxm_drops_padding;
          QCheck_alcotest.to_alcotest prop_prune_preserves_satisfiability;
        ] );
      ( "profiler",
        [
          Alcotest.test_case "memoization is invisible" `Quick
            test_profiler_memo_invisible;
          Alcotest.test_case "distinct layouts get distinct entries" `Quick
            test_profiler_distinct_layouts_distinct_entries;
          Alcotest.test_case "rank mismatch raises" `Quick
            test_profiler_rank_mismatch;
          Alcotest.test_case "an entry dies with its program" `Quick
            test_profiler_entry_dies_with_program;
          Alcotest.test_case "count memo keys on the line offset" `Quick
            test_profiler_memo_keys_on_offset;
          Alcotest.test_case "equal strides keep their order" `Quick
            test_profiler_equal_strides;
        ] );
      ( "staged",
        [
          QCheck_alcotest.to_alcotest prop_relayout_matches_instantiate;
          Alcotest.test_case "later arrays move by whole alignment units"
            `Quick test_relayout_later_arrays_move;
          QCheck_alcotest.to_alcotest prop_profiler_matches_oracle;
          QCheck_alcotest.to_alcotest prop_shuffled_cost_tables;
        ] );
    ]
