(* Integration tests: the full pipeline (program -> network -> solve ->
   restructure -> simulate), the optimizer facade, dynamic layouts, and
   scaled-down versions of the paper's experiments. *)

module B = Mlo_ir.Builder
module Program = Mlo_ir.Program
module Array_info = Mlo_ir.Array_info
module Layout = Mlo_layout.Layout
module Optimizer = Mlo_core.Optimizer
module Dynamic = Mlo_core.Dynamic
module Simulate = Mlo_cachesim.Simulate
module Hierarchy = Mlo_cachesim.Hierarchy
module Suite = Mlo_workloads.Suite
module Spec = Mlo_workloads.Spec
module Kernels = Mlo_workloads.Kernels
module Build = Mlo_netgen.Build
module Select = Mlo_netgen.Select
module Weighted = Mlo_csp.Weighted
module Brute = Mlo_oracle.Brute


(* ------------------------------------------------------------------ *)
(* Optimizer pipeline                                                   *)
(* ------------------------------------------------------------------ *)

let matmul_chain ~n =
  let init_t, req0 = Kernels.fill ~name:"init_t" ~n ~dst:"T" in
  let mm1, req1 = Kernels.matmul ~name:"mm1" ~n ~c:"T" ~a:"A" ~b:"B" in
  let mm2, req2 = Kernels.matmul ~name:"mm2" ~n ~c:"D" ~a:"T" ~b:"C" in
  let init_d, req3 = Kernels.fill ~name:"init_d" ~n ~dst:"D" in
  let arrays = Kernels.declare (req0 @ req1 @ req2 @ req3) in
  Program.make ~name:"chain" arrays [ init_t; mm1; init_d; mm2 ]

let test_optimizer_enhanced_improves_matmul () =
  let prog = matmul_chain ~n:32 in
  let original = Optimizer.simulate_original prog in
  let sol = Optimizer.optimize (Optimizer.Enhanced 1) prog in
  let optimized = Optimizer.simulate sol in
  Alcotest.(check bool) "fewer cycles" true
    (Simulate.cycles optimized <= Simulate.cycles original);
  Alcotest.(check int) "all arrays assigned" 5
    (List.length sol.Optimizer.layouts);
  Alcotest.(check bool) "stats recorded" true (sol.Optimizer.solver_stats <> None)

let test_optimizer_schemes_agree_on_satisfiability () =
  let prog = matmul_chain ~n:16 in
  List.iter
    (fun scheme ->
      let sol = Optimizer.optimize scheme prog in
      Alcotest.(check int) "assigned" 5 (List.length sol.Optimizer.layouts))
    [ Optimizer.Heuristic; Optimizer.Base 1; Optimizer.Enhanced 1 ]

(* examples/weighted_layout.ml's program: a (1 -1) dependence pins both
   nests' loop orders, the cheap nest wants row-major and the 16x
   costlier one column-major.  The static cost table nearly ties the two
   agreements (X costs the same under either), so bnb and enhanced pick
   row-major; Weighted, which counts each nest's cost, is the engine
   that picks the faster solution. *)
let weighted_demo ~n =
  let pinned name ~bound ~transposed =
    let x = B.ctx [ "i"; "j" ] in
    let i = B.var x "i" and j = B.var x "j" in
    let one = B.const x 1 in
    let flip a b = if transposed then [ b; a ] else [ a; b ] in
    B.nest name x [ bound; bound ]
      B.[
        read "X" (flip i j);
        read "Y" (flip (i +: one) j);
        write "Y" (flip i (j +: one));
      ]
  in
  Program.make ~name:"weighted-demo"
    [
      Array_info.make "X" [ n + 1; n + 1 ];
      Array_info.make "Y" [ n + 1; n + 1 ];
    ]
    [
      pinned "cheap_rowwise" ~bound:(n / 4) ~transposed:false;
      pinned "costly_colwise" ~bound:n ~transposed:true;
    ]

let test_weighted_picks_fastest () =
  let prog = weighted_demo ~n:96 in
  let build, weighted = Build.weighted prog in
  let cycles sol =
    let layouts = Build.lookup build sol in
    Simulate.cycles (Simulate.run (Select.restructure prog layouts) ~layouts)
  in
  match (Weighted.solve weighted).Weighted.best with
  | None -> Alcotest.fail "the demo network is satisfiable"
  | Some (best, _) ->
    Alcotest.(check (list (pair string string)))
      "X = Y = column-major"
      [ ("X", "column-major"); ("Y", "column-major") ]
      (List.map
         (fun (name, l) -> (name, Layout.describe l))
         (Build.assignment_layouts build best));
    let sols = Brute.all_solutions build.Build.network in
    Alcotest.(check bool) "several consistent solutions" true
      (List.length sols > 1);
    let c = cycles best in
    List.iter
      (fun sol ->
        let other = cycles sol in
        Alcotest.(check bool)
          (Printf.sprintf "optimum's %d cycles <= %d" c other)
          true (c <= other))
      sols

let test_optimizer_raises_on_budget () =
  let spec = Suite.by_name "med-im04" in
  Alcotest.(check bool) "raises No_solution" true
    (try
       ignore
         (Optimizer.optimize ~candidates:spec.Spec.candidates ~max_checks:10
            (Optimizer.Base 1) spec.Spec.program);
       false
     with Optimizer.No_solution _ -> true)

(* ------------------------------------------------------------------ *)
(* Simulated quality: optimized beats original on conflicted programs   *)
(* ------------------------------------------------------------------ *)

let test_pipeline_beats_original_on_suite () =
  (* spot-check two benchmarks end to end (full suite covered by bench) *)
  List.iter
    (fun name ->
      let spec = Suite.by_name name in
      let prog = spec.Spec.sim_program in
      let original = Optimizer.simulate_original prog in
      let sol =
        Optimizer.optimize ~candidates:spec.Spec.candidates
          (Optimizer.Enhanced 1) prog
      in
      let optimized = Optimizer.simulate sol in
      Alcotest.(check bool)
        (name ^ " improves")
        true
        (Simulate.cycles optimized < Simulate.cycles original))
    [ "mxm"; "track" ]

(* ------------------------------------------------------------------ *)
(* Dynamic layouts                                                      *)
(* ------------------------------------------------------------------ *)

(* Each phase's nests carry a (1,-1)-distance dependence on V, pinning
   their loop order: phase 1 must walk row-wise, phase 2 column-wise, so
   only a layout change can serve both. *)
let two_phase_program ~n ~repeats =
  let phase name transposed r0 =
    List.init repeats (fun r ->
        let x = B.ctx [ "i"; "j" ] in
        let i = B.var x "i" and j = B.var x "j" in
        let one = B.const x 1 in
        let flip a b = if transposed then [ b; a ] else [ a; b ] in
        B.nest (Printf.sprintf "%s%d" name (r0 + r)) x [ n; n ]
          B.[
            read "U" (flip i j);
            read "V" (flip (i +: one) j);
            write "V" (flip i (j +: one));
          ])
  in
  Program.make ~name:"two-phase"
    [ Array_info.make "U" [ n; n ]; Array_info.make "V" [ n + 1; n + 1 ] ]
    (phase "row" false 0 @ phase "col" true repeats)

let test_uniform_segments () =
  let prog = two_phase_program ~n:8 ~repeats:2 in
  let segs = Dynamic.uniform_segments prog 2 in
  (match segs with
  | [ s1; s2 ] ->
    Alcotest.(check int) "first start" 0 s1.Dynamic.first_nest;
    Alcotest.(check int) "first end" 1 s1.Dynamic.last_nest;
    Alcotest.(check int) "second start" 2 s2.Dynamic.first_nest;
    Alcotest.(check int) "second end" 3 s2.Dynamic.last_nest
  | _ -> Alcotest.fail "expected 2 segments");
  Alcotest.check_raises "bad count"
    (Invalid_argument "Dynamic.uniform_segments: bad count") (fun () ->
      ignore (Dynamic.uniform_segments prog 9))

let test_segment_program () =
  let prog = two_phase_program ~n:8 ~repeats:2 in
  let sub =
    Dynamic.segment_program prog { Dynamic.first_nest = 1; last_nest = 2 }
  in
  Alcotest.(check int) "two nests" 2 (Array.length (Program.nests sub));
  Alcotest.(check int) "all arrays kept" 2 (Array.length (Program.arrays sub))

let test_dynamic_plan_detects_phase_change () =
  let prog = two_phase_program ~n:32 ~repeats:3 in
  let segments = Dynamic.uniform_segments prog 2 in
  let plan = Dynamic.plan ~seed:1 prog ~segments in
  Alcotest.(check int) "two assignments" 2 (List.length plan.Dynamic.per_segment);
  (* phase 1 walks row-wise, phase 2 column-wise: the per-segment layouts
     must differ for both arrays *)
  (match plan.Dynamic.per_segment with
  | [ p1; p2 ] ->
    Alcotest.(check bool) "layouts change" true
      (List.exists
         (fun (name, l1) ->
           match List.assoc_opt name p2 with
           | Some l2 -> not (Layout.equal l1 l2)
           | None -> false)
         p1)
  | _ -> Alcotest.fail "expected two segments");
  Alcotest.(check bool) "changes recorded" true (plan.Dynamic.changes <> [])

let test_dynamic_beats_static_on_phased_program () =
  let prog = two_phase_program ~n:64 ~repeats:4 in
  let static = Optimizer.optimize (Optimizer.Enhanced 1) prog in
  let static_cycles = Simulate.cycles (Optimizer.simulate static) in
  let plan =
    Dynamic.plan ~seed:1 prog ~segments:(Dynamic.uniform_segments prog 2)
  in
  let dyn = Dynamic.simulate_plan prog plan in
  Alcotest.(check bool) "remaps happened" true (dyn.Dynamic.remaps > 0);
  Alcotest.(check bool) "dynamic wins on a strongly phased program" true
    (dyn.Dynamic.compute.Hierarchy.cycles < static_cycles)

let test_optimal_segments_find_phase_boundary () =
  let repeats = 3 in
  let prog = two_phase_program ~n:24 ~repeats in
  let segs = Dynamic.optimal_segments ~seed:1 prog in
  (* the DP must split exactly at the phase boundary *)
  Alcotest.(check int) "two segments" 2 (List.length segs);
  (match segs with
  | [ s1; s2 ] ->
    Alcotest.(check int) "boundary" (repeats - 1) s1.Dynamic.last_nest;
    Alcotest.(check int) "second begins" repeats s2.Dynamic.first_nest
  | _ -> ());
  (* with a prohibitive change cost, one segment wins *)
  let whole = Dynamic.optimal_segments ~seed:1 ~change_cost:1e12 prog in
  Alcotest.(check int) "single segment under huge copy cost" 1
    (List.length whole)

let test_optimal_segments_prices_infeasible () =
  (* with a 5-check budget several merged MxM segments exhaust it; the
     DP must price those as infeasible and return a valid segmentation
     built from the candidates that do solve, instead of raising
     No_solution *)
  let spec = Suite.by_name "mxm" in
  let prog = spec.Spec.sim_program in
  let segs = Dynamic.optimal_segments ~seed:1 ~max_checks:5 prog in
  (* must not raise, and must return a contiguous covering segmentation *)
  let n = Array.length (Mlo_ir.Program.nests prog) in
  let rec covering expected = function
    | [] -> expected = n
    | s :: rest ->
      s.Dynamic.first_nest = expected
      && s.Dynamic.last_nest >= s.Dynamic.first_nest
      && covering (s.Dynamic.last_nest + 1) rest
  in
  Alcotest.(check bool) "contiguous covering segmentation" true
    (covering 0 segs)

let test_optimal_segments_guard () =
  let spec = Suite.by_name "med-im04" in
  Alcotest.check_raises "too many nests"
    (Invalid_argument "Dynamic.optimal_segments: too many nests for exact DP")
    (fun () ->
      ignore (Dynamic.optimal_segments ~seed:1 spec.Spec.program))

let test_dynamic_single_segment_equals_static_shape () =
  let prog = two_phase_program ~n:16 ~repeats:2 in
  let plan =
    Dynamic.plan ~seed:1 prog ~segments:(Dynamic.uniform_segments prog 1)
  in
  let dyn = Dynamic.simulate_plan prog plan in
  Alcotest.(check int) "no remaps" 0 dyn.Dynamic.remaps;
  Alcotest.(check int) "no copy traffic" 0 dyn.Dynamic.copy_accesses

(* Every counter of simulate_plan, pinned: accesses, L1 hits/misses, L2
   hits/misses, cycles, copy accesses and remaps, per program and
   segmentation.  Any change to how a plan's segments or remap copies
   reach the hierarchy moves these numbers. *)
let dynamic_golden =
  [
    ("n=16 uniform 1", [ 3072; 3004; 68; 34; 34; 8932; 0; 0 ]);
    ("n=16 uniform 2", [ 4162; 4093; 69; 34; 35; 11188; 1090; 2 ]);
    ("n=16 uniform 3", [ 4162; 4093; 69; 34; 35; 11188; 1090; 2 ]);
    ("n=16 optimal", [ 4162; 4093; 69; 34; 35; 11188; 1090; 2 ]);
    ("n=64 uniform 1", [ 98304; 73628; 24676; 24156; 520; 381064; 0; 0 ]);
    ("n=64 uniform 2", [ 114946; 101433; 13513; 12992; 521; 347440; 16642; 2 ]);
    ("n=64 uniform 3", [ 114946; 97318; 17628; 17107; 521; 372130; 16642; 2 ]);
    ("n=64 optimal", [ 114946; 101433; 13513; 12992; 521; 347440; 16642; 2 ]);
  ]

let test_dynamic_counters_golden () =
  let actual =
    List.concat_map
      (fun (n, repeats) ->
        let prog = two_phase_program ~n ~repeats in
        List.map
          (fun (what, segments) ->
            let plan = Dynamic.plan ~seed:1 prog ~segments in
            let r = Dynamic.simulate_plan prog plan in
            let c = r.Dynamic.compute in
            ( Printf.sprintf "n=%d %s" n what,
              [
                c.Hierarchy.accesses;
                c.Hierarchy.l1_hits;
                c.Hierarchy.l1_misses;
                c.Hierarchy.l2_hits;
                c.Hierarchy.l2_misses;
                c.Hierarchy.cycles;
                r.Dynamic.copy_accesses;
                r.Dynamic.remaps;
              ] ))
          (List.map
             (fun k ->
               (Printf.sprintf "uniform %d" k, Dynamic.uniform_segments prog k))
             [ 1; 2; 3 ]
          @ [ ("optimal", Dynamic.optimal_segments ~seed:1 prog) ]))
      [ (16, 2); (64, 4) ]
  in
  Alcotest.(check (list (pair string (list int))))
    "simulate_plan counters" dynamic_golden actual

(* ------------------------------------------------------------------ *)
(* Experiments harness (scaled down)                                    *)
(* ------------------------------------------------------------------ *)

module Tables = Mlo_experiments.Tables

let test_table1_rows () =
  let rows = Tables.run_table1 () in
  Alcotest.(check int) "five rows" 5 (List.length rows);
  List.iter
    (fun r ->
      Alcotest.(check int)
        (r.Tables.t1_name ^ " matches paper domain")
        r.Tables.paper_domain_size r.Tables.domain_size)
    rows

let test_improvement_math () =
  Alcotest.(check (float 1e-9)) "50%" 50.
    (Tables.improvement ~original:200 100);
  Alcotest.(check (float 1e-9)) "0%" 0. (Tables.improvement ~original:100 100)

let () =
  Alcotest.run "integration"
    [
      ( "optimizer",
        [
          Alcotest.test_case "enhanced improves matmul chain" `Quick
            test_optimizer_enhanced_improves_matmul;
          Alcotest.test_case "all schemes solve" `Quick
            test_optimizer_schemes_agree_on_satisfiability;
          Alcotest.test_case "weighted picks the fastest solution" `Quick
            test_weighted_picks_fastest;
          Alcotest.test_case "budget exhaustion raises" `Quick
            test_optimizer_raises_on_budget;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "beats original on suite samples" `Slow
            test_pipeline_beats_original_on_suite;
        ] );
      ( "dynamic",
        [
          Alcotest.test_case "uniform segments" `Quick test_uniform_segments;
          Alcotest.test_case "segment program" `Quick test_segment_program;
          Alcotest.test_case "plan detects phase change" `Quick
            test_dynamic_plan_detects_phase_change;
          Alcotest.test_case "dynamic beats static when phased" `Slow
            test_dynamic_beats_static_on_phased_program;
          Alcotest.test_case "single segment degenerates" `Quick
            test_dynamic_single_segment_equals_static_shape;
          Alcotest.test_case "simulate_plan counters golden" `Quick
            test_dynamic_counters_golden;
          Alcotest.test_case "DP finds the phase boundary" `Quick
            test_optimal_segments_find_phase_boundary;
          Alcotest.test_case "DP nest-count guard" `Quick
            test_optimal_segments_guard;
          Alcotest.test_case "DP prices infeasible segments" `Quick
            test_optimal_segments_prices_infeasible;
        ] );
      ( "experiments",
        [
          Alcotest.test_case "table 1 rows" `Quick test_table1_rows;
          Alcotest.test_case "improvement math" `Quick test_improvement_math;
        ] );
    ]
