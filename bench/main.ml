(* Benchmark harness.

   Two parts:

   1. The reproduction: regenerate every table and figure of the paper
      (Table 1, Table 2, Figure 4, Table 3) and print them with the
      published numbers alongside.  These are single-shot runs - exactly
      what the experiments measure.

   2. Bechamel micro-benchmarks: one Test.make group per table/figure,
      timing the computational kernel each experiment stresses (network
      extraction for Table 1, the solver schemes for Table 2, the
      single-improvement schemes for Figure 4, trace-driven simulation
      for Table 3) on inputs small enough to sample repeatedly. *)

module Spec = Mlo_workloads.Spec
module Suite = Mlo_workloads.Suite
module Solver = Mlo_csp.Solver
module Schemes = Mlo_csp.Schemes
module Build = Mlo_netgen.Build
module Propagation = Mlo_heuristic.Propagation
module Simulate = Mlo_cachesim.Simulate
module Tables = Mlo_experiments.Tables
module Prune = Mlo_netgen.Prune
module Locality = Mlo_analysis.Locality
module Depreport = Mlo_analysis.Depreport
module Optimizer = Mlo_core.Optimizer
open Bechamel
open Toolkit

(* ------------------------------------------------------------------ *)
(* Part 1: the tables                                                   *)
(* ------------------------------------------------------------------ *)

let print_tables () =
  Format.printf "==================================================@.";
  Format.printf "Reproduction of Chen/Kandemir/Karakoy, DATE 2005@.";
  Format.printf "==================================================@.@.";
  Format.printf "%a@.@." Tables.print_table1 (Tables.run_table1 ());
  Format.printf "%a@.@." Tables.print_table2 (Tables.run_table2 ());
  Format.printf "%a@.@." Tables.print_fig4 (Tables.run_fig4 ());
  Format.printf "%a@.@." Tables.print_table3 (Tables.run_table3 ());
  Format.printf "%a@.@." Tables.print_ablation (Tables.run_ablation ())

(* ------------------------------------------------------------------ *)
(* Part 2: bechamel micro-benchmarks                                    *)
(* ------------------------------------------------------------------ *)

let mxm = lazy (Suite.by_name "mxm")
let med = lazy (Suite.by_name "med-im04")

(* Every sample extracts from the same [spec.program], and the nest
   summary (legal orders and layout demands) is memoized per program
   value, so after the first sample these time a warm summary: the
   domain collection and pair enumeration alone.  The cold build a
   request pays is netgen/build-cold below. *)
let table1_tests =
  List.map
    (fun spec ->
      Test.make
        ~name:(Printf.sprintf "table1/extract:%s" spec.Spec.name)
        (Staged.stage (fun () -> ignore (Spec.extract spec))))
    [ Lazy.force mxm; Lazy.force med ]

let table2_tests =
  List.concat_map
    (fun spec ->
      let build = Spec.extract spec in
      let net = build.Build.network in
      [
        Test.make
          ~name:(Printf.sprintf "table2/enhanced:%s" spec.Spec.name)
          (Staged.stage (fun () ->
               ignore (Solver.solve ~config:(Schemes.enhanced ()) net)));
        (* the summary of [spec.program] is warm from the extraction
           above, so this times the propagation itself *)
        Test.make
          ~name:(Printf.sprintf "table2/heuristic:%s" spec.Spec.name)
          (Staged.stage (fun () ->
               ignore (Propagation.optimize spec.Spec.program)));
      ])
    [ Lazy.force mxm; Lazy.force med ]

let fig4_tests =
  let build = Spec.extract (Lazy.force mxm) in
  let net = build.Build.network in
  List.map
    (fun a ->
      Test.make
        ~name:(Printf.sprintf "fig4/%s" a.Schemes.label)
        (Staged.stage (fun () ->
             ignore (Solver.solve ~config:a.Schemes.config net))))
    (Schemes.figure4_schemes ~max_checks:50_000_000 ())

(* matmul32: the Table-3 sweep program, shared with the locality
   kernels below so the static estimate and the simulation time the
   same input. *)
let matmul32 =
  lazy
    (let n = 32 in
     let mm, req =
       Mlo_workloads.Kernels.matmul ~name:"mm" ~n ~c:"C" ~a:"A" ~b:"B"
     in
     Mlo_ir.Program.make ~name:"bench-mm" (Mlo_workloads.Kernels.declare req)
       [ mm ])

let colB = function
  | "B" -> Some (Mlo_layout.Layout.col_major 2)
  | _ -> None

(* The Table-3 sweep shape: one program, several layout assignments
   (here 8 = 4 code versions x 2). *)
let matmul32_sweep =
  List.concat (List.init 4 (fun _ -> [ (fun _ -> None); colB ]))

let table3_tests =
  let prog = Lazy.force matmul32 in
  [
    Test.make ~name:"table3/simulate:matmul32-row"
      (Staged.stage (fun () ->
           ignore (Simulate.run prog ~layouts:(fun _ -> None))));
    Test.make ~name:"table3/simulate:matmul32-colB"
      (Staged.stage (fun () -> ignore (Simulate.run prog ~layouts:colB)));
    Test.make ~name:"table3/compile:matmul32"
      (Staged.stage (fun () ->
           ignore (Mlo_cachesim.Compiled_trace.compile prog ~layouts:colB)));
  ]
  (* The programs that dominate the simulation stage of a certified
     request: the simulation-size program restructured under its
     enhanced solution, solved once outside the timed closure. *)
  @ List.map
      (fun spec ->
        let sol =
          Optimizer.optimize ~candidates:spec.Spec.candidates
            (Optimizer.Enhanced 1) spec.Spec.sim_program
        in
        let prog = sol.Optimizer.restructured in
        let layouts = Optimizer.lookup sol in
        Test.make
          ~name:(Printf.sprintf "table3/simulate:%s" spec.Spec.name)
          (Staged.stage (fun () -> ignore (Simulate.run prog ~layouts))))
      [ Lazy.force mxm; Suite.by_name "shape" ]

(* Domain build with and without dominance pruning.  Every sample
   prunes the same physical [spec.program], and the locality profiler
   and the nest summary memoize per program object, so only the first
   sample pays the cold profile and summary: the extract/prune pair
   times extraction over a warm summary plus the prune's dominance
   checks over a warm profile.  The cold profile every request pays is
   locality/profile-cold below, the cold build netgen/build-cold. *)
let prune_tests =
  List.concat_map
    (fun spec ->
      [
        Test.make
          ~name:(Printf.sprintf "prune/extract:%s" spec.Spec.name)
          (Staged.stage (fun () -> ignore (Spec.extract spec)));
        Test.make
          ~name:(Printf.sprintf "prune/extract+prune:%s" spec.Spec.name)
          (Staged.stage (fun () ->
               ignore (Prune.apply (Spec.extract spec))));
      ])
    [ Lazy.force mxm; Lazy.force med ]

(* The workload-scaling axis: the synthetic scale family at 10/100/1000
   arrays (Suite.scale — component-rich networks, hundreds of nests).
   Per size: network extraction, the component solve alone on a
   pre-built network, and the end-to-end extract+solve pipeline
   (BENCH_scale.json, --scale-json).  solve-ser times the whole
   component-wise solve: finding the components, compiling each one's
   view from its own constraints and searching it.  None of that is
   memoized on a many-component network, so every sample pays it all.
   extract and e2e reuse one program value, so after the first sample
   their extraction reads a warm nest summary. *)
let scale_sizes = [ 10; 100; 1000 ]

let scale_builds =
  lazy
    (List.map
       (fun n ->
         let spec = Suite.scale n in
         (n, spec, Spec.extract spec))
       scale_sizes)

let scale_tests =
  lazy
    (List.concat_map
       (fun (n, spec, build) ->
         let net = build.Build.network in
         [
           Test.make
             ~name:(Printf.sprintf "scale/extract:scale-%d" n)
             (Staged.stage (fun () -> ignore (Spec.extract spec)));
           Test.make
             ~name:(Printf.sprintf "scale/solve-ser:scale-%d" n)
             (Staged.stage (fun () ->
                  ignore
                    (Solver.solve_components ~config:(Schemes.enhanced ()) net)));
           Test.make
             ~name:(Printf.sprintf "scale/e2e:scale-%d" n)
             (Staged.stage (fun () ->
                  ignore
                    (Solver.solve_components ~config:(Schemes.enhanced ())
                       (Spec.extract spec).Build.network)));
         ])
       (Lazy.force scale_builds))

(* The conflict-driven axis: the hard family (three-deep nests on the
   array ring near the phase transition, Suite.hard) at sizes where the
   paper's enhanced backjumper starts to thrash on rediscovered
   conflicts.  Per size: the enhanced solve and the nogood-learning
   solve (Cdl) on the same pre-built network.  The enhanced-vs-cdl p50
   ratio is the speedup column of BENCH_hard.json (--hard-json). *)
let hard_sizes = [ 20; 80; 150; 200 ]

let hard_builds =
  lazy
    (List.map
       (fun n ->
         let spec = Suite.hard n in
         (n, spec, Spec.extract spec))
       hard_sizes)

let hard_tests =
  lazy
    (List.concat_map
       (fun (n, _spec, build) ->
         let net = build.Build.network in
         [
           Test.make
             ~name:(Printf.sprintf "hard/solve-enh:hard-%d" n)
             (Staged.stage (fun () ->
                  ignore
                    (Solver.solve_components ~config:(Schemes.enhanced ()) net)));
           Test.make
             ~name:(Printf.sprintf "hard/solve-cdl:hard-%d" n)
             (Staged.stage (fun () ->
                  ignore
                    (Mlo_csp.Cdl.solve_components
                       ~config:Mlo_csp.Cdl.default_config net)));
         ])
       (Lazy.force hard_builds))

(* Static miss estimate on the matmul32 sweep: locality/estimate-sweep
   is the closed-form analyzer over the 8 layout assignments, against
   the table3/simulate:matmul32-* kernels that walk two of them address
   by address. *)
let locality_tests =
  let prog = Lazy.force matmul32 in
  [
    Test.make ~name:"locality/analyze:matmul32"
      (Staged.stage (fun () ->
           ignore (Locality.analyze prog ~layouts:colB)));
    Test.make ~name:"locality/estimate-sweep:matmul32-x8"
      (Staged.stage (fun () ->
           List.iter
             (fun layouts -> ignore (Locality.analyze prog ~layouts))
             matmul32_sweep));
  ]
  (* The cold profile a request pays: the whole cost table — one
     profiler query per (array, candidate layout) — over a program parsed
     afresh from its rendered source each sample, as the e2e benchmark's
     requests do, so the profiler's per-program memo never carries over.
     The parse is part of the sample (about a twentieth of it on Shape,
     a thirtieth on Med-Im04 and scale-100; lang/parse:Shape times it
     alone), and so is the nest summary (legal loop orders) the profile
     entry derives: a twelfth of it on Shape. *)
  @ List.map
      (fun spec ->
        let source = Mlo_lang.Parser.to_source spec.Spec.program in
        let net = (Spec.extract spec).Build.network in
        Test.make
          ~name:(Printf.sprintf "locality/profile-cold:%s" spec.Spec.name)
          (Staged.stage (fun () ->
               let prog = Mlo_lang.Parser.parse ~name:spec.Spec.name source in
               ignore
                 (Mlo_core.Optimizer.cost_table
                    ~objective:Mlo_core.Optimizer.Estimated_misses prog net))))
      [ Lazy.force mxm; Lazy.force med; Suite.by_name "shape"; Suite.scale 100 ]

(* The front end alone: parsing the rendered source of the largest
   Table-1 program and of scale-1000, the program of the e2e scale-cdl
   requests.  Every request pays this before any analysis. *)
let lang_tests =
  lazy
    (List.map
       (fun spec ->
         let source = Mlo_lang.Parser.to_source spec.Spec.program in
         Test.make
           ~name:(Printf.sprintf "lang/parse:%s" spec.Spec.name)
           (Staged.stage (fun () ->
                ignore (Mlo_lang.Parser.parse ~name:spec.Spec.name source))))
       [ Suite.by_name "shape"; Suite.scale 1000 ])

(* The exact dependence axis: the per-pair dependence analysis
   (closed form or Omega-test direction-vector enumeration) over a paper
   benchmark and a conflict-heavy one.  This is the static analysis
   every deps/lint/optimize run pays up front; the kernels pin its cost
   next to the solver stages it feeds.  The report's legal-order counts
   come from the program's nest summary, which every sample after the
   first finds warm. *)
let deps_tests =
  List.map
    (fun spec ->
      Test.make
        ~name:(Printf.sprintf "deps/analyze:%s" spec.Spec.name)
        (Staged.stage (fun () ->
             ignore (Depreport.run spec.Spec.program))))
    [ Lazy.force mxm; Lazy.force med ]

(* The cold network build and restructure a request pays: each sample
   parses the program afresh from its rendered source, as
   locality/profile-cold does, so its nest summary (legal orders and
   layout demands, memoized per program value) is derived inside the
   sample.  The parse is part of the sample: about a quarter of it on
   Shape and hard-80, a fifth on Med-Im04.  restructure-cold applies
   the enhanced solution's layouts. *)
let netgen_tests =
  lazy
    (let fresh spec =
       let source = Mlo_lang.Parser.to_source spec.Spec.program in
       fun () -> Mlo_lang.Parser.parse ~name:spec.Spec.name source
     in
     let shape = Suite.by_name "shape" in
     List.map
       (fun spec ->
         let fresh = fresh spec in
         Test.make
           ~name:(Printf.sprintf "netgen/build-cold:%s" spec.Spec.name)
           (Staged.stage (fun () ->
                ignore (Build.build ~candidates:spec.Spec.candidates (fresh ())))))
       [ Lazy.force mxm; Lazy.force med; shape; Suite.hard 80 ]
     @
     let fresh = fresh shape in
     let lookup =
       Optimizer.lookup
         (Optimizer.optimize ~candidates:shape.Spec.candidates
            (Optimizer.Enhanced 1) shape.Spec.program)
     in
     [
       Test.make ~name:"netgen/restructure-cold:Shape"
         (Staged.stage (fun () ->
              ignore (Mlo_netgen.Select.restructure (fresh ()) lookup)));
     ])

(* The optimizing axis: branch and bound over the static cost model on
   the paper networks, next to the first-solution learner on the same
   pre-built network — the pair prices the optimality proof.  The
   profiler is staged outside the timed thunk (its memo makes repeat
   queries cheap anyway), so the kernel times the search itself. *)
let bnb_tests =
  List.concat_map
    (fun spec ->
      let build = Spec.extract spec in
      let net = build.Build.network in
      let prof = Locality.profiler spec.Spec.program in
      let cost name v =
        Array.fold_left ( +. ) 0.0
          (prof ~array_name:name
             ~layout:(Mlo_csp.Network.value net (Build.var_of_array build name) v))
      in
      [
        Test.make
          ~name:(Printf.sprintf "bnb/solve-bnb:%s" spec.Spec.name)
          (Staged.stage (fun () ->
               ignore (Mlo_csp.Bnb.branch_and_bound ~cost net)));
        Test.make
          ~name:(Printf.sprintf "bnb/solve-cdl:%s" spec.Spec.name)
          (Staged.stage (fun () ->
               ignore
                 (Mlo_csp.Cdl.solve_components
                    ~config:Mlo_csp.Cdl.default_config net)));
      ])
    [ Lazy.force mxm; Lazy.force med ]

(* The certifying axis: the same hard-80 cdl solve bare and with proof
   event recording (the per-search work `solve --proof` adds — the
   bare-vs-events p50 ratio is the under-10% logging-overhead claim of
   DESIGN.md Section 16, recorded as data in BENCH_solver.json), the
   one-time certificate assembly (header digest plus step list, a fixed
   O(network) cost independent of search length), and the independent
   checker replaying the finished certificate. *)
let record_cdl net =
  let r = Mlo_verify.Proof.recorder () in
  ( r,
    Mlo_csp.Cdl.solve_components ~config:Mlo_csp.Cdl.default_config
      ~on_event:(Mlo_verify.Proof.record r) net )

let assemble_cdl ~workload net (r, result) =
  Mlo_verify.Proof.certificate
    (Mlo_verify.Proof.header ~workload ~scheme:"cdl" ~objective:None
       ~pruned:false ~slack:0.0 net)
    ~dels:[] ~survivors:None ~costs:None r result

let proof_tests =
  lazy
    (let _, _, build =
       List.find (fun (n, _, _) -> n = 80) (Lazy.force hard_builds)
     in
     let net = build.Build.network in
     let recorded = record_cdl net in
     let proof = assemble_cdl ~workload:"hard-80" net recorded in
     [
       Test.make ~name:"proof/solve-cdl:hard-80"
         (Staged.stage (fun () ->
              ignore
                (Mlo_csp.Cdl.solve_components
                   ~config:Mlo_csp.Cdl.default_config net)));
       Test.make ~name:"proof/solve-cdl+events:hard-80"
         (Staged.stage (fun () -> ignore (record_cdl net)));
       Test.make ~name:"proof/assemble:hard-80"
         (Staged.stage (fun () ->
              ignore (assemble_cdl ~workload:"hard-80" net recorded)));
       Test.make ~name:"proof/check:hard-80"
         (Staged.stage (fun () ->
              match Mlo_verify.Checker.check net proof with
              | Ok () -> ()
              | Error msg -> failwith msg));
     ])

(* Per-kernel robust statistics over the raw per-sample ns/run values.
   Percentiles use linear interpolation between order statistics; MAD is
   the median absolute deviation from the median (unscaled), a spread
   estimate that one cache-cold outlier can't distort the way a standard
   deviation can. *)
type stats = { p50 : float; p90 : float; p99 : float; mad : float; samples : int }

let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then nan
  else if n = 1 then sorted.(0)
  else begin
    let pos = q *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor pos) in
    let hi = min (lo + 1) (n - 1) in
    let frac = pos -. float_of_int lo in
    (sorted.(lo) *. (1. -. frac)) +. (sorted.(hi) *. frac)
  end

let stats_of samples =
  let a = Array.copy samples in
  Array.sort compare a;
  let p50 = percentile a 0.5 in
  let dev = Array.map (fun x -> Float.abs (x -. p50)) a in
  Array.sort compare dev;
  {
    p50;
    p90 = percentile a 0.9;
    p99 = percentile a 0.99;
    mad = percentile dev 0.5;
    samples = Array.length a;
  }

(* Runs every kernel whose name starts with [filter] (default: all) and
   returns (name, stats, OLS ns/run) rows, in test order.  The stats
   come straight from the raw per-sample measurements; OLS is
   bechamel's usual run-predictor fit. *)
let benchmark ?(filter = "") ~quota () =
  let tests =
    table1_tests @ table2_tests @ fig4_tests @ table3_tests @ prune_tests
    @ locality_tests @ Lazy.force lang_tests @ deps_tests
    @ Lazy.force netgen_tests @ bnb_tests
    @ Lazy.force scale_tests
    @ Lazy.force hard_tests @ Lazy.force proof_tests
  in
  let tests =
    if filter = "" then tests
    else List.filter (fun t -> String.starts_with ~prefix:filter (Test.name t)) tests
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:50 ~quota:(Time.second quota) () in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let label = Measure.label Instance.monotonic_clock in
  List.concat_map
    (fun test ->
      let raw = Benchmark.all cfg instances test in
      let results = Analyze.all ols Instance.monotonic_clock raw in
      Hashtbl.fold
        (fun name (b : Benchmark.t) acc ->
          let st =
            stats_of
              (Array.map
                 (fun m ->
                   Measurement_raw.get ~label m /. Measurement_raw.run m)
                 b.Benchmark.lr)
          in
          let est =
            match Hashtbl.find_opt results name with
            | Some r -> (
              match Analyze.OLS.estimates r with
              | Some [ e ] -> Some e
              | Some _ | None -> None)
            | None -> None
          in
          (name, st, est) :: acc)
        raw []
      |> List.sort compare)
    tests

let print_benchmark rows =
  Format.printf "Bechamel micro-benchmarks (monotonic clock, ns/run):@.";
  Format.printf "  %-34s %12s %12s %12s %9s %6s %12s@." "kernel" "p50" "p90"
    "p99" "mad" "n" "ols";
  List.iter
    (fun (name, st, est) ->
      Format.printf "  %-34s %12.1f %12.1f %12.1f %9.1f %6d" name st.p50
        st.p90 st.p99 st.mad st.samples;
      (match est with
      | Some e -> Format.printf " %12.1f" e
      | None -> Format.printf " %12s" "-");
      Format.printf "@.")
    rows;
  Format.printf "@."

(* Schema "memlayout-bench/2": per-kernel percentile objects.  /1 was a
   flat name->median map; any consumer keying on "kernels".<name> being a
   number must switch on the "schema" field. *)
let write_json file rows =
  let oc = open_out file in
  output_string oc
    "{\n\
    \  \"schema\": \"memlayout-bench/2\",\n\
    \  \"clock\": \"monotonic\",\n\
    \  \"unit\": \"ns/run\",\n\
    \  \"kernels\": {\n";
  List.iteri
    (fun i (name, st, _) ->
      Printf.fprintf oc
        "    \"%s\": { \"p50\": %.1f, \"p90\": %.1f, \"p99\": %.1f, \"mad\": \
         %.1f, \"samples\": %d }%s\n"
        (Mlo_obs.Json.escape name) st.p50 st.p90 st.p99 st.mad st.samples
        (if i = List.length rows - 1 then "" else ","))
    rows;
  output_string oc "  }\n}\n";
  close_out oc;
  Format.printf "wrote %d kernel stats to %s@." (List.length rows) file

(* Schema "memlayout-scale-bench/2": one object per scale-family size
   with network shape (arrays/nests/components) and the end-to-end and
   per-stage percentile stats.  /1 also carried a parallel solve and
   its speedup, always null on the machines it ran on. *)
let write_scale_json file rows =
  let find kind n =
    List.find_opt
      (fun (name, _, _) ->
        String.equal name (Printf.sprintf "scale/%s:scale-%d" kind n))
      rows
    |> Option.map (fun (_, st, _) -> st)
  in
  let stat_json = function
    | Some st ->
      Printf.sprintf
        "{ \"p50\": %.1f, \"p90\": %.1f, \"p99\": %.1f, \"mad\": %.1f, \
         \"samples\": %d }"
        st.p50 st.p90 st.p99 st.mad st.samples
    | None -> "null"
  in
  let oc = open_out file in
  output_string oc
    "{\n\
    \  \"schema\": \"memlayout-scale-bench/2\",\n\
    \  \"clock\": \"monotonic\",\n\
    \  \"unit\": \"ns/run\",\n\
    \  \"sizes\": {\n";
  let sizes = Lazy.force scale_builds in
  List.iteri
    (fun i (n, spec, build) ->
      let net = build.Build.network in
      Printf.fprintf oc
        "    \"scale-%d\": {\n\
        \      \"arrays\": %d, \"nests\": %d, \"components\": %d,\n\
        \      \"extract\": %s,\n\
        \      \"solve_ser\": %s,\n\
        \      \"e2e\": %s\n\
        \    }%s\n"
        n
        (Array.length (Mlo_ir.Program.arrays spec.Spec.program))
        (Array.length (Mlo_ir.Program.nests spec.Spec.program))
        (Array.length (Mlo_csp.Network.components net))
        (stat_json (find "extract" n))
        (stat_json (find "solve-ser" n))
        (stat_json (find "e2e" n))
        (if i = List.length sizes - 1 then "" else ","))
    sizes;
  output_string oc "  }\n}\n";
  close_out oc;
  Format.printf "wrote scale stats for %d sizes to %s@." (List.length sizes)
    file

(* Schema "memlayout-hard-bench/2": one object per hard-family size with
   network shape, per-scheme percentile stats on the same pre-built
   network, and the enhanced-vs-learning p50 speedup — the conflict-
   driven solving claim of DESIGN.md Section 14, recorded as data. *)
let write_hard_json file rows =
  let find kind n =
    List.find_opt
      (fun (name, _, _) ->
        String.equal name (Printf.sprintf "hard/%s:hard-%d" kind n))
      rows
    |> Option.map (fun (_, st, _) -> st)
  in
  let stat_json = function
    | Some st ->
      Printf.sprintf
        "{ \"p50\": %.1f, \"p90\": %.1f, \"p99\": %.1f, \"mad\": %.1f, \
         \"samples\": %d }"
        st.p50 st.p90 st.p99 st.mad st.samples
    | None -> "null"
  in
  let speedup = function
    | Some (e : stats), Some (s : stats) when s.p50 > 0. ->
      Printf.sprintf "%.2f" (e.p50 /. s.p50)
    | _ -> "null"
  in
  let oc = open_out file in
  output_string oc
    "{\n\
    \  \"schema\": \"memlayout-hard-bench/2\",\n\
    \  \"clock\": \"monotonic\",\n\
    \  \"unit\": \"ns/run\",\n\
    \  \"sizes\": {\n";
  let sizes = Lazy.force hard_builds in
  List.iteri
    (fun i (n, spec, build) ->
      let net = build.Build.network in
      let enh = find "solve-enh" n in
      let cdl = find "solve-cdl" n in
      Printf.fprintf oc
        "    \"hard-%d\": {\n\
        \      \"arrays\": %d, \"nests\": %d, \"components\": %d,\n\
        \      \"solve_enhanced\": %s,\n\
        \      \"solve_cdl\": %s,\n\
        \      \"speedup_cdl\": %s\n\
        \    }%s\n"
        n
        (Array.length (Mlo_ir.Program.arrays spec.Spec.program))
        (Array.length (Mlo_ir.Program.nests spec.Spec.program))
        (Array.length (Mlo_csp.Network.components net))
        (stat_json enh) (stat_json cdl)
        (speedup (enh, cdl))
        (if i = List.length sizes - 1 then "" else ","))
    sizes;
  output_string oc "  }\n}\n";
  close_out oc;
  Format.printf "wrote hard stats for %d sizes to %s@." (List.length sizes)
    file

let usage () =
  prerr_endline
    "usage: bench [--tables | --json [FILE] | --scale-json [FILE] | \
     --hard-json [FILE] | --smoke [FILTER]]\n\
     \  (default)        print the paper's tables then run the micro-benchmarks\n\
     \  --tables         print the paper's tables only\n\
     \  --json [FILE]    run the micro-benchmarks and dump per-kernel medians\n\
     \                   as JSON (default FILE: BENCH_solver.json)\n\
     \  --scale-json [FILE]  run only the scale/ group and dump per-size\n\
     \                   network shape and percentiles\n\
     \                   (default FILE: BENCH_scale.json)\n\
     \  --hard-json [FILE]  run only the hard/ group and dump per-size\n\
     \                   percentiles and the enhanced-vs-cdl solve speedup\n\
     \                   (default FILE: BENCH_hard.json)\n\
     \  --smoke [FILTER] short benchmark run, no tables (CI); FILTER, if\n\
     \                   given, runs only kernels whose name starts with it\n\
     \                   (e.g. table3/ or scale/)";
  exit 2

let () =
  match Array.to_list Sys.argv with
  | [ _ ] ->
    print_tables ();
    print_benchmark (benchmark ~quota:0.5 ())
  | [ _; "--tables" ] -> print_tables ()
  | _ :: "--json" :: rest ->
    let file =
      match rest with
      | [] -> "BENCH_solver.json"
      | [ f ] -> f
      | _ -> usage ()
    in
    let rows = benchmark ~quota:0.5 () in
    print_benchmark rows;
    write_json file rows
  | _ :: "--scale-json" :: rest ->
    let file =
      match rest with
      | [] -> "BENCH_scale.json"
      | [ f ] -> f
      | _ -> usage ()
    in
    let rows = benchmark ~filter:"scale/" ~quota:0.5 () in
    print_benchmark rows;
    write_scale_json file rows
  | _ :: "--hard-json" :: rest ->
    let file =
      match rest with
      | [] -> "BENCH_hard.json"
      | [ f ] -> f
      | _ -> usage ()
    in
    let rows = benchmark ~filter:"hard/" ~quota:1.0 () in
    print_benchmark rows;
    write_hard_json file rows
  | [ _; "--smoke" ] -> print_benchmark (benchmark ~quota:0.05 ())
  | [ _; "--smoke"; filter ] ->
    print_benchmark (benchmark ~filter ~quota:0.05 ())
  | _ -> usage ()
