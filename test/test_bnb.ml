(* Branch-and-bound optimality, against an exhaustive oracle.

   The bnb scheme claims more than satisfiability: among all consistent
   assignments, it returns one of minimum separable cost.  That claim is
   checkable outright on small networks — enumerate every satisfying
   assignment with Brute, take the cheapest, and demand equality — and
   per connected component on the real workloads, where the components
   stay enumerable even when the whole network is not.  The synthetic
   costs are integer-valued floats, so sums are exact and the oracle
   comparison needs no tolerance; the workload costs are real profiler
   floats and get a relative epsilon for summation-order drift. *)

module Network = Mlo_csp.Network
module Solver = Mlo_csp.Solver
module Bnb = Mlo_csp.Bnb
module Cdl = Mlo_csp.Cdl
module Brute = Mlo_oracle.Brute
module Network_reference = Mlo_oracle.Network_reference
module Rng = Mlo_csp.Rng
module Stats = Mlo_csp.Stats
module Schemes = Mlo_csp.Schemes
module Trace = Mlo_obs.Trace
module Spec = Mlo_workloads.Spec
module Suite = Mlo_workloads.Suite
module Build = Mlo_netgen.Build
module Layout = Mlo_layout.Layout
module Locality = Mlo_analysis.Locality
module Optimizer = Mlo_core.Optimizer
module Fixtures = Mlo_oracle.Fixtures

(* Integer-valued synthetic costs: every sum the engine or the oracle
   forms is a sum of small integers, exactly representable, so optimum
   equality is checked with [=]. *)
let random_costs seed net =
  let rng = Rng.create (seed + 424242) in
  Array.init (Network.num_vars net) (fun i ->
      Array.init (Network.domain_size net i) (fun _ ->
          float_of_int (Rng.int rng 100)))

(* Exhaustive optimum; [infinity] exactly when the network is
   unsatisfiable. *)
let oracle_min ~costs net =
  List.fold_left
    (fun best s -> Float.min best (Bnb.cost_of ~costs s))
    infinity (Brute.all_solutions net)

(* Configurations stressing different parts of the machinery: the exact
   default, and a store capped at 2 nogoods so forgetting runs
   constantly. *)
let bnb_configs =
  [
    ("bnb", Bnb.default_config);
    ("bnb-forgetful", { Bnb.default_config with Bnb.learn_limit = 2 });
  ]

let prop_bnb_optimal =
  QCheck.Test.make ~name:"bnb cost equals the exhaustive optimum" ~count:300
    QCheck.small_nat (fun seed ->
      let net = Fixtures.random_network seed in
      let costs = random_costs seed net in
      let comp = Network.compile net in
      let best = oracle_min ~costs net in
      List.for_all
        (fun (label, config) ->
          match (Bnb.solve_compiled ~config ~costs comp).Solver.outcome with
          | Solver.Solution a ->
            if best = infinity then
              QCheck.Test.fail_reportf
                "%s found a solution on an unsatisfiable network" label;
            if not (Fixtures.dumb_verify net a) then
              QCheck.Test.fail_reportf
                "%s returned an inconsistent assignment" label;
            let c = Bnb.cost_of ~costs a in
            if c <> best then
              QCheck.Test.fail_reportf "%s returned cost %g, optimum is %g"
                label c best;
            true
          | Solver.Unsatisfiable ->
            if best < infinity then
              QCheck.Test.fail_reportf
                "%s reported unsatisfiable on a satisfiable network" label;
            true
          | Solver.Aborted ->
            QCheck.Test.fail_reportf "%s aborted without a check budget" label)
        bnb_configs)

(* The component driver must preserve optimality: separable costs are
   additive across components, so the merged assignment's cost equals
   the whole-network optimum. *)
let prop_bnb_components_optimal =
  QCheck.Test.make ~name:"component-wise bnb equals the whole-net optimum"
    ~count:200 QCheck.small_nat (fun seed ->
      let net = Fixtures.random_network seed in
      let costs = random_costs seed net in
      let cost name v =
        costs.(int_of_string (String.sub name 1 (String.length name - 1))).(v)
      in
      let best = oracle_min ~costs net in
      match (Bnb.branch_and_bound ~cost net).Solver.outcome with
      | Solver.Solution a ->
        if best = infinity || not (Fixtures.dumb_verify net a) then
          QCheck.Test.fail_report "bad solution";
        if Bnb.cost_of ~costs a <> best then
          QCheck.Test.fail_reportf "cost %g, optimum %g" (Bnb.cost_of ~costs a)
            best;
        true
      | Solver.Unsatisfiable ->
        if best < infinity then QCheck.Test.fail_report "unsat on satisfiable";
        true
      | Solver.Aborted -> QCheck.Test.fail_report "aborted without a budget")

(* Satisfiability agreement with the first-solution schemes: bnb's
   verdict must match enhanced and cdl on every instance. *)
let prop_bnb_agrees =
  QCheck.Test.make
    ~name:"bnb agrees with enhanced/cdl on satisfiability" ~count:300
    QCheck.small_nat (fun seed ->
      let net = Fixtures.random_network seed in
      let costs = random_costs seed net in
      let sat = function
        | Solver.Solution _ -> true
        | Solver.Unsatisfiable -> false
        | Solver.Aborted -> QCheck.Test.fail_report "aborted without budget"
      in
      let b = sat (Bnb.solve_compiled ~costs (Network.compile net)).Solver.outcome in
      let e =
        sat (Solver.solve ~config:(Schemes.enhanced ~seed:1 ()) net).Solver.outcome
      in
      let c = sat (Cdl.solve net).Solver.outcome in
      if b <> e || b <> c then
        QCheck.Test.fail_reportf "verdicts disagree: bnb=%b enhanced=%b cdl=%b"
          b e c;
      true)

(* Bound admissibility as a pure property: for any partial assignment
   consistent with a satisfying completion, the lower bound never
   exceeds the completion's cost (here with full-domain liveness, a
   superset of any forward-checked state — its minima can only be
   smaller, so the inequality is the strongest form). *)
let prop_lower_bound_admissible =
  QCheck.Test.make
    ~name:"lower bound never exceeds a satisfying completion" ~count:300
    QCheck.small_nat (fun seed ->
      let net = Fixtures.random_network seed in
      let costs = random_costs seed net in
      let rng = Rng.create (seed + 31337) in
      let live _ _ = true in
      let take n l =
        List.filteri (fun i _ -> i < n) l
      in
      List.for_all
        (fun sol ->
          let partial =
            Array.map (fun v -> if Rng.int rng 100 < 50 then v else -1) sol
          in
          let lb = Brute.lower_bound ~costs ~assignment:partial ~live in
          let c = Bnb.cost_of ~costs sol in
          if lb > c then
            QCheck.Test.fail_reportf
              "lower bound %g exceeds completion cost %g" lb c;
          (* degenerate case: a complete assignment bounds to its own
             exact cost *)
          Brute.lower_bound ~costs ~assignment:sol ~live = c)
        (take 50 (Brute.all_solutions net)))

(* ------------------------------------------------------------------ *)
(* Incumbent trace                                                      *)
(* ------------------------------------------------------------------ *)

let find_sub s sub from =
  let n = String.length s and m = String.length sub in
  let rec go i =
    if i + m > n then None
    else if String.sub s i m = sub then Some i
    else go (i + 1)
  in
  go from

(* Costs of the "incumbent" instants, in emission order.  The trace
   renderer writes {"name":"incumbent",...,"args":{"cost":C},...} with
   fields in that order, so a textual scan is reliable. *)
let incumbent_costs dump =
  let rec go acc from =
    match find_sub dump "\"name\":\"incumbent\"" from with
    | None -> List.rev acc
    | Some i -> (
      match find_sub dump "\"cost\":" i with
      | None -> List.rev acc
      | Some j ->
        let start = j + 7 in
        let k = ref start in
        while
          !k < String.length dump
          &&
          match dump.[!k] with
          | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
          | _ -> false
        do
          incr k
        done;
        go (float_of_string (String.sub dump start (!k - start)) :: acc) !k)
  in
  go [] 0

let rec strictly_decreasing = function
  | a :: (b :: _ as rest) -> a > b && strictly_decreasing rest
  | _ -> true

(* Every incumbent instant improves strictly on the previous one, the
   count matches stats.incumbents, and the last one is the cost of the
   returned solution. *)
let test_incumbent_monotone () =
  let checked = ref 0 in
  for seed = 0 to 40 do
    let net = Fixtures.random_network seed in
    let costs = random_costs seed net in
    let comp = Network.compile net in
    List.iter
      (fun (label, config) ->
        Trace.start ();
        let r =
          Fun.protect
            ~finally:(fun () -> Trace.stop ())
            (fun () ->
              let r = Bnb.solve_compiled ~config ~costs comp in
              (r, Trace.dump ()))
        in
        let result, dump = r in
        let incs = incumbent_costs dump in
        Alcotest.(check bool)
          (Printf.sprintf "%s seed %d: incumbents strictly improve" label seed)
          true (strictly_decreasing incs);
        Alcotest.(check int)
          (Printf.sprintf "%s seed %d: instants match stats" label seed)
          result.Solver.stats.Stats.incumbents (List.length incs);
        match result.Solver.outcome with
        | Solver.Solution a ->
          incr checked;
          Alcotest.(check bool)
            (Printf.sprintf "%s seed %d: last incumbent is the answer" label
               seed)
            true
            (match List.rev incs with
            | last :: _ -> last = Bnb.cost_of ~costs a
            | [] -> false)
        | Solver.Unsatisfiable ->
          Alcotest.(check int)
            (Printf.sprintf "%s seed %d: no incumbents when unsat" label seed)
            0 (List.length incs)
        | Solver.Aborted -> Alcotest.fail "aborted without budget")
      [ ("bnb", Bnb.default_config) ]
  done;
  (* the loop must have exercised the satisfiable path *)
  Alcotest.(check bool) "some satisfiable instances" true (!checked > 10)

(* ------------------------------------------------------------------ *)
(* Config validation                                                    *)
(* ------------------------------------------------------------------ *)

let test_invalid_config () =
  let net = Fixtures.random_network 3 in
  let costs = random_costs 3 net in
  let comp = Network.compile net in
  Alcotest.check_raises "negative slack rejected"
    (Invalid_argument "Bnb: bound_slack must be >= 0") (fun () ->
      ignore
        (Bnb.solve_compiled
           ~config:{ Bnb.default_config with Bnb.bound_slack = -0.5 }
           ~costs comp));
  Alcotest.check_raises "rank mismatch rejected"
    (Invalid_argument "Bnb: costs rank mismatch") (fun () ->
      ignore (Bnb.solve_compiled ~costs:[||] comp))

(* Positive slack keeps the (1 + s)-approximation guarantee. *)
let prop_bound_slack_approximates =
  QCheck.Test.make ~name:"slack solutions stay within (1+s) of optimal"
    ~count:200 QCheck.small_nat (fun seed ->
      let net = Fixtures.random_network seed in
      let costs = random_costs seed net in
      let comp = Network.compile net in
      let best = oracle_min ~costs net in
      let config = { Bnb.default_config with Bnb.bound_slack = 0.5 } in
      match (Bnb.solve_compiled ~config ~costs comp).Solver.outcome with
      | Solver.Solution a ->
        if best = infinity then
          QCheck.Test.fail_report "solution on an unsatisfiable network";
        Bnb.cost_of ~costs a <= (best *. 1.5) +. 1e-9
      | Solver.Unsatisfiable -> best = infinity
      | Solver.Aborted -> QCheck.Test.fail_report "aborted without budget")

(* ------------------------------------------------------------------ *)
(* The real pipeline: five benchmarks + the scale family                *)
(* ------------------------------------------------------------------ *)

(* The separable profiler cost the optimizer hands bnb, reconstructed
   here so the oracle can price arbitrary (variable, value) choices. *)
let profiler_cost spec build =
  let prof = Locality.profiler spec.Spec.program in
  let net = build.Build.network in
  fun name v ->
    Array.fold_left ( +. ) 0.0
      (prof ~array_name:name
         ~layout:(Network.value net (Build.var_of_array build name) v))

let assignment_cost cost net a =
  let total = ref 0.0 in
  Array.iteri (fun i v -> total := !total +. cost (Network.name net i) v) a;
  !total

(* Per-component oracle on a real workload network: every component
   whose assignment space is enumerable is brute-forced and its optimum
   compared against a bnb solve of the induced subnetwork.  Returns the
   number of components actually checked. *)
let check_component_oracles ~label ~cost net =
  let checked = ref 0 in
  Array.iter
    (fun vars ->
      let space =
        Array.fold_left
          (fun p i -> p *. float_of_int (Network.domain_size net i))
          1.0 vars
      in
      if space <= 20_000.0 then begin
        let sub = Network_reference.induced net vars in
        let best =
          List.fold_left
            (fun b s -> Float.min b (assignment_cost cost sub s))
            infinity (Brute.all_solutions sub)
        in
        match (Bnb.solve ~cost sub).Solver.outcome with
        | Solver.Solution a ->
          incr checked;
          let c = assignment_cost cost sub a in
          Alcotest.(check bool)
            (Printf.sprintf "%s component of %d: bnb %.17g = oracle %.17g"
               label (Array.length vars) c best)
            true
            (Float.abs (c -. best) <= 1e-12 *. Float.max 1.0 best)
        | Solver.Unsatisfiable ->
          Alcotest.(check bool)
            (label ^ ": component unsat iff oracle found nothing")
            true (best = infinity)
        | Solver.Aborted -> Alcotest.fail (label ^ ": component solve aborted")
      end)
    (Network.components net);
  !checked

let test_benchmark_component_oracles () =
  let total = ref 0 in
  List.iter
    (fun spec ->
      let build = Spec.extract spec in
      let cost = profiler_cost spec build in
      total :=
        !total
        + check_component_oracles ~label:spec.Spec.name ~cost
            build.Build.network)
    (Suite.all ());
  Alcotest.(check bool)
    (Printf.sprintf "enumerable components were checked (%d)" !total)
    true (!total >= 1)

let test_scale_component_oracles () =
  List.iter
    (fun n ->
      let spec = Suite.scale n in
      let build = Spec.extract spec in
      let net = build.Build.network in
      let cost = profiler_cost spec build in
      let checked =
        check_component_oracles
          ~label:(Printf.sprintf "scale-%d" n)
          ~cost net
      in
      Alcotest.(check bool)
        (Printf.sprintf "scale-%d: checked %d components" n checked)
        true (checked >= 1);
      (* whole-network bnb never loses to the default first-solution
         scheme *)
      let b =
        match (Bnb.branch_and_bound ~cost net).Solver.outcome with
        | Solver.Solution a -> assignment_cost cost net a
        | _ -> Alcotest.fail (Printf.sprintf "scale-%d: bnb found nothing" n)
      in
      match
        (Solver.solve_components ~config:(Schemes.enhanced ~seed:1 ()) net)
          .Solver.outcome
      with
      | Solver.Solution a ->
        let e = assignment_cost cost net a in
        Alcotest.(check bool)
          (Printf.sprintf "scale-%d: bnb (%.17g) <= enhanced (%.17g)" n b e)
          true
          (b <= e +. (1e-9 *. Float.max 1.0 e))
      | _ -> Alcotest.fail (Printf.sprintf "scale-%d: enhanced found nothing" n))
    [ 10; 100 ]

(* ------------------------------------------------------------------ *)
(* Cross-scheme dominance and the Med-Im04 golden                       *)
(* ------------------------------------------------------------------ *)

let other_schemes =
  [
    ("enhanced", Optimizer.Enhanced 1);
    ("enhanced-ac", Optimizer.Enhanced_ac 1);
    ("cdl", Optimizer.Cdl Cdl.default_config);
  ]

let test_cross_scheme_cost () =
  List.iter
    (fun spec ->
      let prog = spec.Spec.program in
      let sol =
        Optimizer.optimize ~candidates:spec.Spec.candidates
          (Optimizer.Bnb Bnb.default_config) prog
      in
      let cost_bnb =
        match sol.Optimizer.objective_value with
        | Some c -> c
        | None -> Alcotest.fail (spec.Spec.name ^ ": bnb without objective")
      in
      let st = Option.get sol.Optimizer.solver_stats in
      Alcotest.(check bool)
        (spec.Spec.name ^ ": at least one incumbent")
        true
        (st.Stats.incumbents >= 1);
      List.iter
        (fun (label, scheme) ->
          match
            Optimizer.optimize ~candidates:spec.Spec.candidates scheme prog
          with
          | other ->
            let c = Optimizer.objective_cost prog other.Optimizer.layouts in
            Alcotest.(check bool)
              (Printf.sprintf "%s: bnb (%.17g) <= %s (%.17g)" spec.Spec.name
                 cost_bnb label c)
              true
              (cost_bnb <= c +. (1e-9 *. Float.max 1.0 c))
          | exception Optimizer.No_solution _ -> ())
        other_schemes)
    (Suite.all ())

(* The two objectives are ordered by construction — the distinct-line
   count is the cold-miss floor of the miss estimate — and must actually
   diverge on layouts whose locality is not served (otherwise the
   [--objective] switch would be vacuous). *)
let test_objective_metrics () =
  let strict = ref false in
  List.iter
    (fun spec ->
      let prog = spec.Spec.program in
      let build = Spec.extract spec in
      let net = build.Build.network in
      for i = 0 to Network.num_vars net - 1 do
        let name = Network.name net i in
        for v = 0 to Network.domain_size net i - 1 do
          let layouts = [ (name, Network.value net i v) ] in
          let m =
            Optimizer.objective_cost ~objective:Optimizer.Estimated_misses prog
              layouts
          in
          let l =
            Optimizer.objective_cost ~objective:Optimizer.Distinct_lines prog
              layouts
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s/%s/%d: lines (%g) <= misses (%g)"
               spec.Spec.name name v l m)
            true
            (l <= m +. (1e-9 *. Float.max 1.0 m));
          if l < m -. 1e-9 then strict := true
        done
      done)
    (Suite.all ());
  Alcotest.(check bool) "metrics diverge on some layout" true !strict

(* Med-Im04 is where the optimizing search visibly pays: the cost model
   prefers a cheaper satisfying assignment than the one the enhanced
   scheme stumbles on first.  The simulated-cycle totals are pinned like
   test_golden's Table-3 numbers (enhanced's golden is 1639362). *)
let test_med_im04_golden () =
  let spec = Suite.by_name "med-im04" in
  let sol =
    Optimizer.optimize ~candidates:spec.Spec.candidates
      (Optimizer.Bnb Bnb.default_config) spec.Spec.program
  in
  let st = Option.get sol.Optimizer.solver_stats in
  Alcotest.(check bool) "bound pruning fired" true (st.Stats.bounded > 0);
  let cycles = Fixtures.simulated_cycles spec sol.Optimizer.layouts in
  Alcotest.(check int) "Med-Im04 bnb cycles" 1630436 cycles;
  Alcotest.(check bool)
    (Printf.sprintf "no worse than enhanced's golden (%d vs 1639362)" cycles)
    true (cycles <= 1639362)

(* ------------------------------------------------------------------ *)
(* CLI error contract                                                   *)
(* ------------------------------------------------------------------ *)

(* Resolved against the test binary's own location so it works both
   under `dune runtest` (cwd = _build/default/test) and `dune exec`
   from the project root. *)
let layoutopt =
  Filename.concat (Filename.dirname Sys.executable_name) "../bin/layoutopt.exe"

let read_lines file =
  let ic = open_in file in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  close_in ic;
  Sys.remove file;
  List.rev !lines

(* The exit code, stdout lines and stderr lines of one run. *)
let run_for_error args =
  let out = Filename.temp_file "layoutopt_bnb" ".out" in
  let err = Filename.temp_file "layoutopt_bnb" ".err" in
  let code =
    Sys.command
      (Printf.sprintf "%s %s >%s 2>%s" layoutopt args (Filename.quote out)
         (Filename.quote err))
  in
  let out = read_lines out in
  (code, out, read_lines err)

(* Bad bnb flags die like every other CLI validation: one line on
   stderr naming the problem, nothing on stdout, exit 2. *)
let check_one_line_error name args expect_prefix =
  let code, out, lines = run_for_error args in
  Alcotest.(check int) (name ^ ": exit code") 2 code;
  Alcotest.(check (list string)) (name ^ ": stdout") [] out;
  match lines with
  | [ line ] ->
    Alcotest.(check bool)
      (Printf.sprintf "%s: %S starts with %S" name line expect_prefix)
      true
      (String.starts_with ~prefix:expect_prefix line)
  | _ ->
    Alcotest.fail
      (Printf.sprintf "%s: expected exactly one stderr line, got %d" name
         (List.length lines))

let test_cli_errors () =
  check_one_line_error "unknown objective"
    "solve -s bnb -w mxm --objective cycles"
    "layoutopt: unknown objective 'cycles'";
  check_one_line_error "unknown scheme still dies" "solve -s bogus -w mxm"
    "layoutopt: unknown scheme 'bogus'";
  List.iter
    (fun cmd ->
      check_one_line_error (cmd ^ " with no target") cmd
        (Printf.sprintf
           "layoutopt: %s needs something to analyze (FILE arguments, \
            --suite, or -w NAME)"
           cmd))
    [ "lint"; "locality"; "deps" ];
  (* a negative budget, limit or slack is a usage error on every
     subcommand that takes one, not a search outcome ("check budget
     exhausted", exit 1), a silent clamp or an inadmissible bound *)
  List.iter
    (fun (flag, args) ->
      check_one_line_error
        (Printf.sprintf "%s %s" args flag)
        (Printf.sprintf "%s %s=-3" args flag)
        (Printf.sprintf "layoutopt: option '%s': must be non-negative (got -3)"
           flag))
    [
      ("--max-checks", "solve -w mxm");
      ("--max-checks", "table2");
      ( "--max-checks",
        "optimize-file "
        ^ Filename.concat
            (Filename.dirname Sys.executable_name)
            "../examples/programs/fig2.mlo" );
      ("--restarts", "solve -w hard-20 -s cdl");
      ("--restarts", "simulate -w mxm -s cdl");
      ("--learn-limit", "solve -w hard-20 -s cdl");
      ("--learn-limit", "solve -w mxm -s bnb");
      ("--bound-slack", "solve -s bnb -w mxm");
    ];
  (* NaN would slip past a [< 0] test *)
  check_one_line_error "NaN slack" "solve -s bnb -w mxm --bound-slack=nan"
    "layoutopt: option '--bound-slack': must be non-negative (got nan)";
  (* coefficients whose exact elimination would wrap: lint's nullspace
     and the derived layout's rank check name the overflow, and so do
     lint's bounds intervals, the address fold that locality's trace
     and optimize-file's simulation run on, and the Presburger engine
     that decides deps' and optimize-file's dependences, before any of
     them prints *)
  List.iter
    (fun (cmd, file) ->
      check_one_line_error
        (Printf.sprintf "%s %s" cmd file)
        (Printf.sprintf "%s %s" cmd
           (Filename.concat (Filename.dirname Sys.executable_name) file))
        "layoutopt: integer overflow in exact arithmetic (coefficients too \
         large)")
    [
      ("lint", "overflow-lint.mlo");
      ("lint", "overflow-bounds.mlo");
      ("deps", "overflow-bounds.mlo");
      ("deps --json", "overflow-bounds.mlo");
      ("optimize-file", "overflow-bounds.mlo");
      ("optimize-file", "overflow-layout.mlo");
      ("optimize-file --simulate", "overflow-lint.mlo");
      ("locality", "overflow-lint.mlo");
      ("locality", "overflow-layout.mlo");
    ]

(* deps reports dependences and derives no layout, so a layout whose
   rank check overflows (optimize-file's exit above) is no error here *)
let test_deps_derives_no_layout () =
  let code, out, err =
    run_for_error
      (Printf.sprintf "deps %s"
         (Filename.concat
            (Filename.dirname Sys.executable_name)
            "overflow-layout.mlo"))
  in
  Alcotest.(check int) "exit code" 0 code;
  Alcotest.(check (list string)) "stderr" [] err;
  Alcotest.(check bool) "prints the nest's report" true
    (List.mem "nest wrap (depth 1): 1/1 loop orders legal" out)

let () =
  Alcotest.run "bnb"
    [
      ( "oracle",
        [
          QCheck_alcotest.to_alcotest prop_bnb_optimal;
          QCheck_alcotest.to_alcotest prop_bnb_components_optimal;
          QCheck_alcotest.to_alcotest prop_bnb_agrees;
        ] );
      ( "bound",
        [
          QCheck_alcotest.to_alcotest prop_lower_bound_admissible;
          QCheck_alcotest.to_alcotest prop_bound_slack_approximates;
          Alcotest.test_case "invalid configs rejected" `Quick
            test_invalid_config;
        ] );
      ( "trace",
        [ Alcotest.test_case "incumbents improve monotonically" `Quick
            test_incumbent_monotone ] );
      ( "workloads",
        [
          Alcotest.test_case "benchmark components match oracle" `Slow
            test_benchmark_component_oracles;
          Alcotest.test_case "scale components match oracle" `Slow
            test_scale_component_oracles;
          Alcotest.test_case "bnb never costlier than other schemes" `Slow
            test_cross_scheme_cost;
          Alcotest.test_case "objective metrics ordered and distinct" `Quick
            test_objective_metrics;
          Alcotest.test_case "Med-Im04 golden" `Slow test_med_im04_golden;
        ] );
      ( "cli",
        [
          Alcotest.test_case "one-line errors, exit 2" `Quick test_cli_errors;
          Alcotest.test_case "deps derives no layout" `Quick
            test_deps_derives_no_layout;
        ]
      );
    ]
