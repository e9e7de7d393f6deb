module Spec = Mlo_workloads.Spec
module Suite = Mlo_workloads.Suite
module Network = Mlo_csp.Network
module Solver = Mlo_csp.Solver
module Schemes = Mlo_csp.Schemes
module Stats = Mlo_csp.Stats
module Build = Mlo_netgen.Build
module Propagation = Mlo_heuristic.Propagation
module Simulate = Mlo_cachesim.Simulate
module Optimizer = Mlo_core.Optimizer
module Trace = Mlo_obs.Trace

let default_max_checks = 2_000_000_000

(* One span per (experiment, workload) row so a trace of [table2]/
   [table3] rolls up into per-benchmark wall-time phases. *)
let row_span experiment name f =
  Trace.with_span ~cat:"experiment" (experiment ^ ":" ^ name) f

(* ------------------------------------------------------------------ *)
(* Table 1                                                              *)
(* ------------------------------------------------------------------ *)

type table1_row = {
  t1_name : string;
  description : string;
  domain_size : int;
  paper_domain_size : int;
  data_kb : float;
  paper_data_kb : float;
}

let run_table1 () =
  List.map
    (fun spec ->
      let build = Spec.extract spec in
      {
        t1_name = spec.Spec.name;
        description = spec.Spec.description;
        domain_size = Network.total_domain_size build.Build.network;
        paper_domain_size = spec.Spec.paper_domain_size;
        data_kb = Spec.data_kb spec;
        paper_data_kb = spec.Spec.paper_data_kb;
      })
    (Suite.all ())

let print_table1 ppf rows =
  Format.fprintf ppf "@[<v>Table 1: Benchmark codes.@,";
  Format.fprintf ppf "%-10s %-38s %13s %13s %15s %15s@," "Benchmark"
    "Description" "Domain" "(paper)" "Data" "(paper)";
  List.iter
    (fun r ->
      Format.fprintf ppf "%-10s %-38s %13d %13d %13.2fKB %13.2fKB@," r.t1_name
        r.description r.domain_size r.paper_domain_size r.data_kb
        r.paper_data_kb)
    rows;
  Format.fprintf ppf "@]"

(* ------------------------------------------------------------------ *)
(* Table 2                                                              *)
(* ------------------------------------------------------------------ *)

type effort = { work : int; seconds : float; capped : bool }

type table2_row = {
  t2_name : string;
  heuristic : effort;
  base : effort;
  enhanced : effort;
  t2_pruned : int;
  paper : Spec.solution_times;
}

let solve_effort config net =
  let r = Solver.solve ~config net in
  {
    work = r.Solver.stats.Stats.checks;
    seconds = r.Solver.stats.Stats.elapsed_s;
    capped = r.Solver.outcome = Solver.Aborted;
  }

let run_table2 ?(seed = 1) ?(max_checks = default_max_checks)
    ?(prune_dominated = false) () =
  List.map
    (fun spec ->
      row_span "table2" spec.Spec.name @@ fun () ->
      let build = Spec.extract spec in
      let build, pruned =
        if prune_dominated then
          let b, info = Mlo_netgen.Prune.apply build in
          (b, Mlo_netgen.Prune.total info)
        else (build, 0)
      in
      let net = build.Build.network in
      let h = Propagation.optimize spec.Spec.program in
      {
        t2_name = spec.Spec.name;
        heuristic =
          {
            work = h.Propagation.evaluations;
            seconds = h.Propagation.elapsed_s;
            capped = false;
          };
        base = solve_effort (Schemes.base ~seed ~max_checks ()) net;
        enhanced = solve_effort (Schemes.enhanced ~seed ~max_checks ()) net;
        t2_pruned = pruned;
        paper = spec.Spec.paper_solution;
      })
    (Suite.all ())

let pp_effort ppf e =
  Format.fprintf ppf "%s%-11d %9.4fs"
    (if e.capped then ">" else " ")
    e.work e.seconds

let print_table2 ppf rows =
  Format.fprintf ppf
    "@[<v>Table 2: Solution times (work = consistency checks; heuristic work = combinations scored).@,";
  Format.fprintf ppf "%-10s | %22s | %22s | %22s | paper h/b/e (s)@,"
    "Benchmark" "Heuristic" "Base" "Enhanced";
  List.iter
    (fun r ->
      Format.fprintf ppf "%-10s | %a | %a | %a | %.2f / %.2f / %.2f%s@,"
        r.t2_name pp_effort r.heuristic pp_effort r.base pp_effort r.enhanced
        r.paper.Spec.heuristic_s r.paper.Spec.base_s r.paper.Spec.enhanced_s
        (if r.t2_pruned > 0 then
           Printf.sprintf " | pruned %d" r.t2_pruned
         else ""))
    rows;
  Format.fprintf ppf "@]"

(* ------------------------------------------------------------------ *)
(* Figure 4                                                             *)
(* ------------------------------------------------------------------ *)

type fig4_row = { f4_name : string; shares : (string * float) list }

let run_fig4 ?(seed = 1) ?(max_checks = default_max_checks) () =
  List.map
    (fun spec ->
      row_span "fig4" spec.Spec.name @@ fun () ->
      let build = Spec.extract spec in
      let net = build.Build.network in
      let checks config = (solve_effort config net).work in
      let base_checks = checks (Schemes.base ~seed ~max_checks ()) in
      let enhanced_checks = checks (Schemes.enhanced ~seed ~max_checks ()) in
      let single =
        List.map
          (fun a ->
            (a.Schemes.label, checks a.Schemes.config))
          (Schemes.figure4_schemes ~seed ~max_checks ())
      in
      {
        f4_name = spec.Spec.name;
        shares = Schemes.breakdown ~base_checks ~enhanced_checks ~single;
      })
    (Suite.all ())

let print_fig4 ppf rows =
  Format.fprintf ppf
    "@[<v>Figure 4: Breakdown of benefits of the enhanced scheme (share of base-to-enhanced saving).@,";
  (match rows with
  | [] -> ()
  | r0 :: _ ->
    Format.fprintf ppf "%-10s" "Benchmark";
    List.iter (fun (l, _) -> Format.fprintf ppf " %20s" l) r0.shares;
    Format.fprintf ppf "@,");
  List.iter
    (fun r ->
      Format.fprintf ppf "%-10s" r.f4_name;
      List.iter (fun (_, s) -> Format.fprintf ppf " %19.1f%%" (100. *. s)) r.shares;
      Format.fprintf ppf "@,")
    rows;
  Format.fprintf ppf "@]"

(* ------------------------------------------------------------------ *)
(* Table 3                                                              *)
(* ------------------------------------------------------------------ *)

type table3_row = {
  t3_name : string;
  original_cycles : int;
  heuristic_cycles : int;
  base_cycles : int;
  enhanced_cycles : int;
  paper : Spec.exec_times;
}

(* The base scheme's random decisions occasionally degenerate; retry a
   few seeds before giving up, as any practical implementation would. *)
let optimize_with_retries scheme_of_seed ~candidates ~max_checks ~seed prog =
  let rec go attempt =
    if attempt >= 5 then
      raise
        (Optimizer.No_solution
           (Mlo_ir.Program.name prog ^ ": all retry seeds exhausted"))
    else
      try
        Optimizer.optimize ~candidates ~max_checks
          (scheme_of_seed (seed + attempt))
          prog
      with Optimizer.No_solution _ -> go (attempt + 1)
  in
  go 0

let run_table3 ?(seed = 1) ?(max_checks = default_max_checks) () =
  List.map
    (fun spec ->
      row_span "table3" spec.Spec.name @@ fun () ->
      let prog = spec.Spec.sim_program in
      let candidates = spec.Spec.candidates in
      let heuristic_sol = Optimizer.optimize Optimizer.Heuristic prog in
      let base_sol =
        optimize_with_retries
          (fun s -> Optimizer.Base s)
          ~candidates ~max_checks ~seed prog
      in
      let enhanced_sol =
        optimize_with_retries
          (fun s -> Optimizer.Enhanced s)
          ~candidates ~max_checks ~seed prog
      in
      let original = Optimizer.simulate_original prog in
      let heuristic = Optimizer.simulate heuristic_sol in
      let base = Optimizer.simulate base_sol in
      let enhanced = Optimizer.simulate enhanced_sol in
      {
        t3_name = spec.Spec.name;
        original_cycles = Simulate.cycles original;
        heuristic_cycles = Simulate.cycles heuristic;
        base_cycles = Simulate.cycles base;
        enhanced_cycles = Simulate.cycles enhanced;
        paper = spec.Spec.paper_exec;
      })
    (Suite.all ())

(* ------------------------------------------------------------------ *)
(* Ablation                                                             *)
(* ------------------------------------------------------------------ *)

type ablation_row = {
  ab_name : string;
  per_scheme : (string * effort) list;
}

let run_ablation ?(seed = 1) ?(max_checks = default_max_checks) () =
  List.map
    (fun spec ->
      row_span "ablation" spec.Spec.name @@ fun () ->
      let build = Spec.extract spec in
      let net = build.Build.network in
      let schemes =
        [ ("base", Schemes.base ~seed ~max_checks ()) ]
        @ List.map
            (fun a -> (a.Schemes.label, a.Schemes.config))
            (Schemes.figure4_schemes ~seed ~max_checks ())
        @ [ ("enhanced", Schemes.enhanced ~seed ~max_checks ()) ]
        @ List.map
            (fun a -> (a.Schemes.label, a.Schemes.config))
            (Schemes.extension_schemes ~seed ~max_checks ())
      in
      let per_scheme =
        List.map (fun (label, config) -> (label, solve_effort config net)) schemes
      in
      (* AC-2001 preprocessing is covered by extension_schemes's
         Enhanced+AC entry: work counts search checks only, seconds
         include propagation *)
      let min_conflicts =
        let t0 = Mlo_csp.Clock.wall_s () in
        let r =
          Mlo_csp.Local_search.solve
            ~config:{ Mlo_csp.Local_search.default_config with seed }
            net
        in
        {
          work = r.Mlo_csp.Local_search.steps;
          seconds = Mlo_csp.Clock.wall_s () -. t0;
          capped =
            (match r.Mlo_csp.Local_search.outcome with
            | Mlo_csp.Local_search.Solution _ -> false
            | Mlo_csp.Local_search.Stuck _ -> true);
        }
      in
      {
        ab_name = spec.Spec.name;
        per_scheme = per_scheme @ [ ("MinConflicts", min_conflicts) ];
      })
    (Suite.all ())

let print_ablation ppf rows =
  Format.fprintf ppf
    "@[<v>Ablation: solver design choices (work = consistency checks; \
     MinConflicts = reassignment steps, '>' = stuck).@,";
  (match rows with
  | [] -> ()
  | r0 :: _ ->
    Format.fprintf ppf "%-10s" "Benchmark";
    List.iter (fun (l, _) -> Format.fprintf ppf " %18s" l) r0.per_scheme;
    Format.fprintf ppf "@,");
  List.iter
    (fun r ->
      Format.fprintf ppf "%-10s" r.ab_name;
      List.iter
        (fun (_, e) ->
          Format.fprintf ppf " %s%17d" (if e.capped then ">" else " ") e.work)
        r.per_scheme;
      Format.fprintf ppf "@,")
    rows;
  Format.fprintf ppf "@]"

let improvement ~original cycles =
  100. *. (1. -. (float_of_int cycles /. float_of_int original))

let average_improvement rows accessor =
  let sum =
    List.fold_left
      (fun acc r -> acc +. improvement ~original:r.original_cycles (accessor r))
      0. rows
  in
  sum /. float_of_int (List.length rows)

let print_table3 ppf rows =
  Format.fprintf ppf
    "@[<v>Table 3: Execution (simulated cycles; %% = improvement over original).@,";
  Format.fprintf ppf "%-10s %14s %20s %20s %20s | paper o/h/b/e (s)@,"
    "Benchmark" "Original" "Heuristic" "Base" "Enhanced";
  List.iter
    (fun r ->
      let pct c = improvement ~original:r.original_cycles c in
      Format.fprintf ppf
        "%-10s %14d %13d %5.1f%% %13d %5.1f%% %13d %5.1f%% | %.2f / %.2f / %.2f / %.2f@,"
        r.t3_name r.original_cycles r.heuristic_cycles (pct r.heuristic_cycles)
        r.base_cycles (pct r.base_cycles) r.enhanced_cycles
        (pct r.enhanced_cycles) r.paper.Spec.original_s
        r.paper.Spec.heuristic_exec_s r.paper.Spec.base_exec_s
        r.paper.Spec.enhanced_exec_s)
    rows;
  Format.fprintf ppf "Average improvement: heuristic %.2f%%, base %.2f%%, enhanced %.2f%%"
    (average_improvement rows (fun r -> r.heuristic_cycles))
    (average_improvement rows (fun r -> r.base_cycles))
    (average_improvement rows (fun r -> r.enhanced_cycles));
  Format.fprintf ppf "@,(paper: 42.49%%, 57.17%%, 57.95%%)@]"
