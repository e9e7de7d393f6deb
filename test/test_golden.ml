(* Golden regression pins.

   The search is deterministic given a seed and the simulator is
   deterministic outright, so the exact consistency-check / node counts
   behind Table 2 and the exact cycle counts behind Table 3 are stable
   artifacts of the implementation.  Pinning them catches any silent
   change to search order, constraint generation or the cache model —
   the counters every experiment in the paper is reproduced through.

   If a change legitimately alters these numbers (a new heuristic
   tie-break, a domain-ordering fix), regenerate the strings below with
   the printed "actual" of the failing assertion and say why in the
   commit. *)

module Spec = Mlo_workloads.Spec
module Suite = Mlo_workloads.Suite
module Build = Mlo_netgen.Build
module Solver = Mlo_csp.Solver
module Schemes = Mlo_csp.Schemes
module Stats = Mlo_csp.Stats
module Tables = Mlo_experiments.Tables
module Cdl = Mlo_csp.Cdl
module Bnb = Mlo_csp.Bnb
module Optimizer = Mlo_core.Optimizer

let workloads = [ "med-im04"; "mxm"; "radar"; "shape"; "track" ]

(* ------------------------------------------------------------------ *)
(* Table 2: work counts (seed 1)                                        *)
(* ------------------------------------------------------------------ *)

let golden_table2 =
  "Med-Im04 h=240 b=623552 e=1057\n\
   MxM h=18 b=12 e=6\n\
   Radar h=798 b=18019 e=534\n\
   Shape h=1124 b=479076 e=801\n\
   Track h=940 b=1584 e=532"

let test_table2 () =
  let actual =
    Tables.run_table2 ~seed:1 ()
    |> List.map (fun r ->
           Printf.sprintf "%s h=%d b=%d e=%d" r.Tables.t2_name
             r.Tables.heuristic.Tables.work r.Tables.base.Tables.work
             r.Tables.enhanced.Tables.work)
    |> String.concat "\n"
  in
  Alcotest.(check string) "table2 work counts (seed 1)" golden_table2 actual

(* ------------------------------------------------------------------ *)
(* Solver node/check counts on the workload networks (seed 1)           *)
(* ------------------------------------------------------------------ *)

let golden_nodes =
  "med-im04 base n=549147 c=623552 enhanced n=594 c=1057\n\
   mxm base n=11 c=12 enhanced n=5 c=6\n\
   radar base n=16836 c=18019 enhanced n=82 c=534\n\
   shape base n=492577 c=479076 enhanced n=134 c=801\n\
   track base n=1037 c=1584 enhanced n=68 c=532"

let test_solver_nodes () =
  let actual =
    workloads
    |> List.map (fun name ->
           let build = Spec.extract (Suite.by_name name) in
           let net = build.Build.network in
           let run config =
             let r = Solver.solve ~config net in
             (match r.Solver.outcome with
             | Solver.Solution _ -> ()
             | Solver.Unsatisfiable | Solver.Aborted ->
               Alcotest.failf "%s: no solution" name);
             r.Solver.stats
           in
           let b = run (Schemes.base ~seed:1 ()) in
           let e = run (Schemes.enhanced ~seed:1 ()) in
           Printf.sprintf "%s base n=%d c=%d enhanced n=%d c=%d" name
             b.Stats.nodes b.Stats.checks e.Stats.nodes e.Stats.checks)
    |> String.concat "\n"
  in
  Alcotest.(check string) "solver node/check counts (seed 1)" golden_nodes
    actual

(* ------------------------------------------------------------------ *)
(* Table 3: simulated cycle counts (seed 1)                             *)
(* ------------------------------------------------------------------ *)

let golden_table3 =
  "Med-Im04 o=1982232 h=1646296 b=1632096 e=1639362\n\
   MxM o=73851486 h=38531412 b=43041988 e=39069274\n\
   Radar o=5938168 h=5363030 b=4940462 e=4940462\n\
   Shape o=8475572 h=7599182 b=6863176 e=6863176\n\
   Track o=6777168 h=5856812 b=5159550 e=5159550"

let test_table3 () =
  let actual =
    Tables.run_table3 ~seed:1 ()
    |> List.map (fun r ->
           Printf.sprintf "%s o=%d h=%d b=%d e=%d" r.Tables.t3_name
             r.Tables.original_cycles r.Tables.heuristic_cycles
             r.Tables.base_cycles r.Tables.enhanced_cycles)
    |> String.concat "\n"
  in
  Alcotest.(check string) "table3 cycle counts (seed 1)" golden_table3 actual

(* ------------------------------------------------------------------ *)
(* Conflict-directed engines: verdicts and effort counters              *)
(* ------------------------------------------------------------------ *)

(* The cdl and bnb engines are deterministic, so every decision they
   take shows up in these counters: a refactor that reorders the search,
   learns a different nogood or prunes on a different bound moves at
   least one of them.  Each row is one component-wise solve (serial, as
   the CLI runs it) on the unpruned network, or with "+prune" on the
   dominance-pruned one; the objective is the static miss estimate of
   the chosen layouts. *)
let golden_effort =
  "Med-Im04 cdl sat obj=26235 n=60 c=247 bj=0 l=0 f=0 r=0 b=0 i=0\n\
   MxM cdl sat obj=67536 n=5 c=11 bj=0 l=0 f=0 r=0 b=0 i=0\n\
   Radar cdl sat obj=97672 n=59 c=568 bj=0 l=0 f=0 r=0 b=0 i=0\n\
   Shape cdl sat obj=136978 n=82 c=818 bj=0 l=0 f=0 r=0 b=0 i=0\n\
   Track cdl sat obj=102167 n=49 c=556 bj=0 l=0 f=0 r=0 b=0 i=0\n\
   hard-20 cdl sat obj=50704 n=60 c=222 bj=6 l=12 f=0 r=0 b=0 i=0\n\
   hard-80 cdl sat obj=207304 n=120 c=441 bj=3 l=11 f=0 r=0 b=0 i=0\n\
   hard-150 cdl unsat obj=- n=508 c=2329 bj=34 l=105 f=0 r=1 b=0 i=0\n\
   scale-100 cdl sat obj=17055 n=117 c=229 bj=0 l=3 f=0 r=0 b=0 i=0\n\
   Med-Im04 bnb sat obj=26132 n=57 c=236 bj=0 l=52 f=0 r=0 b=3 i=1\n\
   MxM bnb sat obj=67536 n=14 c=26 bj=0 l=4 f=0 r=0 b=5 i=1\n\
   Radar bnb sat obj=97672 n=61 c=568 bj=0 l=56 f=0 r=0 b=0 i=1\n\
   Shape bnb sat obj=136978 n=85 c=821 bj=0 l=79 f=0 r=0 b=0 i=1\n\
   Track bnb sat obj=102167 n=52 c=561 bj=0 l=46 f=0 r=0 b=0 i=1\n\
   hard-20 bnb sat obj=50676 n=100 c=406 bj=8 l=60 f=0 r=0 b=9 i=1\n\
   hard-80 bnb sat obj=207276 n=172 c=667 bj=13 l=95 f=0 r=0 b=27 i=1\n\
   hard-150 bnb unsat obj=- n=161 c=612 bj=11 l=33 f=0 r=0 b=0 i=0\n\
   scale-100 bnb sat obj=14057 n=158 c=317 bj=0 l=55 f=0 r=0 b=40 i=50\n\
   Med-Im04 bnb+prune sat obj=26132 n=70 c=375 bj=2 l=64 f=0 r=0 b=1 i=1\n\
   MxM bnb+prune sat obj=67536 n=8 c=15 bj=0 l=4 f=0 r=0 b=3 i=1\n\
   Radar bnb+prune sat obj=97672 n=61 c=568 bj=0 l=56 f=0 r=0 b=0 i=1\n\
   Shape bnb+prune sat obj=136978 n=85 c=821 bj=0 l=79 f=0 r=0 b=0 i=1\n\
   Track bnb+prune sat obj=102167 n=51 c=560 bj=0 l=46 f=0 r=0 b=0 i=1"

let effort_row spec label ~prune run =
  let build0 = Spec.extract spec in
  let build =
    if prune then fst (Mlo_netgen.Prune.apply build0) else build0
  in
  let prog = spec.Spec.program in
  let r = run prog build in
  let verdict, objective =
    match r.Solver.outcome with
    | Solver.Solution a ->
      ( "sat",
        Printf.sprintf "%.17g"
          (Optimizer.objective_cost prog (Build.assignment_layouts build a)) )
    | Solver.Unsatisfiable -> ("unsat", "-")
    | Solver.Aborted -> ("aborted", "-")
  in
  let s = r.Solver.stats in
  Printf.sprintf
    "%s %s%s %s obj=%s n=%d c=%d bj=%d l=%d f=%d r=%d b=%d i=%d"
    spec.Spec.name label
    (if prune then "+prune" else "")
    verdict objective s.Stats.nodes s.Stats.checks s.Stats.backjumps
    s.Stats.learned s.Stats.forgotten s.Stats.restarts s.Stats.bounded
    s.Stats.incumbents

let run_cdl _prog build =
  Cdl.solve_components ~config:Cdl.default_config build.Build.network

let run_bnb prog build =
  let cost_of_layout =
    Optimizer.layout_cost ~objective:Optimizer.Estimated_misses prog
  in
  let net = build.Build.network in
  let cost name v =
    cost_of_layout ~array_name:name
      ~layout:(Mlo_csp.Network.value net (Build.var_of_array build name) v)
  in
  Bnb.branch_and_bound ~config:Bnb.default_config ~cost net

let test_effort_counters () =
  let specs =
    List.map Suite.by_name
      (workloads @ [ "hard-20"; "hard-80"; "hard-150"; "scale-100" ])
  in
  let paper = List.map Suite.by_name workloads in
  let actual =
    List.map (fun spec -> effort_row spec "cdl" ~prune:false run_cdl) specs
    @ List.map (fun spec -> effort_row spec "bnb" ~prune:false run_bnb) specs
    @ List.map (fun spec -> effort_row spec "bnb" ~prune:true run_bnb) paper
    |> String.concat "\n"
  in
  Alcotest.(check string) "cdl/bnb verdicts and effort counters"
    golden_effort actual

let () =
  Alcotest.run "golden"
    [
      ( "pins",
        [
          Alcotest.test_case "table2 work" `Slow test_table2;
          Alcotest.test_case "solver nodes" `Slow test_solver_nodes;
          Alcotest.test_case "table3 cycles" `Slow test_table3;
          Alcotest.test_case "cdl/bnb effort counters" `Slow
            test_effort_counters;
        ] );
    ]
