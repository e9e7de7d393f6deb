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
module Proof = Mlo_verify.Proof

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
(* Solver effort: the eight [ablation] configurations (seed 1)          *)
(* ------------------------------------------------------------------ *)

(* Every systematic configuration the CLI's [ablation] table runs — base,
   the three Figure-4 singles, enhanced and its CBJ/FC/AC extensions —
   on every Table-1 network: the verdict and every effort counter.  The
   reference-engine qchecks cover these policies only on small random
   networks, and count forward-checking checks differently and ignore
   AC; this pins the shipped engine on the real ones. *)
let golden_nodes =
  "Med-Im04 base sat n=549147 c=623552 bt=111480 bj=0 p=0 d=51\n\
   Med-Im04 Variable Selection sat n=325465 c=510800 bt=57815 bj=0 p=0 d=51\n\
   Med-Im04 Value Selection sat n=177697 c=226531 bt=35859 bj=0 p=0 d=51\n\
   Med-Im04 Backjumping sat n=1724 c=2331 bt=50 bj=105 p=0 d=51\n\
   Med-Im04 enhanced sat n=594 c=1057 bt=37 bj=42 p=0 d=51\n\
   Med-Im04 Enhanced+CBJ sat n=99 c=243 bt=0 bj=1 p=0 d=51\n\
   Med-Im04 Enhanced+FC sat n=53 c=178 bt=0 bj=0 p=171 d=51\n\
   Med-Im04 Enhanced+AC sat n=52 c=176 bt=0 bj=0 p=0 d=51\n\
   MxM base sat n=11 c=12 bt=0 bj=0 p=0 d=4\n\
   MxM Variable Selection sat n=24 c=23 bt=2 bj=0 p=0 d=4\n\
   MxM Value Selection sat n=5 c=6 bt=0 bj=0 p=0 d=4\n\
   MxM Backjumping sat n=11 c=12 bt=0 bj=0 p=0 d=4\n\
   MxM enhanced sat n=5 c=6 bt=0 bj=0 p=0 d=4\n\
   MxM Enhanced+CBJ sat n=5 c=6 bt=0 bj=0 p=0 d=4\n\
   MxM Enhanced+FC sat n=5 c=6 bt=0 bj=0 p=20 d=4\n\
   MxM Enhanced+AC sat n=5 c=6 bt=0 bj=0 p=0 d=4\n\
   Radar base sat n=16836 c=18019 bt=2233 bj=0 p=0 d=56\n\
   Radar Variable Selection sat n=531 c=1048 bt=34 bj=0 p=0 d=56\n\
   Radar Value Selection sat n=77 c=528 bt=0 bj=0 p=0 d=56\n\
   Radar Backjumping sat n=672 c=1151 bt=24 bj=23 p=0 d=56\n\
   Radar enhanced sat n=82 c=534 bt=0 bj=0 p=0 d=56\n\
   Radar Enhanced+CBJ sat n=82 c=534 bt=0 bj=0 p=0 d=56\n\
   Radar Enhanced+FC sat n=57 c=504 bt=0 bj=0 p=332 d=56\n\
   Radar Enhanced+AC sat n=57 c=504 bt=0 bj=0 p=0 d=56\n\
   Shape base sat n=492577 c=479076 bt=60099 bj=0 p=0 d=79\n\
   Shape Variable Selection sat n=540 c=1269 bt=22 bj=0 p=0 d=79\n\
   Shape Value Selection sat n=101 c=757 bt=0 bj=0 p=0 d=79\n\
   Shape Backjumping sat n=1486 c=2439 bt=43 bj=46 p=0 d=79\n\
   Shape enhanced sat n=134 c=801 bt=0 bj=1 p=0 d=79\n\
   Shape Enhanced+CBJ sat n=134 c=801 bt=0 bj=1 p=0 d=79\n\
   Shape Enhanced+FC sat n=80 c=735 bt=0 bj=0 p=560 d=79\n\
   Shape Enhanced+AC sat n=80 c=735 bt=0 bj=0 p=0 d=79\n\
   Track base sat n=1037 c=1584 bt=100 bj=0 p=0 d=46\n\
   Track Variable Selection sat n=827 c=1386 bt=74 bj=0 p=0 d=46\n\
   Track Value Selection sat n=57 c=522 bt=0 bj=0 p=0 d=46\n\
   Track Backjumping sat n=598 c=1113 bt=33 bj=5 p=0 d=46\n\
   Track enhanced sat n=68 c=532 bt=0 bj=0 p=0 d=46\n\
   Track Enhanced+CBJ sat n=68 c=532 bt=0 bj=0 p=0 d=46\n\
   Track Enhanced+FC sat n=47 c=507 bt=0 bj=0 p=327 d=46\n\
   Track Enhanced+AC sat n=47 c=507 bt=0 bj=0 p=0 d=46"

let policy_configs =
  [ ("base", Schemes.base ~seed:1 ()) ]
  @ List.map
      (fun a -> (a.Schemes.label, a.Schemes.config))
      (Schemes.figure4_schemes ~seed:1 ())
  @ [ ("enhanced", Schemes.enhanced ~seed:1 ()) ]
  @ List.map
      (fun a -> (a.Schemes.label, a.Schemes.config))
      (Schemes.extension_schemes ~seed:1 ())

let test_solver_nodes () =
  let actual =
    workloads
    |> List.concat_map (fun name ->
           let spec = Suite.by_name name in
           let net = (Spec.extract spec).Build.network in
           List.map
             (fun (label, config) ->
               let r = Solver.solve ~config net in
               let verdict =
                 match r.Solver.outcome with
                 | Solver.Solution _ -> "sat"
                 | Solver.Unsatisfiable -> "unsat"
                 | Solver.Aborted -> "aborted"
               in
               let s = r.Solver.stats in
               Printf.sprintf "%s %s %s n=%d c=%d bt=%d bj=%d p=%d d=%d"
                 spec.Spec.name label verdict s.Stats.nodes s.Stats.checks
                 s.Stats.backtracks s.Stats.backjumps s.Stats.prunings
                 s.Stats.max_depth)
             policy_configs)
    |> String.concat "\n"
  in
  Alcotest.(check string) "solver node/check counts (seed 1)" golden_nodes
    actual

(* The enhanced scheme on the end-to-end benchmark's four hard
   instances (hard-80 and hard-150 at family seeds 23 and 24), two
   satisfiable and two exhaustive: nearly all of their time is the
   most-constraining search, so every variable it picks shows here. *)
let golden_hard_enhanced =
  "hard-80#0 sat n=79754 c=201335 bt=175 bj=4166\n\
   hard-80#1 sat n=5472 c=12439 bt=23 bj=304\n\
   hard-150#0 unsat n=216583 c=390542 bt=458 bj=6710\n\
   hard-150#1 unsat n=161754 c=338779 bt=923 bj=3758"

let test_hard_enhanced () =
  let actual =
    List.concat_map
      (fun n ->
        List.map
          (fun k ->
            let spec = Suite.hard ~seed:(23 + k) n in
            let net = (Spec.extract spec).Build.network in
            let r =
              Solver.solve_components ~config:(Schemes.enhanced ~seed:1 ()) net
            in
            let verdict =
              match r.Solver.outcome with
              | Solver.Solution _ -> "sat"
              | Solver.Unsatisfiable -> "unsat"
              | Solver.Aborted -> "aborted"
            in
            let s = r.Solver.stats in
            Printf.sprintf "hard-%d#%d %s n=%d c=%d bt=%d bj=%d" n k verdict
              s.Stats.nodes s.Stats.checks s.Stats.backtracks s.Stats.backjumps)
          [ 0; 1 ])
      [ 80; 150 ]
    |> String.concat "\n"
  in
  Alcotest.(check string) "enhanced counters on the hard instances"
    golden_hard_enhanced actual

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
   scale-1000 cdl sat obj=157973 n=1166 c=2481 bj=0 l=20 f=0 r=0 b=0 i=0\n\
   Med-Im04 bnb sat obj=26132 n=57 c=236 bj=0 l=52 f=0 r=0 b=3 i=1\n\
   MxM bnb sat obj=67536 n=14 c=26 bj=0 l=4 f=0 r=0 b=5 i=1\n\
   Radar bnb sat obj=97672 n=61 c=568 bj=0 l=56 f=0 r=0 b=0 i=1\n\
   Shape bnb sat obj=136978 n=85 c=821 bj=0 l=79 f=0 r=0 b=0 i=1\n\
   Track bnb sat obj=102167 n=52 c=561 bj=0 l=46 f=0 r=0 b=0 i=1\n\
   hard-20 bnb sat obj=50676 n=100 c=406 bj=8 l=60 f=0 r=0 b=9 i=1\n\
   hard-80 bnb sat obj=207276 n=172 c=667 bj=13 l=95 f=0 r=0 b=27 i=1\n\
   hard-150 bnb unsat obj=- n=161 c=612 bj=11 l=33 f=0 r=0 b=0 i=0\n\
   scale-100 bnb sat obj=14057 n=158 c=317 bj=0 l=55 f=0 r=0 b=40 i=50\n\
   scale-1000 bnb sat obj=150941 n=1498 c=3305 bj=4 l=671 f=0 r=0 b=266 i=456\n\
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
  let net = build.Build.network in
  let costs =
    Optimizer.cost_table ~objective:Optimizer.Estimated_misses prog net
  in
  let cost name v = costs.(Build.var_of_array build name).(v) in
  Bnb.branch_and_bound ~config:Bnb.default_config ~cost net

let test_effort_counters () =
  let specs =
    List.map Suite.by_name
      (workloads
       @ [ "hard-20"; "hard-80"; "hard-150"; "scale-100"; "scale-1000" ])
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

(* ------------------------------------------------------------------ *)
(* Static cost tables and dominance pruning                             *)
(* ------------------------------------------------------------------ *)

(* One row per (workload, objective): the MD5 of [Optimizer.cost_table]
   over the unpruned network, every entry printed exactly with [%h].
   The table is what bnb minimizes, what its Optimal certificates carry
   and what dominance pruning compares, so any drift in the locality
   profiler — however small — moves a digest here. *)
let golden_cost_tables =
  "Med-Im04 misses md5=37f68705fc118cee8a352b7958adba64\n\
   Med-Im04 lines md5=37f68705fc118cee8a352b7958adba64\n\
   MxM misses md5=2a0385a711e2f68d3a4e82117a2e1b25\n\
   MxM lines md5=b1654324956a2368efed6b7f09524e34\n\
   Radar misses md5=d1defe40e2b62597e2396e1999a24888\n\
   Radar lines md5=d1defe40e2b62597e2396e1999a24888\n\
   Shape misses md5=02e436e62e3ffaa1c26096e4547b74e1\n\
   Shape lines md5=02e436e62e3ffaa1c26096e4547b74e1\n\
   Track misses md5=9afd645d41c76673dc0fece4c4f74942\n\
   Track lines md5=9afd645d41c76673dc0fece4c4f74942\n\
   scale-100 misses md5=bb1574a2c6ae2f9fe9073e21f5b368af\n\
   scale-100 lines md5=bb1574a2c6ae2f9fe9073e21f5b368af\n\
   hard-20 misses md5=7ef7f5fbaf8f5dc2a2fdba45f8dbeb1e\n\
   hard-20 lines md5=51caf7f054e53ab883b08afb6041b8fc"

let cost_table_row spec objective =
  let net = (Spec.extract spec).Build.network in
  let table = Optimizer.cost_table ~objective spec.Spec.program net in
  let text =
    Array.to_list table
    |> List.map (fun row ->
           String.concat " "
             (Array.to_list (Array.map (Printf.sprintf "%h") row)))
    |> String.concat "\n"
  in
  Printf.sprintf "%s %s md5=%s" spec.Spec.name
    (Optimizer.objective_label objective)
    (Digest.to_hex (Digest.string text))

let test_cost_tables () =
  let specs =
    List.map Suite.by_name (workloads @ [ "scale-100"; "hard-20" ])
  in
  let actual =
    List.concat_map
      (fun spec ->
        [
          cost_table_row spec Optimizer.Estimated_misses;
          cost_table_row spec Optimizer.Distinct_lines;
        ])
      specs
    |> String.concat "\n"
  in
  Alcotest.(check string) "cost-table digests" golden_cost_tables actual

let golden_prune_totals = "Med-Im04 26\nMxM 26\nRadar 10\nShape 48\nTrack 19"

let test_prune_totals () =
  let actual =
    workloads
    |> List.map (fun name ->
           let spec = Suite.by_name name in
           let _, info = Mlo_netgen.Prune.apply (Spec.extract spec) in
           Printf.sprintf "%s %d" spec.Spec.name (Mlo_netgen.Prune.total info))
    |> String.concat "\n"
  in
  Alcotest.(check string) "dominance-prune totals" golden_prune_totals actual

(* ------------------------------------------------------------------ *)
(* Certificates: the exact bytes `solve --proof` writes                 *)
(* ------------------------------------------------------------------ *)

(* One row per certificate [Optimizer.optimize ~proof] writes: its line
   count and the MD5 of its NDJSON lines.  Any change to what a
   certificate contains — step order, literal mapping, deletion
   justifications (dominance under "+prune", arc consistency under
   enhanced-ac), incumbent and optimum costs — moves a digest. *)
let golden_certificates =
  "Med-Im04 cdl sat lines=3 md5=13934aed1eee60b223ce4bdb7b53107f\n\
   Med-Im04 bnb optimal lines=56 md5=c414de1cdf5ee0954367ca23c59f1915\n\
   Med-Im04 bnb+prune optimal lines=94 md5=a5dfea2a47f867db574a859cb0717ec4\n\
   Med-Im04 enhanced-ac sat lines=205 md5=0acaf5bd2586260e511e9e83094bbc9e\n\
   MxM cdl sat lines=3 md5=25f0cd8d862940c5ace3f776b927c6aa\n\
   MxM bnb optimal lines=8 md5=f45eca52ba819b6f91933d13299a851e\n\
   MxM bnb+prune optimal lines=34 md5=dda62e89f5ba74fca29a8b38cf3d11e6\n\
   MxM enhanced-ac sat lines=26 md5=712f0ac0d22f121038d4f5be0e9b9c2d\n\
   Radar cdl sat lines=3 md5=1d638c703cdceb854195cd790b098e92\n\
   Radar bnb optimal lines=60 md5=6031c07287f713fefe085e4795a25478\n\
   Radar bnb+prune optimal lines=70 md5=468800689eaf47a1f4261af660bf4f69\n\
   Radar enhanced-ac sat lines=367 md5=0a5775aafa22aca5f7493a887a53486a\n\
   Shape cdl sat lines=3 md5=99699ad1b8b22a29bd8bc4942886edf3\n\
   Shape bnb optimal lines=83 md5=6fc6979c73c144e678e8b9dd448ceabc\n\
   Shape bnb+prune optimal lines=131 md5=65f1c7df04b0b201598ee719451aa9e1\n\
   Shape enhanced-ac sat lines=578 md5=302d3045a0eb959f5bf1c947fd1f68a2\n\
   Track cdl sat lines=3 md5=8a42dad28153f9a65464689f04fc56ad\n\
   Track bnb optimal lines=50 md5=fa2bf8295a4ac192b8f91afc4517aeb8\n\
   Track bnb+prune optimal lines=69 md5=847bbf4820ab885cf51a6665ed966fbd\n\
   Track enhanced-ac sat lines=343 md5=0fc5186514d84638edf44140e6d0fa7e\n\
   hard-20 bnb optimal lines=64 md5=7f4527f649b8c45e88c5e995e7faabd9\n\
   hard-150 cdl unsat lines=108 md5=88b92756cb84a4835b0ca12f62f319d4\n\
   scale-100 cdl sat lines=55 md5=f67276ed459f948ec5a23477f62ae3fd\n\
   scale-100 bnb optimal lines=157 md5=0b885e66133ad6056c8c75cfc8be30db\n\
   scale-1000 cdl sat lines=464 md5=f10dacc070edc95871817f2b754ccfc1\n\
   scale-1000 bnb optimal lines=1571 md5=8722fb03f0e488a6cfe7a3d5041dc189"

let certificate_row spec label ?(prune = false) scheme =
  let proof = ref None in
  (try
     ignore
       (Optimizer.optimize ~candidates:spec.Spec.candidates
          ~prune_dominated:prune
          ~proof:(fun p -> proof := Some p)
          scheme spec.Spec.program)
   with Optimizer.No_solution _ -> ());
  match !proof with
  | None -> Alcotest.failf "%s %s: no certificate" spec.Spec.name label
  | Some p ->
    let lines = Proof.to_lines p in
    let verdict =
      match p.Proof.verdict with
      | Some (Proof.Sat _) -> "sat"
      | Some Proof.Unsat -> "unsat"
      | Some (Proof.Optimal _) -> "optimal"
      | Some Proof.Aborted -> "aborted"
      | None -> "none"
    in
    Printf.sprintf "%s %s%s %s lines=%d md5=%s" spec.Spec.name label
      (if prune then "+prune" else "")
      verdict (List.length lines)
      (Digest.to_hex (Digest.string (String.concat "\n" lines)))

let test_certificates () =
  let cdl = Optimizer.Cdl Cdl.default_config
  and bnb = Optimizer.Bnb Bnb.default_config in
  let paper = List.map Suite.by_name workloads in
  let actual =
    List.concat_map
      (fun spec ->
        [
          certificate_row spec "cdl" cdl;
          certificate_row spec "bnb" bnb;
          certificate_row spec "bnb" ~prune:true bnb;
          certificate_row spec "enhanced-ac" (Optimizer.Enhanced_ac 1);
        ])
      paper
    @ [
        certificate_row (Suite.by_name "hard-20") "bnb" bnb;
        certificate_row (Suite.by_name "hard-150") "cdl" cdl;
        certificate_row (Suite.by_name "scale-100") "cdl" cdl;
        certificate_row (Suite.by_name "scale-100") "bnb" bnb;
        certificate_row (Suite.by_name "scale-1000") "cdl" cdl;
        certificate_row (Suite.by_name "scale-1000") "bnb" bnb;
      ]
    |> String.concat "\n"
  in
  Alcotest.(check string) "certificate line counts and digests"
    golden_certificates actual

(* ------------------------------------------------------------------ *)
(* Networks and restructured programs                                   *)
(* ------------------------------------------------------------------ *)

(* One row per program: the certificate digest of its network (and of
   the relaxed network), the MD5 of its domains' layouts, the MD5 of
   every allowed pair's [Build.weighted] weight printed exactly with
   [%h], and the MD5 of the restructured source under two lookups — the
   enhanced solution, where one exists, and each array at the last value
   of its domain, which forces interchanges.  Any change to domain
   order, pair enumeration, weights or loop-order choice moves a
   field. *)
let golden_networks =
  "Med-Im04 net=c4d3223ba7ad6478 relax=39c0bb5382d908f8 dom=afd038f1e47ef0362526de36fda35cd2 w=b8f5efcd80327bf9d82bc75e886d530a enh=5a7c2fda4c748e094d2159e801b3b755 last=7cf736b172c931b631ebd0c93f26b2d0\n\
   MxM net=43afe228e352d668 relax=43afe228e352d668 dom=bf7de6b7c5d0037d24d52ed8e987fa0e w=0c48a1e8c253ce7eb7106b30609c4da7 enh=bcc7974d580824dedf7d9ca53a97883e last=02b38a7855c3a53b9262124a410381c5\n\
   Radar net=9e170a0b0756d7c1 relax=b75e0833bac7dec1 dom=42109c5a1e75cb3c620ad01a699c9333 w=c471da2678838c0aec93b0ec88d63979 enh=3a355e2f58709bde7d9085c8a0613de7 last=2ecbdef04ace4eb7dee44bdad8ef465a\n\
   Shape net=71f47795b9133ca9 relax=06fdf4ad36991929 dom=86127135f120f652edb4fbbbf105be68 w=1b4ef7035989cc6d505104eea8c3cc4c enh=7f0a091666ba2221245e1c032691d221 last=da8b1c57e0ea50b74e507b520a0603de\n\
   Track net=1e23303685b01e4d relax=0b43b3aad519c9cd dom=47e4fca7693254ccf71bce7dd473217d w=cd3694e36a6d5cc3cda405b227a76283 enh=008235f4e7d9fceee069b279ae3bae04 last=1fd1c8892a849abe6767976a4b25757d\n\
   hard-20 net=a259cdc697bc9c1f relax=2c54b8ba9221661f dom=88bf6158b52dd7f272d648922860578f w=472d5edc9f3f9c3450c1f88a86a1ca34 enh=2890b23d4defb9e06dcd578b01a293ec last=f3217dca453a0fd15601ce0342cc3505\n\
   hard-80 net=79b2a0661295292b relax=5d686f16d74099ab dom=4d2c7eb528bdd19d5ca5af5850fa70e9 w=8a4cae5a56704e50ff357e75cc517d19 enh=052a6252fe423355638b330e283d1874 last=12da1fc41195b99bfa65027f5e01feb3\n\
   hard-150 net=6a9620953c9b12e4 relax=7cb52f186d4d9ae4 dom=1d04686604cbbd5142bd9a13b55d97d8 w=94aa0007cc811d44664ba830f87db16f enh=- last=a9d6c063d62316e3012fe1643846da34\n\
   scale-100 net=d336112c24cacf10 relax=42e59f672548b190 dom=8f727c71f6f603d7173ee530da8d5380 w=2ec06c625189b3defe76e6c7600355b8 enh=4fc04a69b6f2e0e70a1108a689b20360 last=edb6b64f493e8dc422787c44253b4104"

let network_row spec =
  let prog = spec.Spec.program and candidates = spec.Spec.candidates in
  let build = Build.build ~candidates prog in
  let net = build.Build.network in
  let relaxed = (Build.build ~relax:true ~candidates prog).Build.network in
  let md5 s = Digest.to_hex (Digest.string s) in
  let domains =
    List.init (Mlo_csp.Network.num_vars net) (fun i ->
        String.concat " "
          (Array.to_list
             (Array.map Mlo_layout.Layout.describe
                (Mlo_csp.Network.domain net i))))
    |> String.concat "\n"
  in
  let wbuild, w = Build.weighted ~candidates prog in
  let wnet = wbuild.Build.network in
  let weights = Buffer.create 4096 in
  List.iter
    (fun (i, j) ->
      for vi = 0 to Mlo_csp.Network.domain_size wnet i - 1 do
        for vj = 0 to Mlo_csp.Network.domain_size wnet j - 1 do
          if Mlo_csp.Network.allowed wnet i vi j vj then
            Printf.bprintf weights "%d %d %d %d %h\n" i vi j vj
              (Mlo_csp.Weighted.weight w i vi j vj)
        done
      done)
    (Mlo_csp.Network.constraint_pairs wnet);
  let restructured lookup =
    md5 (Mlo_lang.Parser.to_source (Mlo_netgen.Select.restructure prog lookup))
  in
  let enhanced =
    match Optimizer.optimize ~candidates (Optimizer.Enhanced 1) prog with
    | sol -> restructured (Optimizer.lookup sol)
    | exception Optimizer.No_solution _ -> "-"
  in
  let last name =
    let i = Build.var_of_array build name in
    let dom = Mlo_csp.Network.domain net i in
    Some dom.(Array.length dom - 1)
  in
  Printf.sprintf "%s net=%s relax=%s dom=%s w=%s enh=%s last=%s"
    spec.Spec.name (Proof.digest net) (Proof.digest relaxed) (md5 domains)
    (md5 (Buffer.contents weights))
    enhanced (restructured last)

let test_networks () =
  let actual =
    List.map
      (fun name -> network_row (Suite.by_name name))
      (workloads @ [ "hard-20"; "hard-80"; "hard-150"; "scale-100" ])
    |> String.concat "\n"
  in
  Alcotest.(check string) "networks and restructured programs"
    golden_networks actual

let () =
  Alcotest.run "golden"
    [
      ( "pins",
        [
          Alcotest.test_case "table2 work" `Slow test_table2;
          Alcotest.test_case "solver nodes" `Slow test_solver_nodes;
          Alcotest.test_case "hard enhanced counters" `Slow test_hard_enhanced;
          Alcotest.test_case "table3 cycles" `Slow test_table3;
          Alcotest.test_case "cdl/bnb effort counters" `Slow
            test_effort_counters;
          Alcotest.test_case "cost tables" `Slow test_cost_tables;
          Alcotest.test_case "prune totals" `Slow test_prune_totals;
          Alcotest.test_case "certificates" `Slow test_certificates;
          Alcotest.test_case "networks and restructure" `Slow test_networks;
        ] );
    ]
