(* Certificate checking: machine-generated proofs verify, tampered
   proofs are rejected.

   The checker's contract has two sides.  Completeness: every proof the
   solver stack emits — cdl and bnb event streams over random networks,
   plus the real workloads through the Optimizer plumbing — must be
   accepted.  Soundness: a proof damaged in any way that changes what it
   claims (flipped verdict, corrupted cost, weakened bound, missing
   incumbent, truncated file, wrong network digest) must be rejected
   with an [Error], never a crash.  The tampering cases are chosen so
   rejection is guaranteed, not merely likely: each one either breaks a
   checkable invariant outright or asserts something the brute-forced
   solution set contradicts. *)

module Network = Mlo_csp.Network
module Solver = Mlo_csp.Solver
module Cdl = Mlo_csp.Cdl
module Bnb = Mlo_csp.Bnb
module Brute = Mlo_csp.Brute
module Rng = Mlo_csp.Rng
module Proof = Mlo_verify.Proof
module Checker = Mlo_verify.Checker
module Spec = Mlo_workloads.Spec
module Suite = Mlo_workloads.Suite
module Build = Mlo_netgen.Build
module Select = Mlo_netgen.Select
module Optimizer = Mlo_core.Optimizer
module Explain = Mlo_core.Explain
module Netcheck = Mlo_analysis.Netcheck
module Simulate = Mlo_cachesim.Simulate
module Hierarchy = Mlo_cachesim.Hierarchy

(* Same generator family as test_cdl/test_bnb: small random networks of
   2-6 variables, domains of 1-3 values, ~60% pair density, ~55% allowed
   pairs — roughly half the instances unsatisfiable. *)
let random_network seed =
  let rng = Rng.create seed in
  let n = 2 + Rng.int rng 5 in
  let names = Array.init n (fun i -> Printf.sprintf "v%d" i) in
  let domains =
    Array.init n (fun _ -> Array.init (1 + Rng.int rng 3) Fun.id)
  in
  let net = Network.create ~names ~domains in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if Rng.int rng 100 < 60 then begin
        let pairs = ref [] in
        for vi = 0 to Array.length domains.(i) - 1 do
          for vj = 0 to Array.length domains.(j) - 1 do
            if Rng.int rng 100 < 55 then pairs := (vi, vj) :: !pairs
          done
        done;
        Network.add_allowed net i j !pairs
      end
    done
  done;
  net

let random_costs seed net =
  let rng = Rng.create (seed + 9001) in
  Array.init (Network.num_vars net) (fun i ->
      Array.init (Network.domain_size net i) (fun _ ->
          float_of_int (Rng.int rng 10)))

(* ------------------------------------------------------------------ *)
(* Proof assembly over raw networks (mirrors the Optimizer's)           *)
(* ------------------------------------------------------------------ *)

let header_of ~scheme ?objective net =
  let n = Network.num_vars net in
  {
    Proof.workload = "random";
    scheme;
    objective;
    pruned = false;
    slack = 0.0;
    names = Array.init n (Network.name net);
    domain_sizes = Array.init n (Network.domain_size net);
    digest = Proof.digest net;
  }

let make_recorder ?costs () =
  let comp_data = Hashtbl.create 4 in
  let on_event ~comp ~vars ev =
    let _, steps_r, outcome_r =
      match Hashtbl.find_opt comp_data comp with
      | Some s -> s
      | None ->
        let s = (vars, ref [], ref None) in
        Hashtbl.add comp_data comp s;
        s
    in
    match ev with
    | Solver.Learned { dead; lits } ->
      steps_r :=
        Proof.Ng
          {
            comp;
            dead = vars.(dead);
            lits = Array.map (fun (x, v) -> (vars.(x), v)) lits;
          }
        :: !steps_r
    | Solver.Incumbent { assignment } ->
      let costs = Option.get costs in
      let lits = Array.mapi (fun x v -> (vars.(x), v)) assignment in
      let cost =
        Array.fold_left (fun acc (x, v) -> acc +. costs.(x).(v)) 0.0 lits
      in
      steps_r := Proof.Inc { comp; lits; cost } :: !steps_r
    | Solver.Finished o -> outcome_r := Some o
  in
  (comp_data, on_event)

let steps_of ~unsat_only comp_data =
  Hashtbl.fold (fun k _ acc -> k :: acc) comp_data []
  |> List.sort compare
  |> List.concat_map (fun k ->
         let vars, steps_r, outcome_r = Hashtbl.find comp_data k in
         let keep =
           (not unsat_only)
           ||
           match !outcome_r with
           | Some Solver.Unsatisfiable -> true
           | _ -> false
         in
         if not keep then []
         else
           let steps = List.rev !steps_r in
           let steps =
             if unsat_only then
               List.filter (function Proof.Inc _ -> false | _ -> true) steps
             else steps
           in
           Proof.Comp { id = k; vars = Array.copy vars } :: steps)

let is_unsat = function Solver.Unsatisfiable -> true | _ -> false

let certify_cdl ?(config = { Cdl.default_config with Cdl.restarts = 4 }) net
    =
  let comp_data, on_event = make_recorder () in
  let r = Cdl.solve_components ~config ~on_event net in
  let verdict =
    match r.Solver.outcome with
    | Solver.Solution a -> Proof.Sat a
    | Solver.Unsatisfiable -> Proof.Unsat
    | Solver.Aborted -> Proof.Aborted
  in
  ( {
      Proof.header = header_of ~scheme:"cdl" net;
      steps = steps_of ~unsat_only:(is_unsat r.Solver.outcome) comp_data;
      verdict = Some verdict;
    },
    r.Solver.outcome )

let certify_bnb ?(config = Bnb.default_config) ~costs net =
  let comp_data, on_event = make_recorder ~costs () in
  let idx name = int_of_string (String.sub name 1 (String.length name - 1)) in
  let cost name v = costs.(idx name).(v) in
  let r = Bnb.branch_and_bound ~config ~on_event ~cost net in
  let verdict =
    match r.Solver.outcome with
    | Solver.Solution a ->
      let total = ref 0.0 in
      Array.iteri (fun i v -> total := !total +. costs.(i).(v)) a;
      Proof.Optimal { cost = !total; assignment = a }
    | Solver.Unsatisfiable -> Proof.Unsat
    | Solver.Aborted -> Proof.Aborted
  in
  ( {
      Proof.header = header_of ~scheme:"bnb" ~objective:"synthetic" net;
      steps = steps_of ~unsat_only:(is_unsat r.Solver.outcome) comp_data;
      verdict = Some verdict;
    },
    r.Solver.outcome )

let check_ok ?costs what net proof =
  match Checker.check ?costs net proof with
  | Ok () -> ()
  | Error msg -> QCheck.Test.fail_reportf "%s: rejected: %s" what msg

let check_rejected ?costs what net proof =
  match Checker.check ?costs net proof with
  | Error _ -> ()
  | Ok () -> QCheck.Test.fail_reportf "%s: accepted a damaged proof" what

(* ------------------------------------------------------------------ *)
(* Completeness: machine-generated certificates verify                  *)
(* ------------------------------------------------------------------ *)

let prop_cdl_certificates =
  QCheck.Test.make ~name:"cdl certificates verify (sat and unsat)"
    ~count:300 QCheck.small_nat (fun seed ->
      let net = random_network seed in
      let proof, _ = certify_cdl net in
      check_ok "cdl" net proof;
      (* and the NDJSON round trip preserves acceptance *)
      match Proof.of_lines (Proof.to_lines proof) with
      | Error msg -> QCheck.Test.fail_reportf "round trip failed: %s" msg
      | Ok proof' ->
        check_ok "cdl round-tripped" net proof';
        true)

(* The forgetful/restartful configurations emit the same nogood stream
   through on_learn but retain fewer: the log must still replay. *)
let prop_cdl_forgetful_certificates =
  QCheck.Test.make ~name:"forgetful/restartful cdl certificates verify"
    ~count:200 QCheck.small_nat (fun seed ->
      let net = random_network seed in
      let config =
        { Cdl.default_config with
          Cdl.restarts = 10;
          restart_base = 1;
          learn_limit = 2 }
      in
      let proof, _ = certify_cdl ~config net in
      check_ok "forgetful cdl" net proof;
      true)

let prop_bnb_certificates =
  QCheck.Test.make ~name:"bnb certificates verify (optimal and unsat)"
    ~count:200 QCheck.small_nat (fun seed ->
      let net = random_network seed in
      let costs = random_costs seed net in
      let proof, _ = certify_bnb ~costs net in
      check_ok ~costs "bnb" net proof;
      true)

(* ------------------------------------------------------------------ *)
(* Soundness: guaranteed-invalid mutations are rejected                 *)
(* ------------------------------------------------------------------ *)

let all_vars net = Array.init (Network.num_vars net) Fun.id

let prop_mutations_rejected =
  QCheck.Test.make ~name:"damaged certificates are rejected" ~count:200
    QCheck.small_nat (fun seed ->
      let net = random_network seed in
      let proof, outcome = certify_cdl net in
      (* digest tamper: the proof no longer speaks about this network *)
      check_rejected "digest" net
        {
          proof with
          Proof.header = { proof.Proof.header with Proof.digest = "0" };
        };
      (* truncation: verdict line lost *)
      check_rejected "no verdict" net { proof with Proof.verdict = None };
      (* an aborted verdict is never acceptable *)
      check_rejected "aborted" net
        { proof with Proof.verdict = Some Proof.Aborted };
      (match outcome with
      | Solver.Solution a ->
        (* flipped verdict: the network is satisfiable, so no replay can
           end in a global refutation *)
        check_rejected "sat flipped to unsat" net
          { proof with Proof.verdict = Some Proof.Unsat };
        (* tampered assignment: out-of-range value *)
        let bad = Array.copy a in
        bad.(0) <- Network.domain_size net 0;
        check_rejected "assignment out of range" net
          { proof with Proof.verdict = Some (Proof.Sat bad) };
        (* a nogood contradicted by a known solution: every literal of
           [a] holds in a satisfying assignment, so "these cannot all
           hold" is false and no refutation attempt can succeed *)
        let lits = Array.mapi (fun i v -> (i, v)) a in
        let bogus =
          [
            Proof.Comp { id = 99; vars = all_vars net };
            Proof.Ng { comp = 99; dead = 0; lits };
          ]
        in
        check_rejected "nogood excluding a solution" net
          { proof with Proof.steps = proof.Proof.steps @ bogus }
      | Solver.Unsatisfiable ->
        (* flipped verdict: claim satisfiable with a fabricated
           assignment — [Network.verify] must refuse it *)
        let a = Array.make (Network.num_vars net) 0 in
        if not (Network.verify net a) then
          check_rejected "unsat flipped to sat" net
            { proof with Proof.verdict = Some (Proof.Sat a) }
      | Solver.Aborted -> ());
      true)

let prop_bnb_mutations_rejected =
  QCheck.Test.make ~name:"damaged optimality certificates are rejected"
    ~count:200 QCheck.small_nat (fun seed ->
      let net = random_network seed in
      let costs = random_costs seed net in
      let proof, outcome = certify_bnb ~costs net in
      (match outcome with
      | Solver.Solution _ ->
        let claimed =
          match proof.Proof.verdict with
          | Some (Proof.Optimal { cost; _ }) -> cost
          | _ -> assert false
        in
        (* optimality without the cost table is unverifiable *)
        check_rejected "optimal without costs" net proof;
        (* claimed optimum lowered below the recomputed assignment cost
           (integer costs: 1.0 is far outside the tolerance) *)
        (match proof.Proof.verdict with
        | Some (Proof.Optimal { assignment; _ }) ->
          check_rejected ~costs "claimed optimum lowered" net
            {
              proof with
              Proof.verdict =
                Some (Proof.Optimal { cost = claimed -. 1.0; assignment });
            }
        | _ -> ());
        (* corrupt one incumbent's recorded cost *)
        let corrupted = ref false in
        let steps =
          List.map
            (function
              | Proof.Inc { comp; lits; cost } when not !corrupted ->
                corrupted := true;
                Proof.Inc { comp; lits; cost = cost +. 1.0 }
              | s -> s)
            proof.Proof.steps
        in
        if !corrupted then
          check_rejected ~costs "corrupted incumbent cost" net
            { proof with Proof.steps };
        (* drop the final (cheapest) incumbent: some component's bound
           weakens by at least 1 (integer costs), so either a later
           nogood loses its justification or the bound composition at
           the verdict breaks *)
        let rev = List.rev proof.Proof.steps in
        let rec drop_first_inc = function
          | [] -> []
          | Proof.Inc _ :: tl -> tl
          | s :: tl -> s :: drop_first_inc tl
        in
        let without_best = List.rev (drop_first_inc rev) in
        if List.length without_best < List.length proof.Proof.steps then
          check_rejected ~costs "missing best incumbent" net
            { proof with Proof.steps = without_best }
      | _ -> ());
      true)

(* ------------------------------------------------------------------ *)
(* Workload goldens through the Optimizer plumbing                      *)
(* ------------------------------------------------------------------ *)

let capture_proof ?max_checks ?(prune = false) ?objective scheme name =
  let spec = Suite.by_name name in
  let proof = ref None in
  let result =
    match
      Optimizer.optimize ~candidates:spec.Spec.candidates ?max_checks
        ~prune_dominated:prune ?objective
        ~proof:(fun p -> proof := Some p)
        scheme spec.Spec.program
    with
    | sol -> Ok sol
    | exception Optimizer.No_solution msg -> Error msg
  in
  match !proof with
  | None -> Alcotest.failf "%s: no proof emitted" name
  | Some p -> (spec, p, result)

let costs_for spec proof =
  match proof.Proof.verdict with
  | Some (Proof.Optimal _) ->
    let net = (Spec.extract spec).Build.network in
    let objective =
      match proof.Proof.header.Proof.objective with
      | Some "lines" -> Optimizer.Distinct_lines
      | _ -> Optimizer.Estimated_misses
    in
    let cost = Optimizer.layout_cost ~objective spec.Spec.program in
    Some
      (Array.init (Network.num_vars net) (fun i ->
           let name = Network.name net i in
           Array.init (Network.domain_size net i) (fun v ->
               cost ~array_name:name ~layout:(Network.value net i v))))
  | _ -> None

let alcotest_check ~what spec proof =
  let net = (Spec.extract spec).Build.network in
  match Checker.check ?costs:(costs_for spec proof) net proof with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "%s: rejected: %s" what msg

let test_benchmark_sat_goldens () =
  List.iter
    (fun name ->
      let spec, proof, result =
        capture_proof (Optimizer.Cdl Cdl.default_config) name
      in
      (match result with
      | Ok _ -> ()
      | Error msg -> Alcotest.failf "%s unexpectedly unsolved: %s" name msg);
      (match proof.Proof.verdict with
      | Some (Proof.Sat _) -> ()
      | _ -> Alcotest.failf "%s: expected a sat verdict" name);
      alcotest_check ~what:name spec proof)
    [ "med-im04"; "mxm"; "radar"; "shape"; "track" ]

let test_hard_unsat_goldens () =
  List.iter
    (fun name ->
      let spec, proof, result =
        capture_proof (Optimizer.Cdl Cdl.default_config) name
      in
      (match result with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%s unexpectedly satisfiable" name);
      (match proof.Proof.verdict with
      | Some Proof.Unsat -> ()
      | _ -> Alcotest.failf "%s: expected an unsat verdict" name);
      alcotest_check ~what:name spec proof)
    [ "hard-150"; "hard-200" ]

let simulated_cycles spec layouts =
  let lookup n = List.assoc_opt n layouts in
  let restructured = Select.restructure spec.Spec.sim_program lookup in
  (Simulate.run restructured ~layouts:lookup).Simulate.counters
    .Hierarchy.cycles

(* The Med-Im04 optimality certificate, end to end: the proof verifies,
   the claimed optimum is the solution's objective value, and the
   certified assignment is the one whose simulation hits the pinned
   1630436-cycle golden (enhanced's golden is 1639362). *)
let test_bnb_optimal_golden () =
  let spec, proof, result =
    capture_proof (Optimizer.Bnb Bnb.default_config) "med-im04"
  in
  let sol =
    match result with
    | Ok sol -> sol
    | Error msg -> Alcotest.failf "med-im04 unexpectedly unsolved: %s" msg
  in
  (match (proof.Proof.verdict, sol.Optimizer.objective_value) with
  | Some (Proof.Optimal { cost; _ }), Some objective ->
    Alcotest.(check bool)
      (Printf.sprintf "claimed optimum %g matches objective %g" cost
         objective)
      true
      (Float.abs (cost -. objective) <= 1e-6 *. Float.max 1.0 objective)
  | _ -> Alcotest.fail "expected an optimal verdict with an objective");
  alcotest_check ~what:"bnb med-im04" spec proof;
  let cycles = simulated_cycles spec sol.Optimizer.layouts in
  Alcotest.(check int) "Med-Im04 certified-optimum cycles" 1630436 cycles

(* Dominance pruning re-indexes domains; the certificate must translate
   everything back and justify each removal (MxM prunes 34 -> 8). *)
let test_pruned_golden () =
  let spec, proof, result =
    capture_proof ~prune:true (Optimizer.Cdl Cdl.default_config) "mxm"
  in
  (match result with
  | Ok sol ->
    (match sol.Optimizer.pruned_values with
    | Some info when Mlo_netgen.Prune.total info > 0 -> ()
    | _ -> Alcotest.fail "expected pruned values on mxm")
  | Error msg -> Alcotest.failf "mxm unexpectedly unsolved: %s" msg);
  let dels =
    List.length
      (List.filter
         (function Proof.Del _ -> true | _ -> false)
         proof.Proof.steps)
  in
  Alcotest.(check bool) "dominance deletions recorded" true (dels > 0);
  alcotest_check ~what:"pruned mxm" spec proof;
  (* and with one deletion's witness corrupted the proof must die *)
  let corrupted = ref false in
  let steps =
    List.map
      (function
        | Proof.Del { var; value; reason = Proof.Dominated _ }
          when not !corrupted ->
          corrupted := true;
          Proof.Del { var; value; reason = Proof.Dominated value }
        | s -> s)
      proof.Proof.steps
  in
  let net = (Spec.extract spec).Build.network in
  match
    Checker.check net { proof with Proof.steps }
  with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "self-dominating deletion accepted"

(* ------------------------------------------------------------------ *)
(* Cancellation and truncation (partial proofs)                         *)
(* ------------------------------------------------------------------ *)

(* A budget killed before any incumbent produces an [Aborted] verdict:
   well-formed, parseable, and cleanly rejected. *)
let test_budget_abort_rejected () =
  let spec, proof, result =
    capture_proof ~max_checks:1 (Optimizer.Bnb Bnb.default_config)
      "med-im04"
  in
  (match result with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected the 1-check budget to abort");
  (match proof.Proof.verdict with
  | Some Proof.Aborted -> ()
  | _ -> Alcotest.fail "expected an aborted verdict");
  let net = (Spec.extract spec).Build.network in
  (match Checker.check net proof with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "aborted certificate accepted");
  (* the same certificate survives the file round trip and is still a
     rejection, not a parse crash *)
  let file = Filename.temp_file "layoutopt_verify" ".jsonl" in
  Proof.write file proof;
  (match Proof.read file with
  | Error msg -> Alcotest.failf "aborted proof unreadable: %s" msg
  | Ok p -> (
    match Checker.check net p with
    | Error _ -> ()
    | Ok () -> Alcotest.fail "aborted certificate accepted after reread"));
  Sys.remove file

(* Truncating the file mid-write (losing the verdict line) must parse to
   a verdict-less proof that the checker rejects with a clear message. *)
let test_truncated_rejected () =
  let net = random_network 7 in
  let proof, _ = certify_cdl net in
  let lines = Proof.to_lines proof in
  let truncated = List.filteri (fun i _ -> i < List.length lines - 1) lines in
  match Proof.of_lines truncated with
  | Error msg -> Alcotest.failf "truncated proof unreadable: %s" msg
  | Ok p -> (
    (match p.Proof.verdict with
    | None -> ()
    | Some _ -> Alcotest.fail "truncation did not drop the verdict");
    match Checker.check net p with
    | Error _ -> ()
    | Ok () -> Alcotest.fail "verdict-less certificate accepted")

(* ------------------------------------------------------------------ *)
(* Unsat-core verification (Netcheck / Explain routing)                 *)
(* ------------------------------------------------------------------ *)

let test_core_verified () =
  let hits = ref 0 in
  for seed = 0 to 199 do
    let net = random_network seed in
    let report = Netcheck.analyze net in
    match (report.Netcheck.unsat_core, report.Netcheck.core_verified) with
    | Some _, Some true ->
      incr hits;
      (match Explain.explain_unsat net with
      | Some u ->
        Alcotest.(check bool)
          (Printf.sprintf "explain core verified (seed %d)" seed)
          true u.Explain.core_verified
      | None -> Alcotest.failf "seed %d: analyze wiped but explain did not"
                  seed)
    | Some _, Some false ->
      Alcotest.failf "seed %d: minimal unsat core failed verification" seed
    | Some _, None ->
      Alcotest.failf "seed %d: unsat core without verification result" seed
    | None, Some _ ->
      Alcotest.failf "seed %d: verification result without a core" seed
    | None, None -> ()
  done;
  Alcotest.(check bool)
    (Printf.sprintf "enough AC-refutable instances (%d)" !hits)
    true (!hits >= 5)

let () =
  Alcotest.run "verify"
    [
      ( "completeness",
        [
          QCheck_alcotest.to_alcotest prop_cdl_certificates;
          QCheck_alcotest.to_alcotest prop_cdl_forgetful_certificates;
          QCheck_alcotest.to_alcotest prop_bnb_certificates;
        ] );
      ( "soundness",
        [
          QCheck_alcotest.to_alcotest prop_mutations_rejected;
          QCheck_alcotest.to_alcotest prop_bnb_mutations_rejected;
        ] );
      ( "goldens",
        [
          Alcotest.test_case "five benchmarks (cdl, sat)" `Slow
            test_benchmark_sat_goldens;
          Alcotest.test_case "hard-150/hard-200 (cdl, unsat)" `Slow
            test_hard_unsat_goldens;
          Alcotest.test_case "med-im04 bnb optimum" `Slow
            test_bnb_optimal_golden;
          Alcotest.test_case "dominance-pruned mxm" `Slow test_pruned_golden;
        ] );
      ( "partial",
        [
          Alcotest.test_case "budget abort rejected" `Quick
            test_budget_abort_rejected;
          Alcotest.test_case "truncated proof rejected" `Quick
            test_truncated_rejected;
        ] );
      ( "unsat-core",
        [ Alcotest.test_case "cores verify independently" `Quick
            test_core_verified ]
      );
    ]
