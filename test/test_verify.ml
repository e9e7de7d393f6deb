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
module Brute = Mlo_oracle.Brute
module Ac3 = Mlo_oracle.Ac3
module Rng = Mlo_csp.Rng
module Proof = Mlo_verify.Proof
module Checker = Mlo_verify.Checker
module Spec = Mlo_workloads.Spec
module Suite = Mlo_workloads.Suite
module Build = Mlo_netgen.Build
module Optimizer = Mlo_core.Optimizer
module Netcheck = Mlo_analysis.Netcheck
module Fixtures = Mlo_oracle.Fixtures

let random_costs seed net =
  let rng = Rng.create (seed + 9001) in
  Array.init (Network.num_vars net) (fun i ->
      Array.init (Network.domain_size net i) (fun _ ->
          float_of_int (Rng.int rng 10)))

(* ------------------------------------------------------------------ *)
(* Certificates over raw networks, through the writer                   *)
(* ------------------------------------------------------------------ *)

let certify ~scheme ~objective ~costs net solve =
  let r = Proof.recorder () in
  let result = solve (Proof.record r) in
  let header =
    Proof.header ~workload:"random" ~scheme ~objective ~pruned:false
      ~slack:0.0 net
  in
  (Proof.certificate header ~dels:[] ~survivors:None ~costs r result, result)

let certify_cdl ?(config = { Cdl.default_config with Cdl.restarts = 4 }) net
    =
  certify ~scheme:"cdl" ~objective:None ~costs:None net (fun on_event ->
      Cdl.solve_components ~config ~on_event net)

let certify_bnb ?(config = Bnb.default_config) ~costs net =
  let idx name = int_of_string (String.sub name 1 (String.length name - 1)) in
  let cost name v = costs.(idx name).(v) in
  certify ~scheme:"bnb" ~objective:(Some "synthetic") ~costs:(Some costs) net
    (fun on_event -> Bnb.branch_and_bound ~config ~on_event ~cost net)

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
      let net = Fixtures.random_network seed in
      let proof, _ = certify_cdl net in
      check_ok "cdl" net proof;
      (* and the NDJSON round trip preserves acceptance *)
      match Proof.of_lines (Proof.to_lines proof) with
      | Error msg -> QCheck.Test.fail_reportf "round trip failed: %s" msg
      | Ok proof' ->
        check_ok "cdl round-tripped" net proof';
        true)

(* The forgetful/restartful configurations report every nogood they
   learn but retain fewer: the log must still replay. *)
let prop_cdl_forgetful_certificates =
  QCheck.Test.make ~name:"forgetful/restartful cdl certificates verify"
    ~count:200 QCheck.small_nat (fun seed ->
      let net = Fixtures.random_network seed in
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
      let net = Fixtures.random_network seed in
      let costs = random_costs seed net in
      let proof, _ = certify_bnb ~costs net in
      check_ok ~costs "bnb" net proof;
      true)

(* Under a small check budget a bnb run can be cut before or after it
   finds an incumbent.  The verdict follows the run — sat for an
   incumbent the cut left unproven, optimal or unsat for a finished
   search, aborted when no solution was found — and only the aborted
   certificate is rejected. *)
let prop_budgeted_bnb_certificates =
  QCheck.Test.make ~name:"budgeted bnb certificates verify unless aborted"
    ~count:200 QCheck.small_nat (fun seed ->
      let net = Fixtures.random_network seed in
      let costs = random_costs seed net in
      let config =
        { Bnb.default_config with Bnb.max_checks = Some (1 + (seed mod 12)) }
      in
      let proof, { Solver.outcome; stats } = certify_bnb ~config ~costs net in
      (match (outcome, proof.Proof.verdict) with
      | Solver.Aborted, Some Proof.Aborted ->
        check_rejected ~costs "aborted bnb" net proof
      | Solver.Solution _, Some (Proof.Sat _) when stats.Mlo_csp.Stats.cut ->
        check_ok ~costs "cut bnb" net proof
      | Solver.Solution _, Some (Proof.Optimal _) when not stats.Mlo_csp.Stats.cut ->
        check_ok ~costs "finished bnb" net proof
      | Solver.Unsatisfiable, Some Proof.Unsat -> check_ok ~costs "unsat bnb" net proof
      | _ -> QCheck.Test.fail_report "verdict does not match the run");
      true)

(* ------------------------------------------------------------------ *)
(* Soundness: guaranteed-invalid mutations are rejected                 *)
(* ------------------------------------------------------------------ *)

let all_vars net = Array.init (Network.num_vars net) Fun.id

let prop_mutations_rejected =
  QCheck.Test.make ~name:"damaged certificates are rejected" ~count:200
    QCheck.small_nat (fun seed ->
      let net = Fixtures.random_network seed in
      let proof, { Solver.outcome; _ } = certify_cdl net in
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
      let net = Fixtures.random_network seed in
      let costs = random_costs seed net in
      let proof, { Solver.outcome; _ } = certify_bnb ~costs net in
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
    let objective =
      Option.bind proof.Proof.header.Proof.objective Optimizer.objective_of_label
      |> Option.value ~default:Optimizer.Estimated_misses
    in
    Some
      (Optimizer.cost_table ~objective spec.Spec.program
         (Spec.extract spec).Build.network)
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
  let cycles = Fixtures.simulated_cycles spec sol.Optimizer.layouts in
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

(* A budget that cuts a branch-and-bound search holding an incumbent:
   the incumbent comes back as the solution but proves no optimum, so
   the certificate claims only what it shows — a [Sat] verdict over the
   assignment, no component steps — and the checker accepts it. *)
let test_budget_cut_sat () =
  let spec, proof, result =
    capture_proof ~max_checks:700 ~objective:Optimizer.Distinct_lines
      (Optimizer.Bnb Bnb.default_config) "hard-80"
  in
  (match result with
  | Ok { Optimizer.solver_stats = Some st; _ } when st.Mlo_csp.Stats.cut -> ()
  | Ok _ -> Alcotest.fail "expected the 700-check budget to cut the search"
  | Error msg -> Alcotest.failf "hard-80 unexpectedly unsolved: %s" msg);
  (match proof.Proof.verdict with
  | Some (Proof.Sat _) -> ()
  | _ -> Alcotest.fail "expected a sat verdict");
  Alcotest.(check int) "no component steps" 0 (List.length proof.Proof.steps);
  alcotest_check ~what:"budget-cut hard-80" spec proof

(* Truncating the file mid-write (losing the verdict line) must parse to
   a verdict-less proof that the checker rejects with a clear message. *)
let test_truncated_rejected () =
  let net = Fixtures.random_network 7 in
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
(* Unsat-core verification                                            *)
(* ------------------------------------------------------------------ *)

let test_core_verified () =
  let hits = ref 0 in
  for seed = 0 to 199 do
    let net = Fixtures.random_network seed in
    let report = Netcheck.analyze net in
    match (report.Netcheck.unsat_core, report.Netcheck.core_verified) with
    | Some _, Some true -> incr hits
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

(* The checker's fixpoint over a constraint subset S
   ([refutes ~only:S]) wipes exactly when the AC-3 oracle wipes on the
   network that keeps only S, and over every constraint exactly when
   AC-3 wipes on the whole network.  Random subsets mostly do not wipe,
   which no unsat core exercises. *)
let prop_refutes_matches_ac3 =
  QCheck.Test.make ~name:"refutes ~only:S = AC-3 on the network of S"
    ~count:300 QCheck.small_nat (fun seed ->
      let net = Fixtures.random_network seed in
      let n = Network.num_vars net in
      let rng = Rng.create (seed + 4242) in
      let only =
        List.filter
          (fun _ -> Rng.int rng 2 = 0)
          (Network.constraint_pairs net)
      in
      let sub =
        Network.create
          ~names:(Array.init n (Network.name net))
          ~domains:(Array.init n (Network.domain net))
      in
      List.iter
        (fun (i, j) ->
          let pairs = ref [] in
          for vi = 0 to Network.domain_size net i - 1 do
            for vj = 0 to Network.domain_size net j - 1 do
              if Network.allowed net i vi j vj then pairs := (vi, vj) :: !pairs
            done
          done;
          Network.add_allowed sub i j !pairs)
        only;
      let wipes net = Result.is_error (Ac3.run net) in
      let agree label got want =
        got = want
        || QCheck.Test.fail_reportf "%s: refutes %b, AC-3 wipes %b" label got
             want
      in
      agree "subset" (Checker.refutes ~only net) (wipes sub)
      && agree "whole network" (Checker.refutes net) (wipes net))

let () =
  Alcotest.run "verify"
    [
      ( "completeness",
        [
          QCheck_alcotest.to_alcotest prop_cdl_certificates;
          QCheck_alcotest.to_alcotest prop_cdl_forgetful_certificates;
          QCheck_alcotest.to_alcotest prop_bnb_certificates;
          QCheck_alcotest.to_alcotest prop_budgeted_bnb_certificates;
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
          Alcotest.test_case "budget cut verifies as sat" `Quick
            test_budget_cut_sat;
          Alcotest.test_case "truncated proof rejected" `Quick
            test_truncated_rejected;
        ] );
      ( "unsat-core",
        [ Alcotest.test_case "cores verify independently" `Quick
            test_core_verified;
          QCheck_alcotest.to_alcotest prop_refutes_matches_ac3 ]
      );
    ]
