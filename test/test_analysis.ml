(* Tests for the static analyzer: the program lint, the network
   structural checks, and the component-wise solver they justify.

   The load-bearing properties: the lint is quiet (no errors, no
   warnings) on every shipped program and reports exactly the defects a
   seeded-defect program contains; solve_components is
   decision-equivalent to the whole-network solve for every scheme; the
   structural goldens of the five benchmarks (components, width,
   induced width) stay pinned. *)

module Affine = Mlo_ir.Affine
module Access = Mlo_ir.Access
module Loop_nest = Mlo_ir.Loop_nest
module Array_info = Mlo_ir.Array_info
module Program = Mlo_ir.Program
module Network = Mlo_csp.Network
module Solver = Mlo_csp.Solver
module Schemes = Mlo_csp.Schemes
module Rng = Mlo_csp.Rng
module Stats = Mlo_csp.Stats
module Build = Mlo_netgen.Build
module Spec = Mlo_workloads.Spec
module Suite = Mlo_workloads.Suite
module Parser = Mlo_lang.Parser
module Diagnostic = Mlo_analysis.Diagnostic
module Lint = Mlo_analysis.Lint
module Netcheck = Mlo_analysis.Netcheck
module Fixtures = Mlo_oracle.Fixtures

let errors r =
  List.filter Diagnostic.is_error r.Lint.diagnostics

let warnings r =
  List.filter
    (fun d -> d.Diagnostic.severity = Diagnostic.Warning)
    r.Lint.diagnostics

(* ------------------------------------------------------------------ *)
(* Lint: no false positives on shipped programs                        *)
(* ------------------------------------------------------------------ *)

let test_lint_quiet_on_suite () =
  List.iter
    (fun spec ->
      let r = Lint.run spec.Spec.program in
      Alcotest.(check bool)
        (spec.Spec.name ^ " clean") true (Lint.clean r);
      Alcotest.(check int)
        (spec.Spec.name ^ " no warnings") 0 (List.length (warnings r)))
    (Suite.all ())

(* dune runtest runs from test/, dune exec from the workspace root *)
let example file =
  let candidates = [ "../examples/programs/" ^ file; "examples/programs/" ^ file ] in
  match List.find_opt Sys.file_exists candidates with
  | Some path -> path
  | None -> Alcotest.failf "example %s not found" file

let test_lint_quiet_on_examples () =
  List.iter
    (fun file ->
      let prog = Parser.parse_file (example file) in
      let r = Lint.run prog in
      Alcotest.(check int) (file ^ " no errors") 0 (List.length (errors r));
      Alcotest.(check int) (file ^ " no warnings") 0 (List.length (warnings r)))
    [ "fig2.mlo"; "matmul.mlo"; "nonuniform.mlo" ]

(* ------------------------------------------------------------------ *)
(* Lint: seeded defects are found, and only them                       *)
(* ------------------------------------------------------------------ *)

(* A copy of the mxm workload with two injected defects: a nest reading
   past the end of the first array's first dimension, and a declared
   array no nest references. *)
let seeded_mxm () =
  let prog = (Suite.by_name "mxm").Spec.program in
  let a0 = (Program.arrays prog).(0) in
  let e0 = Array_info.extent a0 0 in
  let oob_nest =
    Loop_nest.make ~name:"seeded_oob"
      [
        { Loop_nest.var = "i"; lo = 0; hi = 4 };
        { Loop_nest.var = "j"; lo = 0; hi = 4 };
      ]
      [
        Access.read (Array_info.name a0)
          [ Affine.make [ 1; 0 ] e0; Affine.make [ 0; 1 ] 0 ];
      ]
  in
  Program.make ~name:"mxm-seeded"
    (Array.to_list (Program.arrays prog) @ [ Array_info.make "DEADX" [ 8; 8 ] ])
    (Array.to_list (Program.nests prog) @ [ oob_nest ])

let test_lint_finds_seeded_defects () =
  let r = Lint.run (seeded_mxm ()) in
  (match errors r with
  | [ d ] ->
    Alcotest.(check string) "error code" "out-of-bounds" d.Diagnostic.code;
    Alcotest.(check bool) "error names the seeded nest" true
      (String.length d.Diagnostic.subject >= 10
      && String.sub d.Diagnostic.subject 0 10 = "seeded_oob")
  | l ->
    Alcotest.failf "expected exactly 1 error, got %d" (List.length l));
  match warnings r with
  | [ d ] ->
    Alcotest.(check string) "warning code" "dead-array" d.Diagnostic.code;
    Alcotest.(check string) "warning subject" "DEADX" d.Diagnostic.subject
  | l -> Alcotest.failf "expected exactly 1 warning, got %d" (List.length l)

let test_lint_bounds_interval_exact () =
  (* A[i-1] over i in [0,4): spans [-1, 2] — out of bounds below;
     A[i+j] over 4x4 iterations spans [0, 6] — fits extent 7 exactly *)
  let bad =
    Program.make ~name:"bad"
      [ Array_info.make "A" [ 4 ] ]
      [
        Loop_nest.make ~name:"n"
          [ { Loop_nest.var = "i"; lo = 0; hi = 4 } ]
          [ Access.read "A" [ Affine.make [ 1 ] (-1) ] ];
      ]
  in
  (match errors (Lint.run bad) with
  | [ d ] -> Alcotest.(check string) "code" "out-of-bounds" d.Diagnostic.code
  | l -> Alcotest.failf "expected 1 error, got %d" (List.length l));
  let tight =
    Program.make ~name:"tight"
      [ Array_info.make "A" [ 7 ] ]
      [
        Loop_nest.make ~name:"n"
          [
            { Loop_nest.var = "i"; lo = 0; hi = 4 };
            { Loop_nest.var = "j"; lo = 0; hi = 4 };
          ]
          [ Access.write "A" [ Affine.make [ 1; 1 ] 0 ] ];
      ]
  in
  Alcotest.(check int) "tight fit is clean" 0
    (List.length (errors (Lint.run tight)))

(* ------------------------------------------------------------------ *)
(* Netcheck: structure of small known networks                         *)
(* ------------------------------------------------------------------ *)

let all_pairs =
  [ (0, 0); (0, 1); (1, 0); (1, 1) ]

(* A - B - C chain over {0,1}: a tree, so width 1 along any
   reasonable order, and with AC preprocessing backtrack-free. *)
let chain_network () =
  let net =
    Network.create
      ~names:[| "A"; "B"; "C" |]
      ~domains:(Array.make 3 [| 0; 1 |])
  in
  Network.add_allowed net 0 1 [ (0, 0); (1, 1) ];
  Network.add_allowed net 1 2 [ (0, 1); (1, 0) ];
  net

let test_netcheck_chain () =
  let net = chain_network () in
  let r = Netcheck.analyze net in
  Alcotest.(check int) "one component" 1 (Array.length r.Netcheck.components);
  Alcotest.(check int) "width 1" 1 r.Netcheck.width;
  Alcotest.(check int) "induced width 1" 1 r.Netcheck.induced_width;
  Alcotest.(check bool) "backtrack-free" true r.Netcheck.backtrack_free;
  Alcotest.(check (option int)) "no wipe" None r.Netcheck.wiped;
  Alcotest.(check bool) "no unsat core" true (r.Netcheck.unsat_core = None);
  (* a triangle has width 2 whatever the order *)
  let tri =
    Network.create
      ~names:[| "A"; "B"; "C" |]
      ~domains:(Array.make 3 [| 0; 1 |])
  in
  Network.add_allowed tri 0 1 all_pairs;
  Network.add_allowed tri 1 2 all_pairs;
  Network.add_allowed tri 0 2 all_pairs;
  Alcotest.(check int) "triangle width 2" 2
    (Netcheck.width_along tri (Schemes.most_constraining_order tri));
  Alcotest.(check int) "triangle induced width 2" 2
    (Netcheck.induced_width_along tri [| 0; 1; 2 |])

(* A=B forced to 0 by one constraint, forced to 1 by another: AC wipes
   a domain, and exactly those two constraints form the minimal core —
   the two tautological constraints must be dropped from it. *)
let wiped_network () =
  let net =
    Network.create
      ~names:[| "A"; "B"; "C"; "D" |]
      ~domains:(Array.make 4 [| 0; 1 |])
  in
  Network.add_allowed net 0 1 [ (0, 0) ];
  Network.add_allowed net 1 2 [ (1, 0); (1, 1) ];
  Network.add_allowed net 0 2 all_pairs;
  Network.add_allowed net 2 3 all_pairs;
  net

let test_netcheck_unsat_core () =
  let net = wiped_network () in
  (match Netcheck.unsat_core net with
  | None -> Alcotest.fail "expected a wipe-out"
  | Some (core, wiped) ->
    Alcotest.(check (list (pair int int)))
      "deletion-minimal core"
      [ (0, 1); (1, 2) ]
      (List.sort compare core);
    Alcotest.(check bool) "wiped var is in the core" true
      (List.exists (fun (i, j) -> i = wiped || j = wiped) core));
  let r = Netcheck.analyze net in
  Alcotest.(check bool) "wiped reported" true (r.Netcheck.wiped <> None);
  Alcotest.(check bool) "not backtrack-free" false r.Netcheck.backtrack_free;
  Alcotest.(check int) "unsat network has error diagnostics" 1
    (Diagnostic.exit_code (Netcheck.diagnostics ~name:(Network.name net) r))

let test_netcheck_redundant_and_arc_inconsistent () =
  let net = wiped_network () in
  let r = Netcheck.analyze net in
  Alcotest.(check (list (pair int int)))
    "tautological constraints detected"
    [ (0, 2); (2, 3) ]
    (List.sort compare r.Netcheck.redundant);
  let chain = chain_network () in
  let rc = Netcheck.analyze chain in
  Alcotest.(check (list (pair int int))) "chain: nothing redundant" []
    rc.Netcheck.redundant;
  Alcotest.(check (list (pair int int))) "chain: fully arc-consistent" []
    rc.Netcheck.arc_inconsistent

(* ------------------------------------------------------------------ *)
(* Components: structure and the component-wise solver                 *)
(* ------------------------------------------------------------------ *)

(* Two independent blocks (A=B, C<>D) plus a free variable E. *)
let two_block_network () =
  let net =
    Network.create
      ~names:[| "A"; "B"; "C"; "D"; "E" |]
      ~domains:(Array.make 5 [| 0; 1 |])
  in
  Network.add_allowed net 0 1 [ (0, 0); (1, 1) ];
  Network.add_allowed net 2 3 [ (0, 1); (1, 0) ];
  net

let test_components_structure () =
  let net = two_block_network () in
  Alcotest.(check (list (list int)))
    "blocks and the free singleton"
    [ [ 0; 1 ]; [ 2; 3 ]; [ 4 ] ]
    (Array.to_list (Array.map Array.to_list (Network.components net)))

let test_solve_components_two_blocks () =
  let net = two_block_network () in
  let r = Solver.solve_components net in
  (match r.Solver.outcome with
  | Solver.Solution a ->
    Alcotest.(check bool) "solution verifies" true (Network.verify net a)
  | _ -> Alcotest.fail "expected a solution");
  (* wiping one component must make the whole network unsatisfiable *)
  let bad = two_block_network () in
  Network.add_allowed bad 2 4 [];
  match (Solver.solve_components bad).Solver.outcome with
  | Solver.Unsatisfiable -> ()
  | _ -> Alcotest.fail "expected unsatisfiable"

let test_build_components () =
  (* two nests touching disjoint array pairs: the extracted network
     splits into one component per nest *)
  let nest name a b =
    Loop_nest.make ~name
      [
        { Loop_nest.var = "i"; lo = 0; hi = 4 };
        { Loop_nest.var = "j"; lo = 0; hi = 4 };
      ]
      [
        Access.write a [ Affine.make [ 1; 0 ] 0; Affine.make [ 0; 1 ] 0 ];
        Access.read b [ Affine.make [ 0; 1 ] 0; Affine.make [ 1; 0 ] 0 ];
      ]
  in
  let prog =
    Program.make ~name:"blocks"
      (List.map (fun n -> Array_info.make n [ 4; 4 ]) [ "A"; "B"; "C"; "D" ])
      [ nest "n1" "A" "B"; nest "n2" "C" "D" ]
  in
  let build = Build.build prog in
  Alcotest.(check (list (list string)))
    "per-nest components"
    [ [ "A"; "B" ]; [ "C"; "D" ] ]
    (Array.to_list (Array.map Array.to_list (Build.components build)))

(* A sparser variant that regularly splits into several components. *)
let sparse_network seed =
  let rng = Rng.create (seed * 7919) in
  let n = 4 + Rng.int rng 5 in
  let names = Array.init n (fun i -> Printf.sprintf "v%d" i) in
  let domains =
    Array.init n (fun _ -> Array.init (1 + Rng.int rng 3) Fun.id)
  in
  let net = Network.create ~names ~domains in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if Rng.int rng 100 < 20 then begin
        let pairs = ref [] in
        for vi = 0 to Array.length domains.(i) - 1 do
          for vj = 0 to Array.length domains.(j) - 1 do
            if Rng.int rng 100 < 60 then pairs := (vi, vj) :: !pairs
          done
        done;
        Network.add_allowed net i j !pairs
      end
    done
  done;
  net

let prop_components_partition =
  QCheck.Test.make ~name:"components partition the variables" ~count:200
    QCheck.small_nat (fun seed ->
      let net = sparse_network seed in
      let comps = Network.components net in
      let seen = Array.make (Network.num_vars net) 0 in
      Array.iter (Array.iter (fun v -> seen.(v) <- seen.(v) + 1)) comps;
      Array.for_all (fun c -> c = 1) seen
      && Array.for_all
           (fun members ->
             Array.for_all
               (fun v ->
                 Array.for_all
                   (fun w -> Array.exists (fun m -> m = w) members)
                   (Network.neighbors net v))
               members)
           comps)

let components_configs ~seed =
  [
    ("base", Schemes.base ~seed ());
    ("enhanced", Schemes.enhanced ~seed ());
    ("enhanced-ac", Schemes.enhanced_with_ac ~seed ());
    ("default", Solver.default_config);
    ( "fc+cbj",
      {
        Solver.default_config with
        lookahead = Solver.Forward_checking;
        backward = Solver.Conflict_directed;
      } );
  ]

let prop_solve_components_equivalent gen_name gen =
  QCheck.Test.make
    ~name:
      (Printf.sprintf "solve_components decision-equivalent to solve (%s)"
         gen_name)
    ~count:120 QCheck.small_nat (fun seed ->
      let net = gen seed in
      List.for_all
        (fun (label, config) ->
          let whole = Solver.solve ~config net in
          let split = Solver.solve_components ~config net in
          match (whole.Solver.outcome, split.Solver.outcome) with
          | Solver.Solution _, Solver.Solution a ->
            Network.verify net a
            || QCheck.Test.fail_reportf
                 "%s: component solution does not verify" label
          | Solver.Unsatisfiable, Solver.Unsatisfiable -> true
          | Solver.Aborted, Solver.Aborted -> true
          | w, s ->
            let l = function
              | Solver.Solution _ -> "solution"
              | Solver.Unsatisfiable -> "unsatisfiable"
              | Solver.Aborted -> "aborted"
            in
            QCheck.Test.fail_reportf "%s: whole=%s components=%s" label (l w)
              (l s))
        (components_configs ~seed:(seed + 1)))

let prop_single_component_identical =
  QCheck.Test.make
    ~name:"single-component networks take the identical solve path" ~count:150
    QCheck.small_nat (fun seed ->
      let net = Fixtures.random_network seed in
      QCheck.assume (Array.length (Network.components net) = 1);
      let config = Schemes.enhanced ~seed:(seed + 1) () in
      let a = Solver.solve ~config net in
      let b = Solver.solve_components ~config net in
      a.Solver.outcome = b.Solver.outcome
      && a.Solver.stats.Stats.nodes = b.Solver.stats.Stats.nodes
      && a.Solver.stats.Stats.checks = b.Solver.stats.Stats.checks
      && a.Solver.stats.Stats.backtracks = b.Solver.stats.Stats.backtracks)

(* The per-component event contract certificate assembly
   (Mlo_verify.Proof.certificate) relies on, for both engines, with and
   without a check budget: events arrive grouped by component, in
   ascending component order from 0 with none skipped; every event of a
   group carries the driver's component as [vars] (the identity for a
   one-component network); each group ends in exactly one [Finished];
   every group but the last finished with a solution, so nothing
   arrives after the first component without one; and the last verdict
   is the run's. *)
let event_contract net (r : Solver.result) events =
  let comps = Network.components net in
  let ncomps = max 1 (Array.length comps) in
  let expected_vars k =
    if Array.length comps <= 1 then Array.init (Network.num_vars net) Fun.id
    else comps.(k)
  in
  let fail fmt = QCheck.Test.fail_reportf fmt in
  (* [open_] is the component whose group is still open; [finished]
     the verdicts of the closed groups, latest first. *)
  let open_, finished =
    List.fold_left
      (fun (open_, finished) (comp, vars, ev) ->
        (match open_ with
        | Some k when comp <> k ->
          fail "component %d interleaved into %d" comp k
        | Some _ -> ()
        | None ->
          if comp <> List.length finished then
            fail "group %d opened after %d groups" comp (List.length finished);
          (match finished with
          | (Solver.Unsatisfiable | Solver.Aborted) :: _ ->
            fail "component %d ran after a component without a solution" comp
          | _ -> ()));
        if vars <> expected_vars comp then
          fail "component %d: vars differ from the driver's component" comp;
        match ev with
        | Solver.Finished o -> (None, o :: finished)
        | Solver.Learned _ | Solver.Incumbent _ -> (Some comp, finished))
      (None, []) events
  in
  if open_ <> None then fail "the last group has no Finished";
  let kind = function
    | Solver.Solution _ -> "solution"
    | Solver.Unsatisfiable -> "unsatisfiable"
    | Solver.Aborted -> "aborted"
  in
  match (r.Solver.outcome, finished) with
  | Solver.Solution _, _ ->
    List.length finished = ncomps
    && List.for_all (function Solver.Solution _ -> true | _ -> false) finished
    || fail "solved, but %d of %d groups, not all solutions"
         (List.length finished) ncomps
  | o, last :: _ ->
    kind o = kind last
    || fail "run ended %s, last group %s" (kind o) (kind last)
  | o, [] -> fail "run ended %s with no group" (kind o)

let prop_component_event_contract =
  QCheck.Test.make
    ~name:"component event streams: ascending, one Finished each" ~count:150
    QCheck.small_nat (fun seed ->
      let cost name v = float_of_int ((Hashtbl.hash name + (3 * v)) mod 5) in
      List.for_all
        (fun net ->
          List.for_all
            (fun max_checks ->
              let engines =
                [
                  (fun on_event ->
                    Mlo_csp.Cdl.solve_components ~on_event
                      ~config:{ Mlo_csp.Cdl.default_config with max_checks }
                      net);
                  (fun on_event ->
                    Mlo_csp.Bnb.branch_and_bound ~on_event
                      ~config:{ Mlo_csp.Bnb.default_config with max_checks }
                      ~cost net);
                ]
              in
              List.for_all
                (fun solve ->
                  let events = ref [] in
                  let r =
                    solve (fun ~comp ~vars ev ->
                        events := (comp, vars, ev) :: !events)
                  in
                  event_contract net r (List.rev !events))
                engines)
            [ None; Some (1 + (seed mod 7)); Some (5 + (seed mod 23)) ])
        [ sparse_network seed; Fixtures.random_network seed ])

(* ------------------------------------------------------------------ *)
(* Benchmark goldens: components, width, induced width                 *)
(* ------------------------------------------------------------------ *)

(* Structural fingerprints of the five extracted networks.  These are
   deterministic (the most-constraining order breaks ties by index and
   the AC fixpoint is unique), so any drift means network extraction or
   the analyzer changed. *)
let network_goldens =
  [
    (* name, vars, constraints, components, width, induced width,
       arc-inconsistent values, redundant constraints *)
    ("med-im04", 52, 176, 1, 8, 23, 203, 15);
    ("mxm", 5, 6, 1, 2, 2, 24, 0);
    ("radar", 57, 504, 1, 16, 36, 365, 19);
    ("shape", 80, 735, 1, 19, 53, 576, 1);
    ("track", 47, 507, 1, 22, 35, 341, 7);
  ]

let test_network_goldens () =
  List.iter
    (fun (name, vars, constraints, comps, width, iwidth, arc_incons, redundant) ->
      let build = Spec.extract (Suite.by_name name) in
      let r = Netcheck.analyze build.Build.network in
      let check label = Alcotest.(check int) (name ^ " " ^ label) in
      check "vars" vars r.Netcheck.vars;
      check "constraints" constraints r.Netcheck.constraints;
      check "components" comps (Array.length r.Netcheck.components);
      check "width" width r.Netcheck.width;
      check "induced width" iwidth r.Netcheck.induced_width;
      check "arc-inconsistent" arc_incons
        (List.length r.Netcheck.arc_inconsistent);
      check "redundant" redundant (List.length r.Netcheck.redundant);
      Alcotest.(check bool)
        (name ^ " no wipe") true
        (r.Netcheck.wiped = None))
    network_goldens

(* The AC deletions a component-wise enhanced-ac solve reports are the
   ones its certificate states.  Each component's arc-consistent core is
   the whole network's restricted to it, so a solved network lists
   exactly the whole network's AC-2001 deletions; a run that stopped at
   a component lists those of the components it reached, a subset,
   still ascending. *)
let prop_component_arc_deletions =
  QCheck.Test.make ~name:"solve_components lists the AC-2001 deletions"
    ~count:200 QCheck.small_nat (fun seed ->
      let net = sparse_network seed in
      QCheck.assume (Array.length (Network.components net) > 1);
      let r =
        Solver.solve_components
          ~config:(Schemes.enhanced_with_ac ~seed:(seed + 1) ())
          net
      in
      let listed = r.Solver.arc_deleted in
      match
        (r.Solver.outcome, Mlo_csp.Ac2001.deletions (Network.compile net))
      with
      | Solver.Solution _, Ok dels ->
        listed = dels
        || QCheck.Test.fail_reportf "solved: %d listed, %d AC deletions"
             (List.length listed) (List.length dels)
      | Solver.Solution _, Error _ ->
        QCheck.Test.fail_report "solved a network AC wipes"
      | (Solver.Unsatisfiable | Solver.Aborted), Ok dels ->
        (List.for_all (fun p -> List.mem p dels) listed
        && listed = List.sort compare listed)
        || QCheck.Test.fail_report "unsolved: not an ascending subset"
      | (Solver.Unsatisfiable | Solver.Aborted), Error _ -> true)

let props =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_components_partition;
      prop_solve_components_equivalent "dense" Fixtures.random_network;
      prop_solve_components_equivalent "sparse" sparse_network;
      prop_single_component_identical;
      prop_component_event_contract;
      prop_component_arc_deletions;
    ]

(* ------------------------------------------------------------------ *)
(* Diagnostic ordering determinism                                      *)
(* ------------------------------------------------------------------ *)

(* Diagnostic.sort is a total order on (severity, subject, code,
   message), so any input permutation renders to the same bytes — the
   contract every diagnostic producer (Lint, Netcheck, Costcheck) and
   the CI output comparisons lean on. *)
let test_diagnostic_sort_deterministic () =
  let d sev code subject msg = Diagnostic.make sev ~code ~subject msg in
  let diags =
    [
      d Diagnostic.Warning "dead-array" "B" "never read";
      d Diagnostic.Error "out-of-bounds" "A" "row overrun";
      d Diagnostic.Error "out-of-bounds" "A" "column overrun";
      d Diagnostic.Warning "dead-array" "A" "never read";
      d Diagnostic.Info "note" "C" "third";
      d Diagnostic.Error "singular-access" "A" "rank deficient";
    ]
  in
  let render ds =
    String.concat "\n"
      (List.map (Format.asprintf "%a" Diagnostic.pp) (Diagnostic.sort ds))
  in
  let reference = render diags in
  (* every rotation and the reverse must render byte-identically *)
  let rec rotations k l =
    if k = 0 then []
    else
      match l with
      | x :: rest -> (rest @ [ x ]) :: rotations (k - 1) (rest @ [ x ])
      | [] -> []
  in
  List.iteri
    (fun i perm ->
      Alcotest.(check string)
        (Printf.sprintf "permutation %d renders identically" i)
        reference (render perm))
    (List.rev diags :: rotations (List.length diags) diags);
  (* and the order itself is most-severe first *)
  match Diagnostic.sort diags with
  | first :: _ ->
    Alcotest.(check bool) "errors first" true
      (first.Diagnostic.severity = Diagnostic.Error)
  | [] -> Alcotest.fail "sort dropped diagnostics"

(* ------------------------------------------------------------------ *)
(* Depreport: the deps subcommand's engine                              *)
(* ------------------------------------------------------------------ *)

module Depreport = Mlo_analysis.Depreport
module Json = Mlo_obs.Json

(* nonuniform.mlo is built so only an exact test gets both nests right:
   transpose is genuinely pinned by a (<, >) dependence, while disjoint
   is a GCD-solvable pair whose loop bounds keep the accessed row
   ranges apart. *)
let test_depreport_nonuniform () =
  let prog = Parser.parse_file (example "nonuniform.mlo") in
  let r = Depreport.run prog in
  let by_name n =
    match
      List.find_opt (fun nr -> nr.Depreport.nest = n) r.Depreport.nests
    with
    | Some nr -> nr
    | None -> Alcotest.failf "nest %s missing from report" n
  in
  let transpose = by_name "transpose" and disjoint = by_name "disjoint" in
  Alcotest.(check bool) "transpose pinned" true (Depreport.pinned transpose);
  Alcotest.(check int) "transpose legal orders" 1
    transpose.Depreport.legal_orders;
  Alcotest.(check bool) "disjoint not pinned" false
    (Depreport.pinned disjoint);
  Alcotest.(check int) "disjoint legal orders" 2
    disjoint.Depreport.legal_orders;
  List.iter
    (fun pr ->
      Alcotest.(check (list Alcotest.reject))
        (pr.Depreport.src_ref ^ " independent")
        [] pr.Depreport.deps)
    disjoint.Depreport.pairs;
  Alcotest.(check bool) "engine did work" true (r.Depreport.checks > 0);
  (* the self pairs are uniform and need no engine; the cross pairs of
     both nests have different access matrices *)
  List.iter
    (fun nr ->
      List.iter
        (fun pr ->
          let expect =
            if pr.Depreport.src = pr.Depreport.dst then
              Mlo_ir.Dependence.Closed_form
            else Mlo_ir.Dependence.Omega
          in
          Alcotest.(check string)
            (pr.Depreport.src_ref ^ " / " ^ pr.Depreport.dst_ref)
            (Mlo_ir.Dependence.method_label expect)
            (Mlo_ir.Dependence.method_label pr.Depreport.decided_by))
        nr.Depreport.pairs)
    [ transpose; disjoint ];
  Alcotest.(check int) "closed-form pairs" 2 r.Depreport.closed_form_pairs

(* The JSON document is what CI greps; pin the schema-relevant shape. *)
let test_depreport_json_shape () =
  let prog = Parser.parse_file (example "nonuniform.mlo") in
  let r = Depreport.run prog in
  match Depreport.to_json r with
  | Json.Obj fields ->
    let get k =
      match List.assoc_opt k fields with
      | Some v -> v
      | None -> Alcotest.failf "field %s missing" k
    in
    (match get "program" with
     | Json.Str _ -> ()
     | _ -> Alcotest.fail "program is not a string");
    (match get "nests" with
     | Json.Arr nests ->
       Alcotest.(check int) "two nests" 2 (List.length nests);
       List.iter
         (function
           | Json.Obj nf ->
             List.iter
               (fun k ->
                 if not (List.mem_assoc k nf) then
                   Alcotest.failf "nest field %s missing" k)
               [ "nest"; "depth"; "pairs"; "legal_orders"; "total_orders";
                 "pinned" ]
           | _ -> Alcotest.fail "nest is not an object")
         nests
     | _ -> Alcotest.fail "nests is not an array");
    (match get "closed_form_pairs" with
     | Json.Num n -> Alcotest.(check (float 0.)) "closed_form_pairs" 2. n
     | _ -> Alcotest.fail "closed_form_pairs is not a number");
    (match get "nests" with
     | Json.Arr (Json.Obj nf :: _) -> (
       match List.assoc_opt "pairs" nf with
       | Some (Json.Arr (Json.Obj pf :: _)) -> (
         match List.assoc_opt "method" pf with
         | Some (Json.Str ("closed-form" | "omega")) -> ()
         | _ -> Alcotest.fail "pair method missing")
       | _ -> Alcotest.fail "first nest has no pairs")
     | _ -> Alcotest.fail "no nests");
    (match get "presburger" with
     | Json.Obj pf ->
       List.iter
         (fun k ->
           if not (List.mem_assoc k pf) then
             Alcotest.failf "presburger field %s missing" k)
         [ "checks"; "eliminations"; "splits"; "max_split_depth" ]
     | _ -> Alcotest.fail "presburger is not an object")
  | _ -> Alcotest.fail "report is not an object"

(* Random programs of one to three nests, each a write and a second
   reference to its own array, with small random affine subscripts so
   that some nests are pinned and some are free. *)
let random_program seed =
  let rng = Rng.create (seed + 57) in
  let nest k =
    let depth = 2 + Rng.int rng 2 and dims = 1 + Rng.int rng 2 in
    let loop l =
      { Loop_nest.var = Printf.sprintf "i%d" l; lo = 0; hi = 2 + Rng.int rng 3 }
    in
    let loops = List.init depth loop in
    let expr () =
      Affine.make
        (List.init depth (fun _ -> Rng.int rng 5 - 2))
        (Rng.int rng 5 - 2)
    in
    let name = Printf.sprintf "A%d" k in
    let access mk = mk name (List.init dims (fun _ -> expr ())) in
    let second = if Rng.int rng 4 = 0 then Access.write else Access.read in
    ( Array_info.make name (List.init dims (fun _ -> 64)),
      Loop_nest.make ~name:(Printf.sprintf "n%d" k) loops
        [ access Access.write; access second ] )
  in
  let parts = List.init (1 + Rng.int rng 3) nest in
  Program.make ~name:"random" (List.map fst parts) (List.map snd parts)

(* The deps report counts each nest's legal orders under the one
   legality rule, from the dependences it prints: the count
   [Dependence.legal_orders] gives, and a nest it calls pinned is one
   lint's pinning pass names. *)
let prop_depreport_orders =
  QCheck.Test.make ~name:"deps legal orders and pins agree with lint"
    ~count:200 QCheck.small_nat (fun seed ->
      let prog = random_program seed in
      let lint = Lint.run prog in
      let pinned_by_lint nest =
        List.exists
          (fun d ->
            d.Diagnostic.code = "pinned-order" && d.Diagnostic.subject = nest)
          lint.Lint.diagnostics
      in
      List.for_all2
        (fun nest nr ->
          let legal = List.length (Mlo_ir.Dependence.legal_orders nest) in
          (nr.Depreport.legal_orders = legal
          || QCheck.Test.fail_reportf "%s: %d legal orders reported, %d legal"
               nr.Depreport.nest nr.Depreport.legal_orders legal)
          && (Depreport.pinned nr = pinned_by_lint nr.Depreport.nest
             || QCheck.Test.fail_reportf "%s: pinned %b, lint %b"
                  nr.Depreport.nest (Depreport.pinned nr)
                  (pinned_by_lint nr.Depreport.nest)))
        (Array.to_list (Program.nests prog))
        (Depreport.run prog).Depreport.nests)

(* End-to-end: two runs of the full analysis pipeline on the same
   workload must produce byte-identical diagnostic renderings. *)
let test_pipeline_output_deterministic () =
  let render () =
    let spec = Suite.by_name "med-im04" in
    let lint = Lint.run spec.Spec.program in
    let build = Spec.extract spec in
    let name = Network.name build.Build.network in
    let report = Mlo_analysis.Netcheck.analyze build.Build.network in
    Format.asprintf "%a@.%a" Lint.pp lint (Netcheck.pp ~name) report
  in
  Alcotest.(check string) "two pipeline runs render identically" (render ())
    (render ())

let () =
  Alcotest.run "analysis"
    [
      ( "lint",
        [
          Alcotest.test_case "quiet on the suite" `Quick
            test_lint_quiet_on_suite;
          Alcotest.test_case "quiet on the examples" `Quick
            test_lint_quiet_on_examples;
          Alcotest.test_case "seeded defects found exactly" `Quick
            test_lint_finds_seeded_defects;
          Alcotest.test_case "bounds intervals are exact" `Quick
            test_lint_bounds_interval_exact;
        ] );
      ( "netcheck",
        [
          Alcotest.test_case "chain is backtrack-free" `Quick
            test_netcheck_chain;
          Alcotest.test_case "minimal unsat core" `Quick
            test_netcheck_unsat_core;
          Alcotest.test_case "redundant and arc-inconsistent" `Quick
            test_netcheck_redundant_and_arc_inconsistent;
        ] );
      ( "components",
        [
          Alcotest.test_case "structure" `Quick test_components_structure;
          Alcotest.test_case "two-block solve" `Quick
            test_solve_components_two_blocks;
          Alcotest.test_case "per-nest build components" `Quick
            test_build_components;
        ] );
      ("goldens", [ Alcotest.test_case "benchmark networks" `Quick
                      test_network_goldens ]);
      ( "depreport",
        [
          Alcotest.test_case "nonuniform verdicts" `Quick
            test_depreport_nonuniform;
          Alcotest.test_case "json shape" `Quick test_depreport_json_shape;
          QCheck_alcotest.to_alcotest prop_depreport_orders;
        ] );
      ( "diagnostics",
        [
          Alcotest.test_case "sort renders deterministically" `Quick
            test_diagnostic_sort_deterministic;
          Alcotest.test_case "pipeline output is byte-stable" `Quick
            test_pipeline_output_deterministic;
        ] );
      ("properties", props);
    ]
