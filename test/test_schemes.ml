(* Cross-scheme agreement.

   The paper's schemes differ only in search order and backward policy,
   so on the same network they must agree on the one thing that matters:
   whether a consistent layout assignment exists.  Every reported
   solution is re-verified by a deliberately dumb checker that walks the
   constraint relations directly — independent of the compiled view, the
   bitset machinery and the solver's own bookkeeping. *)

module Network = Mlo_csp.Network
module Solver = Mlo_csp.Solver
module Schemes = Mlo_csp.Schemes
module Brute = Mlo_oracle.Brute
module Rng = Mlo_csp.Rng
module Stats = Mlo_csp.Stats
module Trace = Mlo_obs.Trace
module Json = Mlo_obs.Json
module Fixtures = Mlo_oracle.Fixtures
module Selection_reference = Mlo_oracle.Selection_reference
module Compiled = Mlo_csp.Compiled
module Bitset = Mlo_csp.Bitset

(* The three paper schemes, each with its own seed so agreement cannot
   be an artifact of shared random decisions. *)
let schemes_under_test seed =
  [
    ("base", Schemes.base ~seed ());
    ("enhanced", Schemes.enhanced ~seed:(seed + 101) ());
    ("enhanced-ac", Schemes.enhanced_with_ac ~seed:(seed + 211) ());
  ]

let prop_schemes_agree =
  QCheck.Test.make
    ~name:"base / enhanced / enhanced-ac agree on satisfiability" ~count:300
    QCheck.small_nat (fun seed ->
      let net = Fixtures.random_network seed in
      let expected = Brute.is_satisfiable net in
      List.for_all
        (fun (label, config) ->
          match (Solver.solve ~config net).Solver.outcome with
          | Solver.Solution a ->
            if not expected then
              QCheck.Test.fail_reportf
                "%s found a solution on an unsatisfiable network" label;
            if not (Fixtures.dumb_verify net a) then
              QCheck.Test.fail_reportf
                "%s returned an inconsistent assignment" label;
            true
          | Solver.Unsatisfiable ->
            if expected then
              QCheck.Test.fail_reportf
                "%s reported unsatisfiable on a satisfiable network" label;
            true
          | Solver.Aborted ->
            QCheck.Test.fail_reportf "%s aborted without a check budget" label)
        (schemes_under_test seed))

(* Seed independence of the verdict: the randomized schemes may visit
   different nodes under different seeds but must never change their
   answer. *)
let prop_verdict_seed_independent =
  QCheck.Test.make ~name:"scheme verdicts do not depend on the seed"
    ~count:150 QCheck.small_nat (fun seed ->
      let net = Fixtures.random_network seed in
      let verdict config =
        match (Solver.solve ~config net).Solver.outcome with
        | Solver.Solution _ -> true
        | Solver.Unsatisfiable -> false
        | Solver.Aborted -> QCheck.Test.fail_report "aborted without budget"
      in
      let base1 = verdict (Schemes.base ~seed:1 ())
      and base2 = verdict (Schemes.base ~seed:(2 * seed + 7) ())
      and enh1 = verdict (Schemes.enhanced ~seed:3 ())
      and enh2 = verdict (Schemes.enhanced ~seed:(5 * seed + 13) ()) in
      base1 = base2 && enh1 = enh2 && base1 = enh1)

(* Networks whose relations allow every pair: every value extends every
   partial assignment, so a search never backtracks.  1-24 variables,
   domains of 1-4 values (the size tie-break has work to do), ~35% pair
   density (and so many degree ties). *)
let permissive_network seed =
  let rng = Rng.create ((31 * seed) + 5) in
  let n = 1 + Rng.int rng 24 in
  let names = Array.init n (fun i -> Printf.sprintf "v%d" i) in
  let domains =
    Array.init n (fun _ -> Array.init (1 + Rng.int rng 4) Fun.id)
  in
  let net = Network.create ~names ~domains in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if Rng.int rng 100 < 35 then
        Network.add_allowed net i j
          (List.concat_map
             (fun vi -> List.map (fun vj -> (vi, vj)) (Array.to_list domains.(j)))
             (Array.to_list domains.(i)))
    done
  done;
  net

(* The variables of a trace's [decision] instants, in trace order. *)
let decision_vars dump =
  let events =
    match Result.map Json.to_list (Json.parse dump) with
    | Ok (Some events) -> events
    | Ok None | Error _ -> QCheck.Test.fail_report "unreadable trace"
  in
  List.filter_map
    (fun ev ->
      match
        ( Json.member "name" ev,
          Option.bind (Json.member "args" ev) (Json.member "var") )
      with
      | Some (Json.Str "decision"), Some (Json.Num v) -> Some (int_of_float v)
      | _ -> None)
    events

(* Netcheck measures width along Schemes.most_constraining_order because
   it is the order the enhanced scheme visits variables when it never
   backtracks.  Where that holds, the replay must name the variables in
   the order the kernel's decisions do. *)
let prop_order_replays_decisions =
  QCheck.Test.make
    ~name:"most-constraining order = the enhanced search's decisions"
    ~count:200 QCheck.small_nat (fun seed ->
      let net = permissive_network seed in
      Trace.start ();
      let r, dump =
        Fun.protect ~finally:Trace.stop (fun () ->
            let r = Solver.solve ~config:(Schemes.enhanced ~seed ()) net in
            (r, Trace.dump ()))
      in
      (match r.Solver.outcome with
      | Solver.Solution _ -> ()
      | Solver.Unsatisfiable | Solver.Aborted ->
        QCheck.Test.fail_report "no solution on a permissive network");
      let st = r.Solver.stats in
      if st.Stats.backtracks + st.Stats.backjumps > 0 then
        QCheck.Test.fail_report "the search backtracked";
      let decided = Array.of_list (decision_vars dump) in
      let order = Schemes.most_constraining_order net in
      decided = order
      || QCheck.Test.fail_reportf "decisions [%s], replay [%s]"
           (String.concat " " (Array.to_list (Array.map string_of_int decided)))
           (String.concat " " (Array.to_list (Array.map string_of_int order))))

(* A random constraint graph for the selection rule, which reads only
   the graph and the domain sizes: 1-150 variables, so the queue's rank
   rows span up to three 63-bit words, degrees up to 8 and domains of
   1-6 values. *)
let selection_graph rng =
  let n = 1 + Rng.int rng 150 in
  let names = Array.init n (fun i -> Printf.sprintf "v%d" i) in
  let domains = Array.init n (fun _ -> Array.init (1 + Rng.int rng 6) Fun.id) in
  let net = Network.create ~names ~domains in
  let deg = Array.make n 0 in
  for _ = 1 to Rng.int rng ((4 * n) + 1) do
    let i = Rng.int rng n and j = Rng.int rng n in
    if i <> j && deg.(i) < 8 && deg.(j) < 8 && not (Network.constrained net i j)
    then begin
      Network.add_allowed net i j [ (0, 0) ];
      deg.(i) <- deg.(i) + 1;
      deg.(j) <- deg.(j) + 1
    end
  done;
  Network.compile net

(* The domain regimes the search runs the rule under: full domains
   ([||]), a fixed shrink (the read-only AC core), and sizes that shrink
   and restore between picks (forward checking, [live]). *)
type regime = Full | Fixed | Live

(* A random walk of picks, assignments and last-in-first-out
   unassignments, as the search makes them: every pick of the queue
   must be the reference scan's.  One assignment in four takes another
   unassigned variable than the pick, which the queue allows too. *)
let selection_walk rng comp regime =
  let n = Compiled.num_vars comp in
  let domains =
    match regime with
    | Full -> [||]
    | Fixed | Live ->
      Array.init n (fun v ->
          let d = Bitset.create_full (Compiled.domain_size comp v) in
          for w = 1 to Compiled.domain_size comp v - 1 do
            if Rng.int rng 2 = 0 then Bitset.remove d w
          done;
          d)
  in
  let queue = Solver.Selection.create ~live:(regime = Live) comp domains in
  let level_of = Array.make n (-1) in
  let un_deg = Array.init n (Compiled.degree comp) in
  let stack = Array.make n 0 in
  (* per level, the values its assignment pruned *)
  let trail = Array.make n [] in
  let depth = ref 0 in
  let check () =
    let expected =
      Selection_reference.most_constraining comp ~level_of ~un_deg domains
    in
    let got = Solver.Selection.pick queue in
    if got <> expected then
      QCheck.Test.fail_reportf "depth %d: queue picked %d, the scan %d" !depth
        got expected;
    got
  in
  for _ = 1 to 4 * n do
    if !depth < n && (!depth = 0 || Rng.int rng 3 > 0) then begin
      let v = check () in
      let v =
        if Rng.int rng 4 > 0 then v
        else begin
          let u = ref (Rng.int rng n) in
          while level_of.(!u) >= 0 do u := (!u + 1) mod n done;
          !u
        end
      in
      level_of.(v) <- !depth;
      stack.(!depth) <- v;
      Selection_reference.shift_degrees comp un_deg v 1;
      Solver.Selection.assign queue v;
      if regime = Live then
        Array.iter
          (fun j ->
            let w = Rng.int rng (Bitset.capacity domains.(j)) in
            if level_of.(j) < 0 && Bitset.mem domains.(j) w then begin
              Bitset.remove domains.(j) w;
              trail.(!depth) <- (j, w) :: trail.(!depth)
            end)
          (Compiled.neighbors comp v);
      incr depth
    end
    else begin
      decr depth;
      let v = stack.(!depth) in
      List.iter (fun (j, w) -> Bitset.add domains.(j) w) trail.(!depth);
      trail.(!depth) <- [];
      level_of.(v) <- -1;
      Selection_reference.shift_degrees comp un_deg v (-1);
      Solver.Selection.unassign queue v
    end
  done;
  ignore (check ());
  true

let prop_queue_pick =
  QCheck.Test.make ~name:"queue pick = reference scan" ~count:200
    QCheck.small_nat (fun seed ->
      let rng = Rng.create ((17 * seed) + 3) in
      let comp = selection_graph rng in
      List.for_all (selection_walk rng comp) [ Full; Fixed; Live ])

(* On the real workload networks (not just the random family) the three
   schemes must all find a consistent assignment. *)
let test_workload_schemes () =
  List.iter
    (fun name ->
      let spec = Mlo_workloads.Suite.by_name name in
      let build = Mlo_workloads.Spec.extract spec in
      let net = build.Mlo_netgen.Build.network in
      List.iter
        (fun (label, config) ->
          match (Solver.solve ~config net).Solver.outcome with
          | Solver.Solution a ->
            Alcotest.(check bool)
              (Printf.sprintf "%s/%s solution verifies" name label)
              true (Fixtures.dumb_verify net a)
          | Solver.Unsatisfiable | Solver.Aborted ->
            Alcotest.failf "%s/%s found no solution" name label)
        (schemes_under_test 42))
    [ "med-im04"; "mxm"; "radar"; "shape"; "track" ]

let () =
  Alcotest.run "schemes"
    [
      ( "agreement",
        [
          QCheck_alcotest.to_alcotest prop_schemes_agree;
          QCheck_alcotest.to_alcotest prop_verdict_seed_independent;
          QCheck_alcotest.to_alcotest prop_order_replays_decisions;
          Alcotest.test_case "workload networks" `Quick test_workload_schemes;
        ] );
      ("selection", [ QCheck_alcotest.to_alcotest prop_queue_pick ]);
    ]
