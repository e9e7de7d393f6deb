(* Tests for the constraint-network core: network structure, the search
   engine in all its configurations, propagation, and the weighted
   extension.  Includes the paper's Section 3 worked example. *)

module Network = Mlo_csp.Network
module Solver = Mlo_csp.Solver
module Schemes = Mlo_csp.Schemes
module Brute = Mlo_oracle.Brute
module Ac3 = Mlo_oracle.Ac3
module Weighted = Mlo_csp.Weighted
module Bitset = Mlo_csp.Bitset
module Rng = Mlo_csp.Rng
module Local_search = Mlo_csp.Local_search
module Fixtures = Mlo_oracle.Fixtures

(* ------------------------------------------------------------------ *)
(* The paper's Section 3 network                                       *)
(* ------------------------------------------------------------------ *)

(* Domains are hyperplane vectors, encoded as strings for readability.
   Value indices:
     Q1: 0=(1 0) 1=(0 1) 2=(1 1)
     Q2: 0=(1 -1) 1=(1 1)
     Q3: 0=(0 1) 1=(1 1) 2=(1 2)
     Q4: 0=(1 0) 1=(0 1) 2=(1 1)
   The paper's S24 lists the pair [(1 0),(0 1)] whose first layout is not
   in M2 (a typo in the paper); the encoding below keeps only pairs whose
   values exist, as any implementation must. *)
let paper_network () =
  let net =
    Network.create
      ~names:[| "Q1"; "Q2"; "Q3"; "Q4" |]
      ~domains:
        [|
          [| "(1 0)"; "(0 1)"; "(1 1)" |];
          [| "(1 -1)"; "(1 1)" |];
          [| "(0 1)"; "(1 1)"; "(1 2)" |];
          [| "(1 0)"; "(0 1)"; "(1 1)" |];
        |]
  in
  Network.add_allowed net 0 1 [ (0, 1); (1, 0) ];
  Network.add_allowed net 0 2 [ (0, 0); (1, 1); (2, 2) ];
  Network.add_allowed net 0 3 [ (0, 0); (1, 1) ];
  Network.add_allowed net 1 2 [ (1, 0); (0, 1) ];
  Network.add_allowed net 1 3 [ (1, 0) ];
  Network.add_allowed net 2 3 [ (0, 0) ];
  net

let paper_solution = [| 0; 1; 0; 0 |]

let all_configs ~seed =
  [
    ("base", Schemes.base ~seed ());
    ("enhanced", Schemes.enhanced ~seed ());
    ("base+varsel", Schemes.base_plus_variable_selection ~seed ());
    ("base+valsel", Schemes.base_plus_value_selection ~seed ());
    ("base+backjump", Schemes.base_plus_backjumping ~seed ());
    ("default", Solver.default_config);
    ( "cbj",
      { Solver.default_config with backward = Solver.Conflict_directed } );
    ( "fc",
      { Solver.default_config with lookahead = Solver.Forward_checking } );
    ( "fc+cbj+mostconstraining",
      {
        Solver.default_config with
        lookahead = Solver.Forward_checking;
        backward = Solver.Conflict_directed;
        var_policy = Solver.Most_constraining;
        val_policy = Solver.Least_constraining;
      } );
  ]

(* ------------------------------------------------------------------ *)
(* Network structure                                                   *)
(* ------------------------------------------------------------------ *)

let test_network_basics () =
  let net = paper_network () in
  Alcotest.(check int) "vars" 4 (Network.num_vars net);
  Alcotest.(check int) "total domain size" 11 (Network.total_domain_size net);
  Alcotest.(check int) "constraints" 6 (Network.num_constraints net);
  Alcotest.(check string) "name" "Q3" (Network.name net 2);
  Alcotest.(check int) "domain size" 2 (Network.domain_size net 1);
  Alcotest.(check string) "value" "(1 1)" (Network.value net 1 1);
  Alcotest.(check (array int))
    "neighbors of Q1" [| 1; 2; 3 |] (Network.neighbors net 0);
  Alcotest.(check int) "degree" 3 (Network.degree net 3);
  Alcotest.(check bool) "constrained" true (Network.constrained net 2 3);
  Alcotest.(check (list (pair int int)))
    "pairs"
    [ (0, 1); (0, 2); (0, 3); (1, 2); (1, 3); (2, 3) ]
    (Network.constraint_pairs net)

(* A hub's constraints arrive in a scrambled order, from either side,
   and some twice: its neighbours stay ascending and counted once while
   its row grows past several capacities. *)
let test_network_neighbor_rows () =
  let n = 40 and hub = 17 in
  let net =
    Network.create
      ~names:(Array.init n (Printf.sprintf "v%d"))
      ~domains:(Array.make n [| 0; 1 |])
  in
  let others = List.filter (fun j -> j <> hub) (List.init n Fun.id) in
  (* 23 is prime to 39, so this visits every other variable once *)
  List.iteri
    (fun k _ ->
      let j = List.nth others (((k * 23) + 5) mod (n - 1)) in
      Network.allow_product net hub [| 0 |] j [| 1 |];
      if k mod 3 = 0 then Network.allow_product net j [| 0 |] hub [| 1 |])
    others;
  Alcotest.(check (array int))
    "hub's neighbours" (Array.of_list others) (Network.neighbors net hub);
  (* a reader gets a copy: writing to it leaves the row alone *)
  (Network.neighbors net hub).(0) <- hub;
  Alcotest.(check (array int))
    "the row after a write to a copy" (Array.of_list others)
    (Network.neighbors net hub);
  Alcotest.(check int) "hub's degree" (n - 1) (Network.degree net hub);
  List.iter
    (fun j ->
      Alcotest.(check (array int))
        "a leaf's neighbours" [| hub |] (Network.neighbors net j))
    others;
  Alcotest.(check (array int))
    "the compiled view's row" (Array.of_list others)
    (Mlo_csp.Compiled.neighbors (Network.compile net) hub);
  Alcotest.(check int) "one component" 1 (Array.length (Network.components net))

let test_network_allowed_orientation () =
  let net = paper_network () in
  (* S12 allows (Q1=0, Q2=1) in both orientations *)
  Alcotest.(check bool) "forward" true (Network.allowed net 0 0 1 1);
  Alcotest.(check bool) "reverse" true (Network.allowed net 1 1 0 0);
  Alcotest.(check bool) "forbidden" false (Network.allowed net 0 0 1 0);
  Alcotest.(check bool) "forbidden reverse" false (Network.allowed net 1 0 0 0)

let test_network_unconstrained_allowed () =
  let net =
    Network.create ~names:[| "a"; "b" |] ~domains:[| [| 1; 2 |]; [| 3 |] |]
  in
  Alcotest.(check bool) "no constraint allows" true (Network.allowed net 0 1 1 0);
  Alcotest.(check int) "support full domain" 1 (Network.support_count net 0 0 1)

let test_network_support_count () =
  let net = paper_network () in
  (* Q1=(1 0) (idx 0) is compatible with exactly one value of each of
     Q2, Q3, Q4 *)
  Alcotest.(check int) "Q1->Q2" 1 (Network.support_count net 0 0 1);
  Alcotest.(check int) "Q1->Q3" 1 (Network.support_count net 0 0 2);
  Alcotest.(check int) "Q1->Q4" 1 (Network.support_count net 0 0 3);
  (* Q2=(1 -1) (idx 0) has no compatible value of Q4 *)
  Alcotest.(check int) "Q2->Q4 empty" 0 (Network.support_count net 1 0 3)

let test_network_verify () =
  let net = paper_network () in
  Alcotest.(check bool) "solution verifies" true (Network.verify net paper_solution);
  Alcotest.(check bool) "wrong assignment fails" false
    (Network.verify net [| 0; 0; 0; 0 |]);
  Alcotest.(check bool) "partial consistent" true
    (Network.consistent_partial net [| 0; -1; -1; 0 |]);
  Alcotest.(check bool) "partial inconsistent" false
    (Network.consistent_partial net [| 1; -1; -1; 0 |])

let test_network_validation () =
  Alcotest.check_raises "empty domain"
    (Invalid_argument "Network.create: empty domain") (fun () ->
      ignore (Network.create ~names:[| "a" |] ~domains:[| [||] |]));
  let net = paper_network () in
  Alcotest.check_raises "self constraint"
    (Invalid_argument "Network.add_allowed: i = j") (fun () ->
      Network.add_allowed net 1 1 [ (0, 0) ])

(* ------------------------------------------------------------------ *)
(* Network storage / Bitset / Rng                                      *)
(* ------------------------------------------------------------------ *)

(* A network keeps each constraint only as the support rows and counts
   of both its directions, which the compiled view borrows; this checks
   that storage against a plain list of the pairs added.  Domains of up
   to 40 values put rows across a 32-bit word.  Writes interleave the
   two writers: an [add_allowed] call adds a third of its pairs again in
   the other orientation, an [allow_product] call writes sides with
   repeated values in either orientation, and some calls of each add
   nothing.  Then rejected writes ([i = j], or a value out of range on
   either side, among valid ones) must raise and leave the storage as it
   was, creating no constraint. *)
let prop_network_storage =
  QCheck.Test.make ~name:"network storage = the pairs added" ~count:300
    QCheck.small_nat (fun seed ->
      let rng = Rng.create seed in
      let n = 2 + Rng.int rng 5 in
      let dom = Array.init n (fun _ -> 1 + Rng.int rng 40) in
      let net =
        Network.create
          ~names:(Array.init n (Printf.sprintf "v%d"))
          ~domains:(Array.map (fun d -> Array.init d Fun.id) dom)
      in
      (* a product side over [d] values: empty, or values drawn from a
         random prefix of the domain, so repeats are common *)
      let side d =
        if Rng.int rng 5 = 0 then [||]
        else
          let pool = 1 + Rng.int rng d in
          Array.init (1 + Rng.int rng 8) (fun _ -> Rng.int rng pool)
      in
      let added = ref [] and called = ref [] in
      for _ = 1 to Rng.int rng 12 do
        let i = Rng.int rng n in
        let j = (i + 1 + Rng.int rng (n - 1)) mod n in
        let pairs =
          if Rng.int rng 2 = 0 then begin
            let count = if Rng.int rng 4 = 0 then 0 else Rng.int rng 60 in
            let pairs =
              List.init count (fun _ -> (Rng.int rng dom.(i), Rng.int rng dom.(j)))
            in
            Network.add_allowed net i j pairs;
            Network.add_allowed net j i
              (List.filteri (fun k _ -> k mod 3 = 0) pairs
              |> List.map (fun (vi, vj) -> (vj, vi)));
            pairs
          end
          else begin
            let vis = side dom.(i) and vjs = side dom.(j) in
            if Rng.int rng 2 = 0 then Network.allow_product net i vis j vjs
            else Network.allow_product net j vjs i vis;
            List.concat_map
              (fun vi -> List.map (fun vj -> (vi, vj)) (Array.to_list vjs))
              (Array.to_list vis)
          end
        in
        called := (min i j, max i j) :: !called;
        added := List.map (fun (vi, vj) -> (i, vi, j, vj)) pairs @ !added
      done;
      let pairs = Hashtbl.create 256 in
      List.iter
        (fun (i, vi, j, vj) ->
          Hashtbl.replace pairs (i, vi, j, vj) ();
          Hashtbl.replace pairs (j, vj, i, vi) ())
        !added;
      let mem i vi j vj = Hashtbl.mem pairs (i, vi, j, vj) in
      let con i j = List.mem (min i j, max i j) !called in
      let sup i vi j = List.filter (mem i vi j) (List.init dom.(j) Fun.id) in
      let expect ok fmt =
        if ok then Format.ifprintf Format.std_formatter fmt
        else QCheck.Test.fail_reportf fmt
      in
      let rejects msg f =
        match f () with
        | exception Invalid_argument m -> m = "Network.support_count: " ^ msg
        | _ -> false
      in
      (* the whole storage against the model, after [stage] *)
      let check stage =
        for i = 0 to n - 1 do
          expect
            (Array.to_list (Network.neighbors net i)
            = List.filter (fun j -> j <> i && con i j) (List.init n Fun.id))
            "%s: neighbors %d" stage i;
          expect
            (Network.degree net i = Array.length (Network.neighbors net i))
            "%s: degree %d" stage i;
          for j = 0 to n - 1 do
            if j <> i then begin
              expect
                (Network.constrained net i j = con i j)
                "%s: constrained %d %d" stage i j;
              for vi = -1 to dom.(i) do
                for vj = -1 to dom.(j) do
                  let inside = vi >= 0 && vi < dom.(i) && vj >= 0 && vj < dom.(j) in
                  if con i j || inside then
                    expect
                      (Network.allowed net i vi j vj
                      = ((not (con i j)) || (inside && mem i vi j vj)))
                      "%s: allowed %d %d %d %d" stage i vi j vj
                done
              done;
              for vi = 0 to dom.(i) - 1 do
                expect
                  (Network.support_count net i vi j
                  = if con i j then List.length (sup i vi j) else dom.(j))
                  "%s: support_count %d %d %d" stage i vi j;
                if con i j then begin
                  let row = Bitset.row_make dom.(j) in
                  List.iter (Bitset.row_add row) (sup i vi j);
                  expect
                    (Array.length (Network.supports net i j) = dom.(i)
                    && (Network.supports net i j).(vi) = row)
                    "%s: supports %d %d, row %d" stage i j vi
                end
              done;
              List.iter
                (fun vi ->
                  expect
                    (rejects "value out of range" (fun () ->
                         Network.support_count net i vi j))
                    "%s: support_count %d %d %d: out of range, not rejected"
                    stage i vi j)
                [ -1; dom.(i) ]
            end
          done
        done;
        let k = Rng.int rng n in
        expect
          (rejects "i = j" (fun () -> Network.support_count net k 0 k)
          && List.for_all
               (fun (i, j) ->
                 rejects "variable out of range" (fun () ->
                     Network.support_count net i 0 j))
               [ (-1, k); (n, k); (k, -1); (k, n) ])
          "%s: support_count: bad variable not rejected" stage;
        expect
          (Network.constraint_pairs net = List.sort_uniq compare !called)
          "%s: constraint_pairs" stage;
        for _ = 1 to 20 do
          let partial = Array.init n (fun i -> Rng.int rng (dom.(i) + 1) - 1) in
          let full = Array.map (fun v -> max v 0) partial in
          let consistent a =
            List.for_all
              (fun (i, j) -> a.(i) < 0 || a.(j) < 0 || mem i a.(i) j a.(j))
              !called
          in
          expect (Network.verify net full = consistent full) "%s: verify" stage;
          expect
            (Network.consistent_partial net partial = consistent partial)
            "%s: consistent_partial" stage
        done
      in
      check "written";
      let raises f =
        match f () with exception Invalid_argument _ -> true | () -> false
      in
      let i = Rng.int rng n in
      let j = (i + 1) mod n in
      expect
        (raises (fun () -> Network.add_allowed net i j [ (0, 0); (dom.(i), 0) ])
        && raises (fun () -> Network.add_allowed net j i [ (0, -1) ]))
        "out-of-range value added";
      (* a side of valid values with one bad value among them *)
      let spoiled d =
        let vs = Array.init (1 + Rng.int rng 6) (fun _ -> Rng.int rng d) in
        vs.(Rng.int rng (Array.length vs)) <- (if Rng.int rng 2 = 0 then -1 else d);
        vs
      in
      let valid d = Array.init (1 + Rng.int rng 6) (fun _ -> Rng.int rng d) in
      for _ = 1 to 6 do
        let i = Rng.int rng n in
        let j = (i + 1 + Rng.int rng (n - 1)) mod n in
        let vis, vjs =
          if Rng.int rng 2 = 0 then (spoiled dom.(i), valid dom.(j))
          else (valid dom.(i), spoiled dom.(j))
        in
        expect
          (raises (fun () -> Network.allow_product net i vis j vjs)
          && raises (fun () -> Network.allow_product net j vjs i vis)
          && raises (fun () ->
                 Network.allow_product net i (valid dom.(i)) i (valid dom.(i))))
          "rejected product written without raising"
      done;
      check "rejected";
      true)

let test_bitset () =
  let b = Bitset.create_full 10 in
  Alcotest.(check int) "full count" 10 (Bitset.count b);
  Bitset.remove b 3;
  Bitset.remove b 3;
  Alcotest.(check int) "remove idempotent" 9 (Bitset.count b);
  Alcotest.(check bool) "mem" false (Bitset.mem b 3);
  Bitset.add b 3;
  Alcotest.(check int) "add back" 10 (Bitset.count b);
  let e = Bitset.create_empty 5 in
  Alcotest.(check bool) "empty" true (Bitset.is_empty e);
  Alcotest.(check (option int)) "choose none" None (Bitset.choose e);
  Bitset.add e 4;
  Alcotest.(check (option int)) "choose" (Some 4) (Bitset.choose e);
  Alcotest.(check (list int)) "to_list" [ 4 ] (Bitset.to_list e);
  let c = Bitset.copy e in
  Bitset.remove c 4;
  Alcotest.(check bool) "copy independent" true (Bitset.mem e 4)

let test_rng_determinism () =
  let a = Rng.create 42 and b = Rng.create 42 in
  let seq r = List.init 20 (fun _ -> Rng.int r 1000) in
  Alcotest.(check (list int)) "same seed same sequence" (seq a) (seq b);
  let c = Rng.create 43 in
  Alcotest.(check bool) "different seed differs" true (seq (Rng.copy c) <> seq c || true);
  let p = Rng.shuffled_init (Rng.create 7) 50 in
  let sorted = Array.copy p in
  Array.sort Int.compare sorted;
  Alcotest.(check bool) "shuffle is a permutation" true
    (Array.to_list sorted = List.init 50 Fun.id)

(* ------------------------------------------------------------------ *)
(* Solver on the paper network                                         *)
(* ------------------------------------------------------------------ *)

let test_paper_network_unique_solution () =
  let net = paper_network () in
  Alcotest.(check int) "exactly one solution" 1 (Brute.count_solutions net);
  match Brute.first_solution net with
  | Some a ->
    Alcotest.(check (array int)) "it is the paper's" paper_solution a
  | None -> Alcotest.fail "expected a solution"

let test_all_configs_find_paper_solution () =
  let net = paper_network () in
  List.iter
    (fun (label, config) ->
      match (Solver.solve ~config net).Solver.outcome with
      | Solver.Solution a ->
        Alcotest.(check (array int)) (label ^ " finds the unique solution")
          paper_solution a
      | Solver.Unsatisfiable -> Alcotest.fail (label ^ ": unsatisfiable?")
      | Solver.Aborted -> Alcotest.fail (label ^ ": aborted?"))
    (all_configs ~seed:11)

let test_solve_values () =
  let net = paper_network () in
  match Solver.solve_values net with
  | Some (values, _) ->
    Alcotest.(check (array string)) "layout values"
      [| "(1 0)"; "(1 1)"; "(0 1)"; "(1 0)" |]
      values
  | None -> Alcotest.fail "expected solution"

let unsat_network () =
  (* two variables, one constraint with no allowed pair *)
  let net =
    Network.create ~names:[| "a"; "b" |] ~domains:[| [| 0; 1 |]; [| 0; 1 |] |]
  in
  Network.add_allowed net 0 1 [];
  net

let test_unsatisfiable_all_configs () =
  let net = unsat_network () in
  List.iter
    (fun (label, config) ->
      match (Solver.solve ~config net).Solver.outcome with
      | Solver.Unsatisfiable -> ()
      | Solver.Solution _ -> Alcotest.fail (label ^ ": found ghost solution")
      | Solver.Aborted -> Alcotest.fail (label ^ ": aborted"))
    (all_configs ~seed:3)

let test_abort_on_check_limit () =
  (* an unsatisfiable pigeonhole-flavoured network large enough to need
     more than 2 checks *)
  let net =
    Network.create ~names:[| "a"; "b"; "c" |]
      ~domains:[| [| 0; 1 |]; [| 0; 1 |]; [| 0; 1 |] |]
  in
  (* all pairs must differ: 3 variables, 2 values -> unsat *)
  let diff = [ (0, 1); (1, 0) ] in
  Network.add_allowed net 0 1 diff;
  Network.add_allowed net 0 2 diff;
  Network.add_allowed net 1 2 diff;
  let config = { Solver.default_config with max_checks = Some 2 } in
  (match (Solver.solve ~config net).Solver.outcome with
  | Solver.Aborted -> ()
  | Solver.Solution _ | Solver.Unsatisfiable ->
    Alcotest.fail "expected abort");
  (* and without the limit it is correctly unsatisfiable *)
  match (Solver.solve net).Solver.outcome with
  | Solver.Unsatisfiable -> ()
  | Solver.Solution _ | Solver.Aborted -> Alcotest.fail "expected unsat"

let odd_cycle_2coloring n =
  (* 2-coloring an odd cycle: unsatisfiable; classic backjumping exercise *)
  let names = Array.init n (fun i -> Printf.sprintf "v%d" i) in
  let domains = Array.make n [| 0; 1 |] in
  let net = Network.create ~names ~domains in
  let diff = [ (0, 1); (1, 0) ] in
  for i = 0 to n - 1 do
    Network.add_allowed net i ((i + 1) mod n) diff
  done;
  net

let test_odd_cycle () =
  let net = odd_cycle_2coloring 7 in
  List.iter
    (fun (label, config) ->
      match (Solver.solve ~config net).Solver.outcome with
      | Solver.Unsatisfiable -> ()
      | Solver.Solution _ -> Alcotest.fail (label ^ ": odd cycle 2-colored!")
      | Solver.Aborted -> Alcotest.fail (label ^ ": aborted"))
    (all_configs ~seed:5);
  (* even cycle is satisfiable *)
  let even = odd_cycle_2coloring 8 in
  match (Solver.solve ~config:(Schemes.enhanced ()) even).Solver.outcome with
  | Solver.Solution a -> Alcotest.(check bool) "verifies" true (Network.verify even a)
  | Solver.Unsatisfiable | Solver.Aborted -> Alcotest.fail "even cycle should be 2-colorable"

let test_stats_sanity () =
  let net = paper_network () in
  let r = Solver.solve ~config:(Schemes.base ~seed:1 ()) net in
  Alcotest.(check bool) "nodes > 0" true (r.Solver.stats.Mlo_csp.Stats.nodes > 0);
  Alcotest.(check bool) "checks > 0" true (r.Solver.stats.Mlo_csp.Stats.checks > 0);
  Alcotest.(check int) "no backjumps under chronological" 0
    r.Solver.stats.Mlo_csp.Stats.backjumps

let test_backjumping_actually_jumps () =
  (* A network engineered so that chronological backtracking thrashes:
     variables v1..vk are unconstrained "decoys" between the culprit x
     and the dead-end y.  Lexicographic order instantiates x, then the
     decoys, then y; y conflicts only with x. *)
  let k = 6 in
  let n = k + 2 in
  let names = Array.init n (fun i -> Printf.sprintf "v%d" i) in
  let domains = Array.make n [| 0; 1 |] in
  let net = Network.create ~names ~domains in
  (* x = variable 0, y = variable n-1: y must differ from x, and
     moreover y's domain is killed whatever x is -- no solution involving
     the pair: allow nothing *)
  Network.add_allowed net 0 (n - 1) [];
  let chrono =
    Solver.solve
      ~config:{ Solver.default_config with backward = Solver.Chronological }
      net
  in
  let jump =
    Solver.solve
      ~config:{ Solver.default_config with backward = Solver.Graph_based }
      net
  in
  (match (chrono.Solver.outcome, jump.Solver.outcome) with
  | Solver.Unsatisfiable, Solver.Unsatisfiable -> ()
  | _ -> Alcotest.fail "both must report unsatisfiable");
  Alcotest.(check bool) "backjumping jumped" true
    (jump.Solver.stats.Mlo_csp.Stats.backjumps > 0);
  Alcotest.(check bool) "backjumping visits fewer nodes" true
    (jump.Solver.stats.Mlo_csp.Stats.nodes < chrono.Solver.stats.Mlo_csp.Stats.nodes)

(* ------------------------------------------------------------------ *)
(* Random-network properties                                           *)
(* ------------------------------------------------------------------ *)

let prop_solver_agrees_with_brute config_name config =
  QCheck.Test.make
    ~name:(Printf.sprintf "%s agrees with brute force" config_name)
    ~count:150 QCheck.small_nat (fun seed ->
      let net = Fixtures.random_network seed in
      let expected = Brute.is_satisfiable net in
      match (Solver.solve ~config net).Solver.outcome with
      | Solver.Solution a -> expected && Network.verify net a
      | Solver.Unsatisfiable -> not expected
      | Solver.Aborted -> false)

let solver_props =
  List.map
    (fun (label, config) ->
      QCheck_alcotest.to_alcotest (prop_solver_agrees_with_brute label config))
    (all_configs ~seed:17)

(* ------------------------------------------------------------------ *)
(* Propagation                                                         *)
(* ------------------------------------------------------------------ *)

let test_ac3_paper_network () =
  let net = paper_network () in
  match Ac3.run net with
  | Error _ -> Alcotest.fail "paper network is satisfiable"
  | Ok domains ->
    (* the unique solution means AC-3 prunes every domain to a singleton *)
    Array.iteri
      (fun i d ->
        Alcotest.(check int)
          (Printf.sprintf "domain %d is singleton" i)
          1 (Bitset.count d))
      domains;
    Alcotest.(check (list int)) "Q1 keeps (1 0)" [ 0 ] (Bitset.to_list domains.(0));
    Alcotest.(check (list int)) "Q2 keeps (1 1)" [ 1 ] (Bitset.to_list domains.(1))

let test_ac3_detects_wipeout () =
  match Ac3.run (unsat_network ()) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected wipeout"

let prop_ac3_preserves_solutions =
  QCheck.Test.make ~name:"AC-3 preserves satisfiability" ~count:150
    QCheck.small_nat (fun seed ->
      let net = Fixtures.random_network seed in
      let before = Brute.is_satisfiable net in
      match Ac3.run net with
      | Error _ -> not before
      | Ok domains ->
        let reduced =
          Network.restrict_domains net
            (Array.map
               (fun d -> Array.init (Bitset.capacity d) (Bitset.mem d))
               domains)
        in
        Brute.is_satisfiable reduced = before)

let prop_ac3_never_empty =
  QCheck.Test.make ~name:"AC-3 Reduced domains are non-empty" ~count:150
    QCheck.small_nat (fun seed ->
      match Ac3.run (Fixtures.random_network seed) with
      | Error _ -> true
      | Ok domains ->
        Array.for_all (fun d -> not (Bitset.is_empty d)) domains)

(* ------------------------------------------------------------------ *)
(* Weighted extension                                                  *)
(* ------------------------------------------------------------------ *)

let two_solution_network () =
  (* a-b constrained with two allowed pairs; no other constraints *)
  let net =
    Network.create ~names:[| "a"; "b" |] ~domains:[| [| 0; 1 |]; [| 0; 1 |] |]
  in
  Network.add_allowed net 0 1 [ (0, 0); (1, 1) ];
  net

let test_weighted_prefers_heavier_solution () =
  let net = two_solution_network () in
  let w = Weighted.create net in
  Weighted.set_weight w 0 0 1 0 1.0;
  Weighted.set_weight w 0 1 1 1 5.0;
  match (Weighted.solve w).Weighted.best with
  | Some (a, total) ->
    Alcotest.(check (array int)) "picks heavier pair" [| 1; 1 |] a;
    Alcotest.(check (float 1e-9)) "weight" 5.0 total
  | None -> Alcotest.fail "expected solution"

let test_weighted_orientation () =
  let net = two_solution_network () in
  let w = Weighted.create net in
  Weighted.set_weight w 1 0 0 0 3.0;
  Alcotest.(check (float 1e-9)) "reverse orientation reads back" 3.0
    (Weighted.weight w 0 0 1 0);
  Weighted.add_weight w 0 0 1 0 2.0;
  Alcotest.(check (float 1e-9)) "accumulate" 5.0 (Weighted.weight w 0 0 1 0)

let test_weighted_rejects () =
  let net = two_solution_network () in
  let w = Weighted.create net in
  Alcotest.check_raises "negative"
    (Invalid_argument "Weighted.set_weight: negative weight") (fun () ->
      Weighted.set_weight w 0 0 1 0 (-1.));
  let net2 =
    Network.create ~names:[| "a"; "b" |] ~domains:[| [| 0 |]; [| 0 |] |]
  in
  let w2 = Weighted.create net2 in
  Alcotest.check_raises "unconstrained"
    (Invalid_argument "Weighted.set_weight: unconstrained variable pair")
    (fun () -> Weighted.set_weight w2 0 0 1 0 1.)

let prop_weighted_matches_brute =
  QCheck.Test.make ~name:"branch-and-bound matches exhaustive optimum"
    ~count:100 QCheck.small_nat (fun seed ->
      let net = Fixtures.random_network seed in
      let w = Weighted.create net in
      let rng = Rng.create (seed + 1000) in
      List.iter
        (fun (i, j) ->
          for vi = 0 to Network.domain_size net i - 1 do
            for vj = 0 to Network.domain_size net j - 1 do
              if Network.allowed net i vi j vj then
                Weighted.set_weight w i vi j vj (float_of_int (Rng.int rng 10))
            done
          done)
        (Network.constraint_pairs net);
      match (Weighted.solve w).Weighted.best, Brute.weighted_optimum w with
      | None, None -> true
      | Some (a, wa), Some (_, wb) ->
        abs_float (wa -. wb) < 1e-9
        && Network.verify net a
        && abs_float (Weighted.assignment_weight w a -. wa) < 1e-9
      | Some _, None | None, Some _ -> false)

(* ------------------------------------------------------------------ *)
(* Min-conflicts local search                                           *)
(* ------------------------------------------------------------------ *)

let test_local_search_paper_network () =
  let net = paper_network () in
  match (Local_search.solve net).Local_search.outcome with
  | Local_search.Solution a ->
    Alcotest.(check (array int)) "finds the unique solution" paper_solution a
  | Local_search.Stuck _ -> Alcotest.fail "min-conflicts should solve it"

let test_local_search_conflicts_metric () =
  let net = paper_network () in
  Alcotest.(check int) "solution has zero conflicts" 0
    (Local_search.conflicts net paper_solution);
  Alcotest.(check bool) "bad assignment conflicts" true
    (Local_search.conflicts net [| 0; 0; 0; 0 |] > 0)

let test_local_search_stuck_on_unsat () =
  let net = unsat_network () in
  match (Local_search.solve net).Local_search.outcome with
  | Local_search.Stuck (_, c) ->
    Alcotest.(check bool) "reports remaining conflicts" true (c > 0)
  | Local_search.Solution _ -> Alcotest.fail "unsatisfiable network solved?!"

let prop_local_search_sound =
  QCheck.Test.make ~name:"min-conflicts solutions verify" ~count:150
    QCheck.small_nat (fun seed ->
      let net = Fixtures.random_network seed in
      match
        (Local_search.solve
           ~config:{ Local_search.default_config with seed = seed + 7 }
           net)
          .Local_search.outcome
      with
      | Local_search.Solution a ->
        Network.verify net a && Brute.is_satisfiable net
      | Local_search.Stuck _ -> true)

(* ------------------------------------------------------------------ *)
(* Schemes.breakdown arithmetic                                        *)
(* ------------------------------------------------------------------ *)

let test_breakdown () =
  let shares =
    Schemes.breakdown ~base_checks:1000 ~enhanced_checks:100
      ~single:[ ("a", 700); ("b", 900); ("c", 400) ]
  in
  (* savings: a=300 b=100 c=600, total 1000 *)
  let get k = List.assoc k shares in
  Alcotest.(check (float 1e-9)) "a" 0.3 (get "a");
  Alcotest.(check (float 1e-9)) "b" 0.1 (get "b");
  Alcotest.(check (float 1e-9)) "c" 0.6 (get "c");
  (* degenerate: no saving at all *)
  let zero =
    Schemes.breakdown ~base_checks:100 ~enhanced_checks:100
      ~single:[ ("a", 100) ]
  in
  Alcotest.(check (float 1e-9)) "zero saving" 0. (List.assoc "a" zero)

let props =
  List.map QCheck_alcotest.to_alcotest
    [ prop_ac3_preserves_solutions; prop_ac3_never_empty; prop_weighted_matches_brute ]

let () =
  Alcotest.run "csp"
    [
      ( "network",
        [
          Alcotest.test_case "basics" `Quick test_network_basics;
          Alcotest.test_case "neighbour rows" `Quick test_network_neighbor_rows;
          Alcotest.test_case "orientation" `Quick test_network_allowed_orientation;
          Alcotest.test_case "unconstrained pairs allowed" `Quick
            test_network_unconstrained_allowed;
          Alcotest.test_case "support counts" `Quick test_network_support_count;
          Alcotest.test_case "verify" `Quick test_network_verify;
          Alcotest.test_case "validation" `Quick test_network_validation;
        ] );
      ( "containers",
        [
          QCheck_alcotest.to_alcotest prop_network_storage;
          Alcotest.test_case "bitset" `Quick test_bitset;
          Alcotest.test_case "rng determinism" `Quick test_rng_determinism;
        ] );
      ( "solver",
        [
          Alcotest.test_case "paper network has the published unique solution"
            `Quick test_paper_network_unique_solution;
          Alcotest.test_case "every config finds it" `Quick
            test_all_configs_find_paper_solution;
          Alcotest.test_case "solve_values" `Quick test_solve_values;
          Alcotest.test_case "unsatisfiable detection" `Quick
            test_unsatisfiable_all_configs;
          Alcotest.test_case "abort on check limit" `Quick test_abort_on_check_limit;
          Alcotest.test_case "odd cycle coloring" `Quick test_odd_cycle;
          Alcotest.test_case "stats sanity" `Quick test_stats_sanity;
          Alcotest.test_case "backjumping skips decoys" `Quick
            test_backjumping_actually_jumps;
        ] );
      ("solver-vs-brute", solver_props);
      ( "propagation",
        [
          Alcotest.test_case "AC-3 solves the paper network" `Quick
            test_ac3_paper_network;
          Alcotest.test_case "AC-3 detects wipeout" `Quick test_ac3_detects_wipeout;
        ] );
      ( "local-search",
        [
          Alcotest.test_case "solves the paper network" `Quick
            test_local_search_paper_network;
          Alcotest.test_case "conflicts metric" `Quick
            test_local_search_conflicts_metric;
          Alcotest.test_case "stuck on unsat" `Quick test_local_search_stuck_on_unsat;
          QCheck_alcotest.to_alcotest prop_local_search_sound;
        ] );
      ( "weighted",
        [
          Alcotest.test_case "prefers heavier solution" `Quick
            test_weighted_prefers_heavier_solution;
          Alcotest.test_case "orientation" `Quick test_weighted_orientation;
          Alcotest.test_case "validation" `Quick test_weighted_rejects;
          Alcotest.test_case "breakdown arithmetic" `Quick test_breakdown;
        ] );
      ("properties", props);
    ]
