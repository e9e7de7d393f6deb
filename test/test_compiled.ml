(* Equivalence tests for the compiled solver core.

   The compiled engine (Solver.solve on Network.compile) must be
   decision-for-decision identical to the reference engine
   (Solver_reference.solve): same outcomes, same assignments, same
   node/backtrack/backjump counts for every configuration.  AC-2001 must
   reach the same (unique) fixpoint as AC-3. *)

module Network = Mlo_csp.Network
module Compiled = Mlo_csp.Compiled
module Solver = Mlo_csp.Solver
module Schemes = Mlo_csp.Schemes
module Brute = Mlo_oracle.Brute
module Solver_reference = Mlo_oracle.Solver_reference
module Ac3 = Mlo_oracle.Ac3
module Network_reference = Mlo_oracle.Network_reference
module Ac2001 = Mlo_csp.Ac2001
module Bitset = Mlo_csp.Bitset
module Rng = Mlo_csp.Rng
module Stats = Mlo_csp.Stats
module Fixtures = Mlo_oracle.Fixtures

(* Every search configuration exercised for equivalence.  Preprocessing
   configs are excluded here (the reference ignores them) and covered
   by their own soundness property below. *)
let equivalence_configs ~seed =
  [
    ("base", Schemes.base ~seed ());
    ("enhanced", Schemes.enhanced ~seed ());
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
  @ List.map
      (fun a -> (a.Schemes.label, a.Schemes.config))
      (Schemes.figure4_schemes ~seed ())

let outcome_label = function
  | Solver.Solution _ -> "solution"
  | Solver.Unsatisfiable -> "unsatisfiable"
  | Solver.Aborted -> "aborted"

(* ------------------------------------------------------------------ *)
(* Compiled view vs network queries                                    *)
(* ------------------------------------------------------------------ *)

let prop_compiled_matches_network =
  QCheck.Test.make ~name:"compiled allowed/support_count match the network"
    ~count:200 QCheck.small_nat (fun seed ->
      let net = Fixtures.random_network seed in
      let comp = Network.compile net in
      let n = Network.num_vars net in
      let ok = ref (Compiled.num_vars comp = n) in
      for i = 0 to n - 1 do
        ok :=
          !ok
          && Compiled.domain_size comp i = Network.domain_size net i
          && Compiled.neighbors comp i |> Array.to_list
             = Network.neighbors net i;
        for j = 0 to n - 1 do
          if i <> j then begin
            ok :=
              !ok
              && Compiled.constrained comp i j = Network.constrained net i j;
            for vi = 0 to Network.domain_size net i - 1 do
              ok :=
                !ok
                && Compiled.support_count comp i vi j
                   = Network.support_count net i vi j;
              for vj = 0 to Network.domain_size net j - 1 do
                ok :=
                  !ok
                  && Compiled.allowed comp i vi j vj
                     = Network.allowed net i vi j vj
              done
            done
          end
        done
      done;
      !ok)

let test_compile_memoized () =
  let net = Fixtures.random_network 5 in
  let c1 = Network.compile net in
  let c2 = Network.compile net in
  Alcotest.(check bool) "same physical view" true (c1 == c2);
  Network.add_allowed net 0 1 [ (0, 0) ];
  let c3 = Network.compile net in
  Alcotest.(check bool) "mutation invalidates" true (not (c3 == c1));
  Alcotest.(check bool) "recompiled view sees the new pair" true
    (Compiled.allowed c3 0 0 1 0)

(* Networks with several components: each variable joins one of up to
   four groups, or stays unconstrained, and only same-group pairs are
   constrained, so components interleave in variable order.  Some
   relations allow nothing, some are added in (j, i) orientation, and
   some domains cross a 32-bit row word. *)
let multi_component_network seed =
  let rng = Rng.create seed in
  let n = 3 + Rng.int rng 10 in
  let groups = 2 + Rng.int rng 3 in
  let group = Array.init n (fun _ -> Rng.int rng (groups + 1) - 1) in
  let names = Array.init n (fun i -> Printf.sprintf "v%d" i) in
  let domains =
    Array.init n (fun _ ->
        let size =
          if Rng.int rng 8 = 0 then 30 + Rng.int rng 10 else 1 + Rng.int rng 3
        in
        Array.init size Fun.id)
  in
  let net = Network.create ~names ~domains in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if group.(i) >= 0 && group.(i) = group.(j) && Rng.int rng 100 < 60
      then begin
        let pairs = ref [] in
        if Rng.int rng 100 >= 15 then
          for vi = 0 to Array.length domains.(i) - 1 do
            for vj = 0 to Array.length domains.(j) - 1 do
              if Rng.int rng 100 < 55 then pairs := (vi, vj) :: !pairs
            done
          done;
        if Rng.int rng 2 = 0 then Network.add_allowed net i j !pairs
        else
          Network.add_allowed net j i (List.map (fun (a, b) -> (b, a)) !pairs)
      end
    done
  done;
  net

(* The first difference between two views, if any: domain sizes,
   neighbours, every handle, every support row and every support count. *)
let view_difference a b =
  let n = Compiled.num_vars a in
  let diff = ref None in
  let note fmt =
    Printf.ksprintf (fun m -> if !diff = None then diff := Some m) fmt
  in
  if Compiled.num_vars b <> n then note "num_vars %d <> %d" n (Compiled.num_vars b)
  else if Compiled.num_handles a <> Compiled.num_handles b then
    note "num_handles %d <> %d" (Compiled.num_handles a) (Compiled.num_handles b)
  else
    for i = 0 to n - 1 do
      if Compiled.domain_size a i <> Compiled.domain_size b i then
        note "domain_size %d" i;
      if Compiled.neighbors a i <> Compiled.neighbors b i then
        note "neighbors %d" i;
      for j = 0 to n - 1 do
        let h = Compiled.handle a i j in
        if h <> Compiled.handle b i j then note "handle (%d, %d)" i j
        else
          for vi = 0 to Compiled.domain_size a i - 1 do
            if h >= 0 && Compiled.row a h vi <> Compiled.row b h vi then
              note "row %d of handle (%d, %d)" vi i j;
            if Compiled.support_count a i vi j <> Compiled.support_count b i vi j
            then note "support_count (%d, %d, %d)" i vi j
          done
      done
    done;
  !diff

(* The k-th constrained pair (i, j), i < j, of [sub] in ascending order
   must own handles 2k (i to j) and 2k + 1 (j to i). *)
let numbering_difference view sub =
  List.mapi (fun k p -> (k, p)) (Network.constraint_pairs sub)
  |> List.find_map (fun (k, (i, j)) ->
         if Compiled.handle view i j = 2 * k && Compiled.handle view j i = (2 * k) + 1
         then None
         else Some (Printf.sprintf "pair (%d, %d) is not numbered %d" i j k))

let prop_component_views =
  QCheck.Test.make
    ~name:"each component's view = compile of its induced subnetwork"
    ~count:300 QCheck.small_nat (fun seed ->
      let net = multi_component_network seed in
      let all = Array.init (Network.num_vars net) Fun.id in
      Array.for_all
        (fun vars ->
          let sub = Network_reference.induced net vars in
          let view =
            if vars = all then Network.compile net
            else Network.compile_vars net vars
          in
          match
            match view_difference view (Network.compile sub) with
            | None -> numbering_difference view sub
            | d -> d
          with
          | None -> true
          | Some d ->
            QCheck.Test.fail_reportf "component [%s]: %s"
              (String.concat " " (Array.to_list (Array.map string_of_int vars)))
              d)
        (Array.append (Network.components net) [| all |]))

(* ------------------------------------------------------------------ *)
(* Compiled solver == reference solver                                 *)
(* ------------------------------------------------------------------ *)

let prop_engines_agree config_name config =
  QCheck.Test.make
    ~name:(Printf.sprintf "compiled == reference (%s)" config_name)
    ~count:150 QCheck.small_nat (fun seed ->
      let net = Fixtures.random_network seed in
      let c = Solver.solve ~config net in
      let r = Solver_reference.solve ~config net in
      let same_outcome =
        match (c.Solver.outcome, r.Solver.outcome) with
        | Solver.Solution a, Solver.Solution b -> a = b
        | Solver.Unsatisfiable, Solver.Unsatisfiable -> true
        | Solver.Aborted, Solver.Aborted -> true
        | _ -> false
      in
      if not same_outcome then
        QCheck.Test.fail_reportf "outcome: compiled=%s reference=%s"
          (outcome_label c.Solver.outcome)
          (outcome_label r.Solver.outcome);
      let cs = c.Solver.stats and rs = r.Solver.stats in
      if
        cs.Stats.nodes <> rs.Stats.nodes
        || cs.Stats.backtracks <> rs.Stats.backtracks
        || cs.Stats.backjumps <> rs.Stats.backjumps
        || cs.Stats.max_depth <> rs.Stats.max_depth
      then
        QCheck.Test.fail_reportf
          "counters: compiled n=%d bt=%d bj=%d d=%d, reference n=%d bt=%d \
           bj=%d d=%d"
          cs.Stats.nodes cs.Stats.backtracks cs.Stats.backjumps
          cs.Stats.max_depth rs.Stats.nodes rs.Stats.backtracks
          rs.Stats.backjumps rs.Stats.max_depth;
      (* check counting is identical without lookahead; under forward
         checking the compiled engine counts row fetches, the reference
         counts value probes *)
      (match config.Solver.lookahead with
      | Solver.No_lookahead ->
        if cs.Stats.checks <> rs.Stats.checks then
          QCheck.Test.fail_reportf "checks: compiled=%d reference=%d"
            cs.Stats.checks rs.Stats.checks
      | Solver.Forward_checking -> ());
      true)

let engine_props =
  List.map
    (fun (label, config) ->
      QCheck_alcotest.to_alcotest (prop_engines_agree label config))
    (equivalence_configs ~seed:17)

let prop_preprocessing_sound =
  QCheck.Test.make ~name:"AC preprocessing preserves satisfiability"
    ~count:150 QCheck.small_nat (fun seed ->
      let net = Fixtures.random_network seed in
      let config = Schemes.enhanced_with_ac ~seed:(seed + 3) () in
      let expected = Brute.is_satisfiable net in
      match (Solver.solve ~config net).Solver.outcome with
      | Solver.Solution a -> expected && Network.verify net a
      | Solver.Unsatisfiable -> not expected
      | Solver.Aborted -> false)

(* ------------------------------------------------------------------ *)
(* AC-2001 == AC-3                                                     *)
(* ------------------------------------------------------------------ *)

let prop_ac2001_matches_ac3 =
  QCheck.Test.make ~name:"AC-2001 reaches the AC-3 fixpoint" ~count:200
    QCheck.small_nat (fun seed ->
      let net = Fixtures.random_network seed in
      match (Ac3.run net, Ac2001.run (Network.compile net)) with
      | Error _, Error _ -> true
      | Ok d3, Ok d1 ->
        Array.length d3 = Array.length d1
        && Array.for_all2 Bitset.equal d3 d1
      | Error _, Ok _ | Ok _, Error _ -> false)

(* ------------------------------------------------------------------ *)
(* Bitset row operations                                               *)
(* ------------------------------------------------------------------ *)

let test_bitset_rows () =
  (* capacity crossing the 32-bit word boundary *)
  let cap = 70 in
  let row = Bitset.row_make cap in
  List.iter (fun i -> Bitset.row_add row i) [ 0; 31; 32; 33; 64; 69 ];
  Alcotest.(check int) "row popcount" 6
    (Bitset.inter_count (Bitset.create_full cap) row);
  Alcotest.(check bool) "row_mem hit" true (Bitset.row_mem row 33);
  Alcotest.(check bool) "row_mem miss" false (Bitset.row_mem row 34);
  let b = Bitset.create_empty cap in
  List.iter (Bitset.add b) [ 31; 34; 64 ];
  Alcotest.(check int) "inter_count" 2 (Bitset.inter_count b row);
  Alcotest.(check bool) "inter_exists" true (Bitset.inter_exists b row);
  Alcotest.(check (option int)) "inter_choose" (Some 31)
    (Bitset.inter_choose b row);
  let diff = ref [] in
  Bitset.iter_diff (fun v -> diff := v :: !diff) b row;
  Alcotest.(check (list int)) "iter_diff = members outside the row" [ 34 ]
    (List.rev !diff);
  let empty = Bitset.create_empty cap in
  Alcotest.(check bool) "inter_exists empty" false
    (Bitset.inter_exists empty row);
  Alcotest.(check (option int)) "inter_choose empty" None
    (Bitset.inter_choose empty row);
  Alcotest.(check (list int)) "to_array ascending" [ 31; 34; 64 ]
    (Array.to_list (Bitset.to_array b));
  (* subset word by word, the second word decides *)
  let sub = Bitset.row_make cap in
  List.iter (Bitset.row_add sub) [ 0; 33; 69 ];
  Alcotest.(check bool) "row_subset" true (Bitset.row_subset sub row);
  Bitset.row_add sub 34;
  Alcotest.(check bool) "row_subset miss" false (Bitset.row_subset sub row);
  Alcotest.(check bool) "row_subset reflexive" true (Bitset.row_subset row row);
  Alcotest.check_raises "row_subset width"
    (Invalid_argument "Bitset.row_subset: row width mismatch") (fun () ->
      ignore (Bitset.row_subset row (Bitset.row_make 32)))

(* The level-set extremes the search kernel and its selection queue read
   against a list model: a random row of a three-row matrix over up to
   200 levels, so members sit on every word boundary of the 63-bit
   words. *)
let prop_lset_extremes =
  QCheck.Test.make ~name:"lset min/next/max = a sorted list" ~count:300
    QCheck.small_nat (fun seed ->
      let rng = Rng.create ((13 * seed) + 7) in
      let n = 1 + Rng.int rng 200 in
      let lw = Mlo_csp.Lset.words n in
      let m = Mlo_csp.Lset.make_mat 3 n in
      let off = Rng.int rng 3 * lw in
      let density = Rng.int rng 5 in
      let members =
        List.filter (fun _ -> Rng.int rng 8 < density) (List.init n Fun.id)
      in
      List.iter (Mlo_csp.Lset.add m off) members;
      let last = List.fold_left (fun _ l -> l) (-1) members in
      Mlo_csp.Lset.max_elt m off lw = last
      && Mlo_csp.Lset.min_elt m off lw
         = (match members with [] -> -1 | l :: _ -> l)
      && List.for_all
           (fun l ->
             Mlo_csp.Lset.next_elt m off lw l
             = Option.value ~default:(-1)
                 (List.find_opt (fun x -> x >= l) members))
           (List.init (n + 1) Fun.id))

let () =
  Alcotest.run "compiled"
    [
      ( "view",
        [
          QCheck_alcotest.to_alcotest prop_compiled_matches_network;
          QCheck_alcotest.to_alcotest prop_component_views;
          Alcotest.test_case "compile is memoized" `Quick test_compile_memoized;
          Alcotest.test_case "bitset rows" `Quick test_bitset_rows;
          QCheck_alcotest.to_alcotest prop_lset_extremes;
        ] );
      ("engines", engine_props);
      ( "preprocessing",
        [
          QCheck_alcotest.to_alcotest prop_preprocessing_sound;
          QCheck_alcotest.to_alcotest prop_ac2001_matches_ac3;
        ] );
    ]
