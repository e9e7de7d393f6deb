(* Support-layer hardening: Stats arithmetic and JSON export, the
   monotonic clock, and idempotence of arc-consistency preprocessing. *)

module Stats = Mlo_csp.Stats
module Clock = Mlo_csp.Clock
module Network = Mlo_csp.Network
module Ac2001 = Mlo_csp.Ac2001
module Ac3 = Mlo_oracle.Ac3
module Bitset = Mlo_csp.Bitset
module Rng = Mlo_csp.Rng
module Json = Mlo_obs.Json

(* ------------------------------------------------------------------ *)
(* Stats                                                                *)
(* ------------------------------------------------------------------ *)

let stats_gen =
  QCheck.Gen.(
    let nat = int_bound 10_000 in
    let hist = array_size (int_bound 6) nat in
    map
      (fun (((n, c, bt), (bj, pr, d)), (hd, hv)) ->
        let s = Stats.create () in
        s.Stats.nodes <- n;
        s.Stats.checks <- c;
        s.Stats.backtracks <- bt;
        s.Stats.backjumps <- bj;
        s.Stats.prunings <- pr;
        s.Stats.max_depth <- d;
        s.Stats.elapsed_s <- float_of_int n /. 7.;
        s.Stats.cpu_s <- float_of_int c /. 11.;
        s.Stats.nodes_by_depth <- hd;
        s.Stats.nodes_by_var <- hv;
        s)
      (pair (pair (triple nat nat nat) (triple nat nat nat)) (pair hist hist)))

let arbitrary_stats = QCheck.make ~print:(Fmt.to_to_string Stats.pp) stats_gen

let hist_at a i = if i < Array.length a then a.(i) else 0

let prop_add_componentwise =
  QCheck.Test.make ~name:"Stats.add sums componentwise" ~count:200
    (QCheck.pair arbitrary_stats arbitrary_stats) (fun (a, b) ->
      let s = Stats.add a b in
      s.Stats.nodes = a.Stats.nodes + b.Stats.nodes
      && s.Stats.checks = a.Stats.checks + b.Stats.checks
      && s.Stats.backtracks = a.Stats.backtracks + b.Stats.backtracks
      && s.Stats.backjumps = a.Stats.backjumps + b.Stats.backjumps
      && s.Stats.prunings = a.Stats.prunings + b.Stats.prunings
      && s.Stats.max_depth = max a.Stats.max_depth b.Stats.max_depth
      && Array.length s.Stats.nodes_by_depth
         = max
             (Array.length a.Stats.nodes_by_depth)
             (Array.length b.Stats.nodes_by_depth)
      && List.for_all
           (fun i ->
             hist_at s.Stats.nodes_by_depth i
             = hist_at a.Stats.nodes_by_depth i
               + hist_at b.Stats.nodes_by_depth i
             && hist_at s.Stats.nodes_by_var i
                = hist_at a.Stats.nodes_by_var i
                  + hist_at b.Stats.nodes_by_var i)
           (List.init 8 Fun.id))

let prop_add_zero_identity =
  QCheck.Test.make ~name:"Stats.add with a fresh stats is the identity"
    ~count:200 arbitrary_stats (fun a ->
      let s = Stats.add a (Stats.create ()) in
      Stats.to_json s = Stats.to_json a)

let prop_reset_is_fresh =
  QCheck.Test.make ~name:"Stats.reset round-trips to create" ~count:200
    arbitrary_stats (fun a ->
      Stats.reset a;
      Stats.to_json a = Stats.to_json (Stats.create ()))

let test_ensure_hists () =
  let s = Stats.create () in
  Stats.ensure_hists s 4;
  Alcotest.(check int) "sized" 4 (Array.length s.Stats.nodes_by_depth);
  s.Stats.nodes_by_depth.(3) <- 9;
  Stats.ensure_hists s 2;
  Alcotest.(check int) "never shrinks" 4 (Array.length s.Stats.nodes_by_depth);
  Stats.ensure_hists s 6;
  Alcotest.(check int) "grows" 6 (Array.length s.Stats.nodes_by_depth);
  Alcotest.(check int) "growth preserves contents" 9
    s.Stats.nodes_by_depth.(3);
  Alcotest.(check int) "new slots are zero" 0 s.Stats.nodes_by_depth.(5)

let test_to_json_shape () =
  let s = Stats.create () in
  s.Stats.nodes <- 12;
  s.Stats.checks <- 34;
  s.Stats.nodes_by_depth <- [| 5; 7 |];
  let j = Stats.to_json s in
  let num key =
    match Option.bind (Json.member key j) Json.to_float with
    | Some f -> f
    | None -> Alcotest.failf "missing numeric field %s" key
  in
  List.iter
    (fun (key, v) -> Alcotest.(check (float 0.)) key v (num key))
    [
      ("nodes", 12.); ("checks", 34.); ("backtracks", 0.); ("backjumps", 0.);
      ("prunings", 0.); ("max_depth", 0.); ("elapsed_s", 0.); ("cpu_s", 0.);
    ];
  (match Option.bind (Json.member "nodes_by_depth" j) Json.to_list with
  | Some [ Json.Num 5.; Json.Num 7. ] -> ()
  | _ -> Alcotest.fail "nodes_by_depth should be the array [5,7]");
  (* the export is valid JSON and survives a parse round-trip *)
  match Json.parse (Json.to_string j) with
  | Ok j' -> Alcotest.(check bool) "round-trip" true (j = j')
  | Error e -> Alcotest.failf "Stats.to_json did not parse: %s" e

(* ------------------------------------------------------------------ *)
(* Clock                                                                *)
(* ------------------------------------------------------------------ *)

let test_clock_monotone () =
  let prev = ref (Clock.wall_ns ()) in
  for _ = 1 to 1000 do
    let now = Clock.wall_ns () in
    if now < !prev then Alcotest.fail "wall_ns went backwards";
    prev := now
  done;
  let t0 = Clock.wall_s () in
  let c0 = Clock.cpu_s () in
  (* burn a little CPU so both clocks must advance *)
  let acc = ref 0 in
  for i = 1 to 2_000_000 do
    acc := !acc + i
  done;
  ignore (Sys.opaque_identity !acc);
  Alcotest.(check bool) "wall_s advanced" true (Clock.wall_s () > t0);
  Alcotest.(check bool) "cpu_s advanced" true (Clock.cpu_s () > c0)

(* ------------------------------------------------------------------ *)
(* AC idempotence                                                       *)
(* ------------------------------------------------------------------ *)

(* Same generator family as test_compiled / test_schemes. *)
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

(* ac(ac(n)) = ac(n): restricting a network to its arc-consistent
   domains and re-running arc consistency must remove nothing more. *)
let prop_ac_idempotent name ac =
  QCheck.Test.make
    ~name:(Printf.sprintf "%s is idempotent" name)
    ~count:300 QCheck.small_nat (fun seed ->
      let net = random_network seed in
      match ac net with
      | Error _ -> true
      | Ok doms ->
        let net' =
          Network.restrict_domains net
            (Array.map
               (fun d -> Array.init (Bitset.capacity d) (Bitset.mem d))
               doms)
        in
        (match ac net' with
        | Error v ->
          QCheck.Test.fail_reportf
            "second pass wiped variable %d of an already-consistent network"
            v
        | Ok doms' ->
          List.for_all
            (fun i ->
              Bitset.count doms'.(i) = Network.domain_size net' i)
            (List.init (Network.num_vars net') Fun.id)))

let () =
  Alcotest.run "support"
    [
      ( "stats",
        [
          QCheck_alcotest.to_alcotest prop_add_componentwise;
          QCheck_alcotest.to_alcotest prop_add_zero_identity;
          QCheck_alcotest.to_alcotest prop_reset_is_fresh;
          Alcotest.test_case "ensure_hists" `Quick test_ensure_hists;
          Alcotest.test_case "to_json shape" `Quick test_to_json_shape;
        ] );
      ("clock", [ Alcotest.test_case "monotone" `Quick test_clock_monotone ]);
      ( "arc-consistency",
        [
          QCheck_alcotest.to_alcotest
            (prop_ac_idempotent "AC-3" Ac3.run);
          QCheck_alcotest.to_alcotest
            (prop_ac_idempotent "AC-2001" (fun net ->
                 Ac2001.run (Network.compile net)));
        ] );
    ]
