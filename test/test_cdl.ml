(* Conflict-driven solving: agreement, nogood soundness, store bounds.

   The cdl scheme changes the search order, learns nogoods and restarts,
   but none of that may change the one thing that matters: whether a
   consistent layout assignment exists.  Beyond the usual cross-scheme
   agreement, every nogood the engine learns is pinned against the
   brute-forced solution set of the original network — a learned nogood
   claims "no solution holds all these assignments", so a solution
   holding them all would prove the learning machinery unsound. *)

module Network = Mlo_csp.Network
module Solver = Mlo_csp.Solver
module Cdl = Mlo_csp.Cdl
module Nogood = Mlo_csp.Nogood
module Brute = Mlo_oracle.Brute
module Rng = Mlo_csp.Rng
module Stats = Mlo_csp.Stats
module Fixtures = Mlo_oracle.Fixtures

(* Configurations that stress different parts of the machinery: the
   default, a restart-happy one (budget of 1 conflict forces a restart
   at nearly every dead end), and a forgetful one (store capped at 2
   nogoods, so reduction runs constantly). *)
let cdl_configs =
  [
    ("cdl", Cdl.default_config);
    ( "cdl-restartful",
      { Cdl.default_config with Cdl.restarts = 20; restart_base = 1 } );
    ("cdl-forgetful", { Cdl.default_config with Cdl.learn_limit = 2 });
  ]

let prop_cdl_agrees =
  QCheck.Test.make ~name:"cdl agrees with Brute on satisfiability"
    ~count:300 QCheck.small_nat (fun seed ->
      let net = Fixtures.random_network seed in
      let expected = Brute.is_satisfiable net in
      List.for_all
        (fun (label, config) ->
          match (Cdl.solve ~config net).Solver.outcome with
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
        cdl_configs)

(* Nogood soundness: a learned nogood states that no solution of the
   original network holds all its literals, so every brute-forced
   solution must miss at least one of them.  Checked for every nogood
   learned over the whole search, including unit bans. *)
let prop_nogoods_sound =
  QCheck.Test.make ~name:"every learned nogood excludes no solution"
    ~count:300 QCheck.small_nat (fun seed ->
      let net = Fixtures.random_network seed in
      let learned = ref [] in
      let comp = Network.compile net in
      let r =
        Cdl.solve_compiled
          ~config:
            { Cdl.default_config with Cdl.restarts = 10; restart_base = 2 }
          ~on_event:(function
            | Solver.Learned { lits; _ } -> learned := lits :: !learned
            | Solver.Incumbent _ | Solver.Finished _ -> ())
          comp
      in
      (match r.Solver.outcome with
      | Solver.Aborted -> QCheck.Test.fail_report "aborted without budget"
      | _ -> ());
      let solutions = Brute.all_solutions net in
      List.for_all
        (fun lits ->
          List.for_all
            (fun sol ->
              let held = Array.for_all (fun (v, w) -> sol.(v) = w) lits in
              if held then
                QCheck.Test.fail_reportf
                  "a satisfying assignment holds all %d literals of a \
                   learned nogood"
                  (Array.length lits);
              true)
            solutions)
        !learned)

(* Unit-ban soundness across forgetting: single-literal nogoods become
   permanent per-variable bans that survive every reduce and restart, so
   a wrong one silently poisons the whole remaining search.  Run the
   engine with aggressive forgetting (store limit 2) and restarting,
   collect every unit nogood it commits to, and demand that the
   brute-forced solution set of the original network never contradicts a
   ban — and that the bans are indeed still held by a store squeezed
   down to its minimum. *)
let prop_unit_bans_sound =
  QCheck.Test.make
    ~name:"unit bans retained across forgetting exclude no solution"
    ~count:300 QCheck.small_nat (fun seed ->
      let net = Fixtures.random_network seed in
      let comp = Network.compile net in
      let units = ref [] in
      let config =
        { Cdl.default_config with
          Cdl.restarts = 10;
          restart_base = 1;
          learn_limit = 2 }
      in
      let r =
        Cdl.solve_compiled ~config
          ~on_event:(function
            | Solver.Learned { lits; _ } when Array.length lits = 1 ->
              units := lits.(0) :: !units
            | Solver.Learned _ | Solver.Incumbent _ | Solver.Finished _ -> ())
          comp
      in
      (match r.Solver.outcome with
      | Solver.Aborted -> QCheck.Test.fail_report "aborted without budget"
      | _ -> ());
      let solutions = Brute.all_solutions net in
      List.iter
        (fun (v, w) ->
          List.iter
            (fun sol ->
              if sol.(v) = w then
                QCheck.Test.fail_reportf
                  "unit ban v%d<>%d excludes a satisfying assignment" v w)
            solutions)
        !units;
      (* store-level retention: replay the same bans through a store that
         is then forgotten down to nothing — [banned] must still hold. *)
      let store = Nogood.create ~limit:2 comp in
      List.iter
        (fun (v, w) -> Nogood.ban store ~var:v ~value:w)
        !units;
      Nogood.reduce store ~limit:2;
      List.for_all (fun (v, w) -> Nogood.banned store v w) !units)

(* Restart and forgetting bookkeeping: restarts never exceed the
   configured cap, learned counts the nogoods reported, and the learned /
   forgotten counters are consistent. *)
let prop_restart_stats =
  QCheck.Test.make ~name:"restart/learn/forget counters are consistent"
    ~count:300 QCheck.small_nat (fun seed ->
      let net = Fixtures.random_network seed in
      let config =
        { Cdl.default_config with Cdl.restarts = 5; restart_base = 1;
          learn_limit = 4 }
      in
      let seen = ref 0 in
      let r =
        Cdl.solve_compiled ~config
          ~on_event:(function
            | Solver.Learned _ -> incr seen
            | Solver.Incumbent _ | Solver.Finished _ -> ())
          (Network.compile net)
      in
      let s = r.Solver.stats in
      s.Stats.restarts <= config.Cdl.restarts
      && s.Stats.learned = !seen
      && s.Stats.forgotten <= s.Stats.learned
      && s.Stats.forgotten >= 0)

(* The store bound is a hard invariant: however many nogoods are learned
   and whatever sizes they have, [Nogood.size] never exceeds the limit
   (driven directly through the store API, with learn bursts well past
   the cap). *)
let prop_store_bounded =
  QCheck.Test.make ~name:"nogood store never exceeds its limit" ~count:100
    QCheck.small_nat (fun seed ->
      let rng = Rng.create (seed + 777) in
      let net = Fixtures.random_network seed in
      let comp = Network.compile net in
      let n = Network.num_vars net in
      let limit = 1 + Rng.int rng 6 in
      let store = Nogood.create ~limit comp in
      for _ = 1 to 200 do
        (* a random nogood over distinct variables at distinct levels *)
        let k = 1 + Rng.int rng n in
        let perm = Rng.shuffled_init rng n in
        let vars = Array.sub perm 0 k in
        let vals =
          Array.map (fun v -> Rng.int rng (Network.domain_size net v)) vars
        in
        let levels = Array.init k Fun.id in
        Nogood.learn store ~n:k ~vars ~vals ~levels;
        if Nogood.size store > max 2 limit then
          QCheck.Test.fail_reportf "store grew to %d (limit %d)"
            (Nogood.size store) limit
      done;
      Nogood.reduce store ~limit:1;
      Nogood.size store <= 1)

(* Clearer variant of the accounting identity: watched nogoods currently
   stored + forgotten = learned - bans, tracked explicitly. *)
let prop_store_accounting =
  QCheck.Test.make ~name:"learned = stored + forgotten + bans" ~count:100
    QCheck.small_nat (fun seed ->
      let rng = Rng.create (seed + 1234) in
      let net = Fixtures.random_network seed in
      let comp = Network.compile net in
      let n = Network.num_vars net in
      let store = Nogood.create ~limit:3 comp in
      let bans = ref 0 in
      let dup_bans = ref 0 in
      let seen_bans = Hashtbl.create 16 in
      for _ = 1 to 100 do
        let k = 1 + Rng.int rng n in
        let perm = Rng.shuffled_init rng n in
        let vars = Array.sub perm 0 k in
        let vals =
          Array.map (fun v -> Rng.int rng (Network.domain_size net v)) vars
        in
        let levels = Array.init k Fun.id in
        if k = 1 then begin
          incr bans;
          let key = (vars.(0), vals.(0)) in
          if Hashtbl.mem seen_bans key then incr dup_bans
          else Hashtbl.add seen_bans key ()
        end;
        Nogood.learn store ~n:k ~vars ~vals ~levels
      done;
      Nogood.learned store
      = Nogood.size store + Nogood.forgotten store + !bans - !dup_bans)

let () =
  Alcotest.run "cdl"
    [
      ( "agreement",
        [
          QCheck_alcotest.to_alcotest prop_cdl_agrees;
          QCheck_alcotest.to_alcotest prop_nogoods_sound;
          QCheck_alcotest.to_alcotest prop_unit_bans_sound;
        ] );
      ( "store",
        [
          QCheck_alcotest.to_alcotest prop_restart_stats;
          QCheck_alcotest.to_alcotest prop_store_bounded;
          QCheck_alcotest.to_alcotest prop_store_accounting;
        ] );
    ]
