(* Support-layer hardening: the monotonic clock, and idempotence of
   arc-consistency preprocessing. *)

module Clock = Mlo_csp.Clock
module Network = Mlo_csp.Network
module Ac2001 = Mlo_csp.Ac2001
module Ac3 = Mlo_oracle.Ac3
module Bitset = Mlo_csp.Bitset
module Fixtures = Mlo_oracle.Fixtures

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
  (* burn a little CPU so the clock must advance *)
  let acc = ref 0 in
  for i = 1 to 2_000_000 do
    acc := !acc + i
  done;
  ignore (Sys.opaque_identity !acc);
  Alcotest.(check bool) "wall_s advanced" true (Clock.wall_s () > t0)

(* ------------------------------------------------------------------ *)
(* AC idempotence                                                       *)
(* ------------------------------------------------------------------ *)

(* ac(ac(n)) = ac(n): restricting a network to its arc-consistent
   domains and re-running arc consistency must remove nothing more. *)
let prop_ac_idempotent name ac =
  QCheck.Test.make
    ~name:(Printf.sprintf "%s is idempotent" name)
    ~count:300 QCheck.small_nat (fun seed ->
      let net = Fixtures.random_network seed in
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
