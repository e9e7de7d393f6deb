(* Gap-filling coverage: the Explain report, solver statistics, weighted
   search bounding, direct propagation primitives, and assorted printers
   and invariants not exercised elsewhere. *)

module Network = Mlo_csp.Network
module Solver = Mlo_csp.Solver
module Weighted = Mlo_csp.Weighted
module Ac3 = Mlo_oracle.Ac3
module Bitset = Mlo_csp.Bitset
module Stats = Mlo_csp.Stats
module Rng = Mlo_csp.Rng
module B = Mlo_ir.Builder
module Program = Mlo_ir.Program
module Array_info = Mlo_ir.Array_info
module Cost = Mlo_ir.Cost
module Layout = Mlo_layout.Layout
module Optimizer = Mlo_core.Optimizer
module Explain = Mlo_core.Explain
module Fixtures = Mlo_oracle.Fixtures

(* ------------------------------------------------------------------ *)
(* Explain                                                              *)
(* ------------------------------------------------------------------ *)

let test_explain_all_served () =
  let prog = Fixtures.fig2_program ~n:8 in
  let sol = Optimizer.optimize (Optimizer.Enhanced 1) prog in
  let report = Explain.explain prog sol in
  Alcotest.(check (float 1e-9)) "fully served" 1.0 report.Explain.served_fraction;
  (match report.Explain.nests with
  | [ nr ] ->
    Alcotest.(check bool) "identity order kept" false nr.Explain.interchanged;
    Alcotest.(check int) "two refs" 2 (List.length nr.Explain.refs);
    List.iter
      (fun r ->
        match r.Explain.quality with
        | Explain.Spatial -> ()
        | Explain.Temporal | Explain.Unserved _ ->
          Alcotest.fail "figure 2 refs are spatial under the solution")
      nr.Explain.refs
  | _ -> Alcotest.fail "one nest expected");
  (* the report renders *)
  Alcotest.(check bool) "pp non-empty" true
    (String.length (Format.asprintf "%a" Explain.pp report) > 50)

let test_explain_flags_unserved () =
  (* force a bad layout: all row-major on a column-walking program *)
  let x = B.ctx [ "j"; "i" ] in
  let j = B.var x "j" and i = B.var x "i" in
  let nest = B.nest "colwalk" x [ 8; 8 ] [ B.read "M" [ i; j ] ] in
  let prog =
    Program.make ~name:"p" [ Array_info.make "M" [ 8; 8 ] ] [ nest ]
  in
  (* interchange would fix this, so pin it with a fake dependence-free
     report: explain against a hand-made solution that keeps the order *)
  let sol =
    {
      Optimizer.layouts = [ ("M", Layout.row_major 2) ];
      restructured = prog;
      solver_stats = None;
      heuristic_evaluations = None;
      pruned_values = None;
      objective_value = None;
      elapsed_s = 0.;
    }
  in
  let report = Explain.explain prog sol in
  Alcotest.(check (float 1e-9)) "nothing served" 0.0 report.Explain.served_fraction;
  match report.Explain.nests with
  | [ { Explain.refs = [ { Explain.quality = Explain.Unserved d; _ } ]; _ } ] ->
    Alcotest.(check bool) "stride is e1" true (d = [| 1; 0 |])
  | _ -> Alcotest.fail "expected one unserved ref"

(* ------------------------------------------------------------------ *)
(* Solver statistics                                                    *)
(* ------------------------------------------------------------------ *)

let chain_network k =
  (* v0 - v1 - ... - v_{k-1} with equality constraints: forces depth k *)
  let names = Array.init k (fun i -> Printf.sprintf "v%d" i) in
  let domains = Array.make k [| 0; 1 |] in
  let net = Network.create ~names ~domains in
  for i = 0 to k - 2 do
    Network.add_allowed net i (i + 1) [ (0, 0); (1, 1) ]
  done;
  net

let test_solver_max_depth () =
  let net = chain_network 6 in
  let r = Solver.solve net in
  (match r.Solver.outcome with
  | Solver.Solution _ -> ()
  | _ -> Alcotest.fail "chain is satisfiable");
  Alcotest.(check int) "max depth reaches the last level" 5
    r.Solver.stats.Stats.max_depth

(* ------------------------------------------------------------------ *)
(* Weighted bounding                                                    *)
(* ------------------------------------------------------------------ *)

let test_weighted_max_nodes () =
  let net = chain_network 8 in
  let w = Weighted.create net in
  let full = Weighted.solve w in
  Alcotest.(check bool) "unbounded finds optimum" true (full.Weighted.best <> None);
  let capped = Weighted.solve ~max_nodes:1 w in
  Alcotest.(check bool) "cap respected" true (capped.Weighted.nodes <= 2)

(* ------------------------------------------------------------------ *)
(* Propagation primitives                                               *)
(* ------------------------------------------------------------------ *)

let test_revise_direct () =
  let net =
    Network.create ~names:[| "a"; "b" |] ~domains:[| [| 0; 1; 2 |]; [| 0; 1 |] |]
  in
  Network.add_allowed net 0 1 [ (0, 0); (1, 1) ];
  let domains = [| Bitset.create_full 3; Bitset.create_full 2 |] in
  Alcotest.(check bool) "revise removes value 2 of a" true
    (Ac3.revise net domains 0 1);
  Alcotest.(check (list int)) "a reduced" [ 0; 1 ] (Bitset.to_list domains.(0));
  Alcotest.(check bool) "second revise is a no-op" false
    (Ac3.revise net domains 0 1);
  (* unconstrained pair: no-op *)
  let net2 = Network.create ~names:[| "a"; "b" |] ~domains:[| [| 0 |]; [| 0 |] |] in
  let d2 = [| Bitset.create_full 1; Bitset.create_full 1 |] in
  Alcotest.(check bool) "unconstrained no-op" false (Ac3.revise net2 d2 0 1)

(* ------------------------------------------------------------------ *)
(* Misc invariants                                                      *)
(* ------------------------------------------------------------------ *)

let test_cost_weights_sum () =
  let spec = Mlo_workloads.Suite.by_name "mxm" in
  let weights = Cost.nest_weights spec.Mlo_workloads.Spec.program in
  let sum = Array.fold_left ( +. ) 0. weights in
  Alcotest.(check (float 1e-9)) "weights sum to 1" 1.0 sum

let test_rng_split_decorrelated () =
  let parent = Rng.create 5 in
  let child = Rng.split parent in
  let a = List.init 16 (fun _ -> Rng.int parent 1000) in
  let b = List.init 16 (fun _ -> Rng.int child 1000) in
  Alcotest.(check bool) "streams differ" true (a <> b)

let test_printer_smoke () =
  let prog = Fixtures.fig2_program ~n:4 in
  let s = Format.asprintf "%a" Program.pp prog in
  Alcotest.(check bool) "program pp mentions arrays" true
    (String.length s > 40);
  let nest = (Program.nests prog).(0) in
  let s2 = Format.asprintf "%a" Mlo_ir.Loop_nest.pp nest in
  Alcotest.(check bool) "nest pp mentions for" true
    (String.length s2 > 20)

let test_network_relation_view () =
  let net =
    Network.create ~names:[| "a"; "b" |] ~domains:[| [| 0; 1 |]; [| 0; 1; 2 |] |]
  in
  Network.add_allowed net 1 0 [ (2, 1) ];
  (* stored once, as the support rows of both directions *)
  Alcotest.(check bool) "pair visible" true
    (Mlo_csp.Bitset.row_mem (Network.supports net 0 1).(1) 2);
  Alcotest.(check bool) "reverse view" true
    (Mlo_csp.Bitset.row_mem (Network.supports net 1 0).(2) 1)

let test_transform_expansion_reported () =
  let t =
    Mlo_layout.Transform.make Mlo_layout.Layout.diagonal2 ~extents:[| 8; 8 |]
  in
  let s = Format.asprintf "%a" Mlo_layout.Transform.pp t in
  Alcotest.(check bool) "pp shows expansion" true (String.length s > 20);
  Alcotest.(check bool) "cells >= original" true
    (Mlo_layout.Transform.footprint_cells t >= Mlo_layout.Transform.original_cells t)

let () =
  Alcotest.run "extra"
    [
      ( "explain",
        [
          Alcotest.test_case "fully served program" `Quick test_explain_all_served;
          Alcotest.test_case "flags unserved refs" `Quick
            test_explain_flags_unserved;
        ] );
      ( "stats",
        [
          Alcotest.test_case "max depth" `Quick test_solver_max_depth;
        ] );
      ( "weighted",
        [ Alcotest.test_case "node cap" `Quick test_weighted_max_nodes ] );
      ( "propagation",
        [ Alcotest.test_case "revise" `Quick test_revise_direct ] );
      ( "misc",
        [
          Alcotest.test_case "cost weights sum to one" `Quick test_cost_weights_sum;
          Alcotest.test_case "rng split" `Quick test_rng_split_decorrelated;
          Alcotest.test_case "printers" `Quick test_printer_smoke;
          Alcotest.test_case "relation views" `Quick test_network_relation_view;
          Alcotest.test_case "transform expansion" `Quick
            test_transform_expansion_reported;
        ] );
    ]
