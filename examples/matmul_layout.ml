(* Matrix-multiplication chain: the motivating kernel for combined loop
   and data layout optimization.

   Builds D = A * B * C (via a temporary), extracts the constraint
   network, solves it with the enhanced scheme, and simulates the code on
   the paper's embedded cache hierarchy before and after optimization.

   Run with: dune exec examples/matmul_layout.exe *)

module Kernels = Mlo_workloads.Kernels
module Program = Mlo_ir.Program
module Layout = Mlo_layout.Layout
module Optimizer = Mlo_core.Optimizer
module Simulate = Mlo_cachesim.Simulate

let build_chain ~n =
  let init_t, req0 = Kernels.fill ~name:"init_t" ~n ~dst:"T" in
  let mm1, req1 = Kernels.matmul ~name:"mm1" ~n ~c:"T" ~a:"A" ~b:"B" in
  let init_d, req2 = Kernels.fill ~name:"init_d" ~n ~dst:"D" in
  let mm2, req3 = Kernels.matmul ~name:"mm2" ~n ~c:"D" ~a:"T" ~b:"C" in
  let arrays = Kernels.declare (req0 @ req1 @ req2 @ req3) in
  Program.make ~name:"matmul-chain" arrays [ init_t; mm1; init_d; mm2 ]

let () =
  let n = 64 in
  let prog = build_chain ~n in
  Format.printf "Program (n = %d):@.%a@.@." n Program.pp prog;

  let original = Optimizer.simulate_original prog in
  Format.printf "original  : %a@." Simulate.pp_report original;

  let sol = Optimizer.optimize (Optimizer.Enhanced 1) prog in
  Format.printf "@.Chosen layouts:@.";
  List.iter
    (fun (name, layout) ->
      Format.printf "  %-3s %-14s %a@." name (Layout.describe layout) Layout.pp
        layout)
    sol.Optimizer.layouts;

  let optimized = Optimizer.simulate sol in
  Format.printf "@.optimized : %a@." Simulate.pp_report optimized;
  Format.printf "improvement: %.2f%% (speedup %.2fx)@."
    (Simulate.improvement_percent ~baseline:original optimized)
    (float_of_int (Simulate.cycles original)
    /. float_of_int (Simulate.cycles optimized))
