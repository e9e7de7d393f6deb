module Network = Mlo_csp.Network
module Rng = Mlo_csp.Rng
module B = Mlo_ir.Builder
module Program = Mlo_ir.Program
module Array_info = Mlo_ir.Array_info
module Spec = Mlo_workloads.Spec
module Select = Mlo_netgen.Select
module Simulate = Mlo_cachesim.Simulate
module Hierarchy = Mlo_cachesim.Hierarchy

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

let dumb_verify net a =
  let n = Network.num_vars net in
  let in_range i v = v >= 0 && v < Network.domain_size net i in
  Array.length a = n
  && List.for_all (fun i -> in_range i a.(i)) (List.init n Fun.id)
  && List.for_all
       (fun (i, j) -> Network.allowed net i a.(i) j a.(j))
       (Network.constraint_pairs net)

let simulated_cycles spec layouts =
  let lookup n = List.assoc_opt n layouts in
  let restructured = Select.restructure spec.Spec.sim_program lookup in
  (Simulate.run restructured ~layouts:lookup).Simulate.counters
    .Hierarchy.cycles

let fig2_program ~n =
  let x = B.ctx [ "i1"; "i2" ] in
  let i1 = B.var x "i1" and i2 = B.var x "i2" in
  let nest =
    B.nest "fig2" x [ n; n ]
      B.[ read "Q1" [ i1 +: i2; i2 ]; read "Q2" [ i1 +: i2; i1 ] ]
  in
  Program.make ~name:"fig2"
    [
      Array_info.make "Q1" [ (2 * n) - 1; n ];
      Array_info.make "Q2" [ (2 * n) - 1; n ];
    ]
    [ nest ]
