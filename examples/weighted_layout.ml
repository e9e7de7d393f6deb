(* Weighted constraints (the paper's first future-work extension).

   When a network has several solutions, the paper's schemes return an
   arbitrary one (its Table 3 shows base and enhanced picking different
   solutions for three benchmarks).  Weighting each allowed pair by the
   cost of the nests that proposed it and maximizing by branch-and-bound
   picks the solution that serves the expensive nests.

   The demo program has two nests over the same arrays whose loop orders
   are pinned by a loop-carried dependence (distance (1 -1), so
   interchange is illegal): the cheap nest wants row-major, the 16x
   costlier nest wants column-major.  The unweighted network accepts
   either agreement; the weighted optimum must side with the costly
   nest.

   Run with: dune exec examples/weighted_layout.exe *)

module B = Mlo_ir.Builder
module Program = Mlo_ir.Program
module Array_info = Mlo_ir.Array_info
module Layout = Mlo_layout.Layout
module Solver = Mlo_csp.Solver
module Schemes = Mlo_csp.Schemes
module Weighted = Mlo_csp.Weighted
module Build = Mlo_netgen.Build
module Simulate = Mlo_cachesim.Simulate

(* read Y[i+1][j]; Y[i][j+1] = ... + X[i][j]: the (1 -1) dependence pins
   the loop order, so only the layouts can adapt. *)
let pinned_nest name ~bound ~transposed =
  let x = B.ctx [ "i"; "j" ] in
  let i = B.var x "i" and j = B.var x "j" in
  let one = B.const x 1 in
  let flip a b = if transposed then [ b; a ] else [ a; b ] in
  B.nest name x [ bound; bound ]
    B.[
      read "X" (flip i j);
      read "Y" (flip (i +: one) j);
      write "Y" (flip i (j +: one));
    ]

let program ~n =
  Program.make ~name:"weighted-demo"
    [ Array_info.make "X" [ n + 1; n + 1 ]; Array_info.make "Y" [ n + 1; n + 1 ] ]
    [
      pinned_nest "cheap_rowwise" ~bound:(n / 4) ~transposed:false;
      pinned_nest "costly_colwise" ~bound:n ~transposed:true;
    ]

let pp_layouts build assignment =
  List.iter
    (fun (name, layout) ->
      Format.printf "  %-3s %s@." name (Layout.describe layout))
    (Build.assignment_layouts build assignment)

let () =
  let n = 96 in
  let prog = program ~n in
  let build, weighted = Build.weighted prog in
  let net = build.Build.network in
  (* simulate each solution, restructured, to show the weights are real *)
  let show sol =
    let layouts name = Build.lookup build sol name in
    let restructured = Mlo_netgen.Select.restructure prog layouts in
    pp_layouts build sol;
    Format.printf "  runs in %d cycles@."
      (Simulate.cycles (Simulate.run restructured ~layouts))
  in

  print_endline "Unweighted enhanced-scheme solution (arbitrary among solutions):";
  (match Solver.solve ~config:(Schemes.enhanced ()) net with
  | { Solver.outcome = Solver.Solution a; _ } -> show a
  | _ -> print_endline "  no solution");

  print_endline "Weighted branch-and-bound optimum (favors the costly nest):";
  match (Weighted.solve weighted).Weighted.best with
  | Some (a, w) ->
    show a;
    Format.printf "  total weight: %.0f@." w
  | None -> print_endline "  no solution"
