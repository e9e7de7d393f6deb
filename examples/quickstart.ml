(* Quickstart: the paper's two worked examples, end to end.

   1. Figure 2's loop nest - derive the best memory layouts for Q1 and Q2
      directly from the access pattern.
   2. Section 3's four-array constraint network - build it by hand and
      solve it with both of the paper's schemes.

   Run with: dune exec examples/quickstart.exe *)

module B = Mlo_ir.Builder
module Program = Mlo_ir.Program
module Layout = Mlo_layout.Layout
module Locality = Mlo_layout.Locality
module Network = Mlo_csp.Network
module Solver = Mlo_csp.Solver
module Schemes = Mlo_csp.Schemes
module Build = Mlo_netgen.Build

(* ------------------------------------------------------------------ *)
(* Part 1: Figure 2                                                     *)
(* ------------------------------------------------------------------ *)

let figure2 () =
  print_endline "=== Paper Figure 2: for i1, i2: ... Q1[i1+i2][i2] ... Q2[i1+i2][i1] ...";
  let n = 64 in
  let x = B.ctx [ "i1"; "i2" ] in
  let i1 = B.var x "i1" and i2 = B.var x "i2" in
  let nest =
    B.nest "fig2" x [ n; n ]
      B.[ read "Q1" [ i1 +: i2; i2 ]; read "Q2" [ i1 +: i2; i1 ] ]
  in
  let q1 = Mlo_ir.Array_info.make "Q1" [ (2 * n) - 1; n ] in
  let q2 = Mlo_ir.Array_info.make "Q2" [ (2 * n) - 1; n ] in
  let prog = Program.make ~name:"fig2" [ q1; q2 ] [ nest ] in
  (* derive each reference's preferred layout directly *)
  Array.iter
    (fun acc ->
      match Locality.preferred_layout acc with
      | Some layout ->
        Format.printf "  %s prefers %s %a@."
          (Mlo_ir.Access.array_name acc)
          (Layout.describe layout) Layout.pp layout
      | None ->
        Format.printf "  %s has temporal reuse: any layout works@."
          (Mlo_ir.Access.array_name acc))
    (Mlo_ir.Loop_nest.accesses nest);
  (* and through the whole pipeline *)
  let build = Build.build prog in
  match Solver.solve_values build.Build.network with
  | Some (layouts, _) ->
    Array.iteri
      (fun i l ->
        Format.printf "  network solution: %s -> %s@."
          (Network.name build.Build.network i)
          (Layout.describe l))
      layouts
  | None -> print_endline "  unexpected: no solution"

(* ------------------------------------------------------------------ *)
(* Part 2: the Section 3 network                                        *)
(* ------------------------------------------------------------------ *)

let section3 () =
  print_endline "=== Paper Section 3: the four-array constraint network";
  let h coeffs = Layout.of_hyperplane (Mlo_layout.Hyperplane.of_list coeffs) in
  let net =
    Network.create
      ~names:[| "Q1"; "Q2"; "Q3"; "Q4" |]
      ~domains:
        [|
          [| h [ 1; 0 ]; h [ 0; 1 ]; h [ 1; 1 ] |];
          [| h [ 1; -1 ]; h [ 1; 1 ] |];
          [| h [ 0; 1 ]; h [ 1; 1 ]; h [ 1; 2 ] |];
          [| h [ 1; 0 ]; h [ 0; 1 ]; h [ 1; 1 ] |];
        |]
  in
  Network.add_allowed net 0 1 [ (0, 1); (1, 0) ];
  Network.add_allowed net 0 2 [ (0, 0); (1, 1); (2, 2) ];
  Network.add_allowed net 0 3 [ (0, 0); (1, 1) ];
  Network.add_allowed net 1 2 [ (1, 0); (0, 1) ];
  Network.add_allowed net 1 3 [ (1, 0) ];
  Network.add_allowed net 2 3 [ (0, 0) ];
  List.iter
    (fun (label, config) ->
      match Solver.solve ~config net with
      | { Solver.outcome = Solver.Solution a; stats; _ } ->
        Format.printf "  %-8s finds:" label;
        Array.iteri
          (fun i v ->
            Format.printf " %s=%s" (Network.name net i)
              (Layout.describe (Network.value net i v)))
          a;
        Format.printf "  (%a)@." Mlo_csp.Stats.pp stats
      | { Solver.outcome = Solver.Unsatisfiable | Solver.Aborted; _ } ->
        Format.printf "  %-8s: no solution?!@." label)
    [ ("base", Schemes.base ~seed:42 ()); ("enhanced", Schemes.enhanced ()) ]

let () =
  figure2 ();
  print_newline ();
  section3 ()
