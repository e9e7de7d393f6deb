(* Tests for the benchmark suite: Table-1 invariants, generator
   guarantees, kernels and candidate palettes. *)

module Spec = Mlo_workloads.Spec
module Suite = Mlo_workloads.Suite
module Kernels = Mlo_workloads.Kernels
module Candidates = Mlo_workloads.Candidates
module Random_program = Mlo_workloads.Random_program
module Program = Mlo_ir.Program
module Array_info = Mlo_ir.Array_info
module Loop_nest = Mlo_ir.Loop_nest
module Layout = Mlo_layout.Layout
module Network = Mlo_csp.Network
module Build = Mlo_netgen.Build

(* ------------------------------------------------------------------ *)
(* Table 1 invariants                                                   *)
(* ------------------------------------------------------------------ *)

let test_suite_complete () =
  let names = List.map (fun s -> s.Spec.name) (Suite.all ()) in
  Alcotest.(check (list string)) "Table 1 order"
    [ "Med-Im04"; "MxM"; "Radar"; "Shape"; "Track" ]
    names

let test_domain_sizes_match_paper () =
  List.iter
    (fun spec ->
      let b = Spec.extract spec in
      Alcotest.(check int)
        (spec.Spec.name ^ " domain size")
        spec.Spec.paper_domain_size
        (Network.total_domain_size b.Build.network))
    (Suite.all ())

let test_data_sizes_close_to_paper () =
  List.iter
    (fun spec ->
      let measured = Spec.data_kb spec in
      let target = spec.Spec.paper_data_kb in
      let ratio = measured /. target in
      Alcotest.(check bool)
        (Printf.sprintf "%s data %.2fKB within 25%% of %.2fKB" spec.Spec.name
           measured target)
        true
        (ratio > 0.75 && ratio < 1.25))
    (Suite.all ())

let test_networks_satisfiable () =
  List.iter
    (fun spec ->
      let b = Spec.extract spec in
      match
        Mlo_csp.Solver.solve ~config:(Mlo_csp.Schemes.enhanced ())
          b.Build.network
      with
      | { Mlo_csp.Solver.outcome = Mlo_csp.Solver.Solution a; _ } ->
        Alcotest.(check bool)
          (spec.Spec.name ^ " verifies")
          true
          (Network.verify b.Build.network a)
      | _ -> Alcotest.fail (spec.Spec.name ^ ": expected a solution"))
    (Suite.all ())

let test_by_name () =
  Alcotest.(check string) "case-insensitive" "MxM" (Suite.by_name "MXM").Spec.name;
  Alcotest.check_raises "unknown" Not_found (fun () ->
      ignore (Suite.by_name "nope"))

(* [by_name] builds only the workload it names; what it builds must be
   the spec [all ()] holds: the same programs and the same network. *)
let test_by_name_builds_the_suite_spec () =
  List.iter
    (fun spec ->
      let name = spec.Spec.name in
      let found = Suite.by_name (String.lowercase_ascii name) in
      Alcotest.(check string) (name ^ " name") name found.Spec.name;
      Alcotest.(check string)
        (name ^ " program")
        (Mlo_lang.Parser.to_source spec.Spec.program)
        (Mlo_lang.Parser.to_source found.Spec.program);
      Alcotest.(check string)
        (name ^ " sim program")
        (Mlo_lang.Parser.to_source spec.Spec.sim_program)
        (Mlo_lang.Parser.to_source found.Spec.sim_program);
      Alcotest.(check string)
        (name ^ " network digest")
        (Mlo_verify.Proof.digest (Spec.extract spec).Build.network)
        (Mlo_verify.Proof.digest (Spec.extract found).Build.network))
    (Suite.all ());
  Alcotest.(check string) "a synthetic family" "scale-10"
    (Suite.by_name "Scale-10").Spec.name;
  Alcotest.check_raises "an empty family" Not_found (fun () ->
      ignore (Suite.by_name "scale-0"))

let test_sim_programs_structurally_equal () =
  List.iter
    (fun spec ->
      Alcotest.(check int)
        (spec.Spec.name ^ " same nest count")
        (Array.length (Program.nests spec.Spec.program))
        (Array.length (Program.nests spec.Spec.sim_program));
      Alcotest.(check int)
        (spec.Spec.name ^ " same array count")
        (Array.length (Program.arrays spec.Spec.program))
        (Array.length (Program.arrays spec.Spec.sim_program)))
    (Suite.all ())

(* ------------------------------------------------------------------ *)
(* Kernels                                                              *)
(* ------------------------------------------------------------------ *)

let test_kernels_matmul () =
  let nest, arrays = Kernels.matmul ~name:"mm" ~n:4 ~c:"C" ~a:"A" ~b:"B" in
  Alcotest.(check int) "depth 3" 3 (Loop_nest.depth nest);
  Alcotest.(check int) "trip" 64 (Loop_nest.trip_count nest);
  Alcotest.(check int) "3 arrays" 3 (List.length arrays);
  Alcotest.(check (list string)) "touched" [ "C"; "A"; "B" ]
    (Loop_nest.arrays_touched nest)

let test_kernels_declare_merges () =
  let _, r1 = Kernels.matmul ~name:"m1" ~n:4 ~c:"C" ~a:"A" ~b:"B" in
  let _, r2 = Kernels.matmul ~name:"m2" ~n:4 ~c:"D" ~a:"C" ~b:"B" in
  let arrays = Kernels.declare (r1 @ r2) in
  Alcotest.(check int) "four distinct arrays" 4 (List.length arrays);
  Alcotest.(check (list string)) "first-occurrence order" [ "C"; "A"; "B"; "D" ]
    (List.map Array_info.name arrays)

let test_kernels_declare_conflict () =
  Alcotest.check_raises "conflicting extents"
    (Invalid_argument "Kernels.declare: conflicting extents for A") (fun () ->
      ignore (Kernels.declare [ ("A", [ 4; 4 ]); ("A", [ 8; 8 ]) ]))

let test_kernels_in_bounds () =
  (* every kernel's accesses stay inside the declared extents *)
  let check_kernel (nest, arrays) =
    let decls = Kernels.declare arrays in
    let extents name =
      Array_info.extents
        (List.find (fun a -> Array_info.name a = name) decls)
    in
    Loop_nest.iter nest (fun iv ->
        Array.iter
          (fun acc ->
            let e = extents (Mlo_ir.Access.array_name acc) in
            let el = Mlo_ir.Access.element_at acc iv in
            Array.iteri
              (fun d x ->
                if x < 0 || x >= e.(d) then
                  Alcotest.failf "%s out of bounds at dim %d: %d"
                    (Mlo_ir.Access.array_name acc) d x)
              el)
          (Loop_nest.accesses nest))
  in
  check_kernel (Kernels.matmul ~name:"mm" ~n:5 ~c:"C" ~a:"A" ~b:"B");
  check_kernel (Kernels.transpose_copy ~name:"t" ~n:5 ~dst:"D" ~src:"S");
  check_kernel (Kernels.stencil5 ~name:"s" ~n:5 ~dst:"D" ~src:"S");
  check_kernel (Kernels.diagonal_sweep ~name:"d" ~n:5 ~q1:"Q1" ~q2:"Q2");
  check_kernel (Kernels.fill ~name:"f" ~n:5 ~dst:"D");
  check_kernel (Kernels.row_scale ~name:"rs" ~n:5 ~dst:"D");
  check_kernel (Kernels.row_reduce ~name:"rr" ~n:5 ~dst:"V" ~src:"S");
  check_kernel (Kernels.col_reduce ~name:"cr" ~n:5 ~dst:"V" ~src:"S")

(* ------------------------------------------------------------------ *)
(* Candidates                                                           *)
(* ------------------------------------------------------------------ *)

let test_palettes_sizes () =
  Alcotest.(check int) "p6" 6 (List.length Candidates.palette6);
  Alcotest.(check int) "p8" 8 (List.length Candidates.palette8);
  Alcotest.(check int) "p10" 10 (List.length Candidates.palette10);
  Alcotest.(check int) "p12" 12 (List.length Candidates.palette12);
  Alcotest.(check int) "palette n" 41 (List.length (Candidates.palette 41))

let test_palettes_distinct () =
  let p = Candidates.palette 41 in
  let dedup =
    List.fold_left
      (fun acc l -> if List.exists (Layout.equal l) acc then acc else l :: acc)
      [] p
  in
  Alcotest.(check int) "all distinct" 41 (List.length dedup)

let test_palette_prefix_consistency () =
  (* palette n is a prefix of palette (n+1) *)
  let p8 = Candidates.palette 8 and p9 = Candidates.palette 9 in
  List.iteri
    (fun i l ->
      Alcotest.(check bool) "prefix" true (Layout.equal l (List.nth p9 i)))
    p8

let test_palette_bounds () =
  Alcotest.check_raises "zero" (Invalid_argument "Candidates.palette: size out of range")
    (fun () -> ignore (Candidates.palette 0));
  Alcotest.check_raises "huge" (Invalid_argument "Candidates.palette: size out of range")
    (fun () -> ignore (Candidates.palette 1000))

let test_by_position () =
  let spec = Suite.by_name "mxm" in
  let f = spec.Spec.candidates in
  (* first three arrays (T1, A, B) get palette6; D and C palette8 *)
  Alcotest.(check int) "T1" 6 (List.length (f "T1"));
  Alcotest.(check int) "A" 6 (List.length (f "A"));
  Alcotest.(check int) "D" 8 (List.length (f "D"));
  Alcotest.(check int) "C" 8 (List.length (f "C"))

(* ------------------------------------------------------------------ *)
(* Generator                                                            *)
(* ------------------------------------------------------------------ *)

let test_generator_within_bounds () =
  let params =
    { Random_program.default with Random_program.seed = 5; extent = 9 }
  in
  let prog = Random_program.generate params in
  Array.iter
    (fun nest ->
      Loop_nest.iter nest (fun iv ->
          Array.iter
            (fun acc ->
              let info = Program.find_array prog (Mlo_ir.Access.array_name acc) in
              let el = Mlo_ir.Access.element_at acc iv in
              Array.iteri
                (fun d x ->
                  if x < 0 || x >= Array_info.extent info d then
                    Alcotest.failf "%s out of bounds" (Array_info.name info))
                el)
            (Loop_nest.accesses nest)))
    (Program.nests prog)

let test_generator_intended_layouts () =
  let params = { Random_program.default with Random_program.seed = 3 } in
  let intended = Random_program.intended_layouts params in
  Alcotest.(check int) "one per array" params.Random_program.num_arrays
    (List.length intended);
  List.iter
    (fun (_, l) -> Alcotest.(check int) "rank 2" 2 (Layout.rank l))
    intended

(* ------------------------------------------------------------------ *)
(* Scale family                                                         *)
(* ------------------------------------------------------------------ *)

let test_scale_structure () =
  let spec = Suite.scale 100 in
  Alcotest.(check string) "name" "scale-100" spec.Spec.name;
  Alcotest.(check int) "arrays" 100
    (Array.length (Program.arrays spec.Spec.program));
  Alcotest.(check bool)
    "at least 2n/5 nests" true
    (Array.length (Program.nests spec.Spec.program) >= 40);
  (* pooled references (group_size 8) must split the network into at
     least num_arrays / group_size independent components *)
  let build = Spec.extract spec in
  Alcotest.(check bool)
    "component-rich" true
    (Array.length (Build.components build) >= 100 / 8)

let test_scale_solvable () =
  let spec = Suite.scale 100 in
  let build = Spec.extract spec in
  match
    Mlo_csp.Solver.solve_components
      ~config:(Mlo_csp.Schemes.enhanced ())
      build.Build.network
  with
  | { Mlo_csp.Solver.outcome = Mlo_csp.Solver.Solution a; _ } ->
    Alcotest.(check bool)
      "solution verifies" true
      (Network.verify build.Build.network a)
  | _ -> Alcotest.fail "scale-100: expected a solution"

let test_scale_deterministic () =
  let d1 = Network.total_domain_size (Spec.extract (Suite.scale 10)).Build.network in
  let d2 = Network.total_domain_size (Spec.extract (Suite.scale 10)).Build.network in
  Alcotest.(check int) "same domain size" d1 d2

let test_scale_by_name () =
  Alcotest.(check string)
    "scale-25 parses" "scale-25" (Suite.by_name "scale-25").Spec.name;
  Alcotest.check_raises "scale-0 rejected" Not_found (fun () ->
      ignore (Suite.by_name "scale-0"));
  Alcotest.check_raises "scale-x rejected" Not_found (fun () ->
      ignore (Suite.by_name "scale-x"))

let () =
  Alcotest.run "workloads"
    [
      ( "table1",
        [
          Alcotest.test_case "suite complete" `Quick test_suite_complete;
          Alcotest.test_case "domain sizes exact" `Quick
            test_domain_sizes_match_paper;
          Alcotest.test_case "data sizes close" `Quick test_data_sizes_close_to_paper;
          Alcotest.test_case "networks satisfiable" `Quick test_networks_satisfiable;
          Alcotest.test_case "lookup by name" `Quick test_by_name;
          Alcotest.test_case "by name = the suite's spec" `Quick
            test_by_name_builds_the_suite_spec;
          Alcotest.test_case "sim programs match" `Quick
            test_sim_programs_structurally_equal;
        ] );
      ( "kernels",
        [
          Alcotest.test_case "matmul" `Quick test_kernels_matmul;
          Alcotest.test_case "declare merges" `Quick test_kernels_declare_merges;
          Alcotest.test_case "declare conflicts" `Quick test_kernels_declare_conflict;
          Alcotest.test_case "accesses in bounds" `Quick test_kernels_in_bounds;
        ] );
      ( "candidates",
        [
          Alcotest.test_case "palette sizes" `Quick test_palettes_sizes;
          Alcotest.test_case "palette distinct" `Quick test_palettes_distinct;
          Alcotest.test_case "palette prefix" `Quick test_palette_prefix_consistency;
          Alcotest.test_case "palette bounds" `Quick test_palette_bounds;
          Alcotest.test_case "by_position" `Quick test_by_position;
        ] );
      ( "generator",
        [
          Alcotest.test_case "accesses within bounds" `Quick
            test_generator_within_bounds;
          Alcotest.test_case "intended layouts" `Quick test_generator_intended_layouts;
        ] );
      ( "scale",
        [
          Alcotest.test_case "structure" `Quick test_scale_structure;
          Alcotest.test_case "solvable" `Quick test_scale_solvable;
          Alcotest.test_case "deterministic" `Quick test_scale_deterministic;
          Alcotest.test_case "by_name" `Quick test_scale_by_name;
        ] );
    ]
