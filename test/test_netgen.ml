(* Tests for constraint-network extraction: nest summaries, demands, domains,
   pair construction, wildcards, and loop-order selection. *)

module B = Mlo_ir.Builder
module Program = Mlo_ir.Program
module Array_info = Mlo_ir.Array_info
module Loop_nest = Mlo_ir.Loop_nest
module Layout = Mlo_layout.Layout
module Network = Mlo_csp.Network
module Solver = Mlo_csp.Solver
module Brute = Mlo_oracle.Brute
module Weighted = Mlo_csp.Weighted
module Nest_summary = Mlo_layout.Nest_summary
module Build = Mlo_netgen.Build
module Select = Mlo_netgen.Select
module Kernels = Mlo_workloads.Kernels
module Variants_reference = Mlo_oracle.Variants_reference
module Dependence = Mlo_ir.Dependence
module Fixtures = Mlo_oracle.Fixtures

let layout = Alcotest.testable Layout.pp Layout.equal

(* ------------------------------------------------------------------ *)
(* Variants                                                             *)
(* ------------------------------------------------------------------ *)

let fig2_summary () =
  let prog = Fixtures.fig2_program ~n:8 in
  Nest_summary.nest (Nest_summary.of_program prog) 0

let test_variants_of_fig2 () =
  let s = fig2_summary () in
  let demand order name =
    List.assoc_opt name (Nest_summary.demands_for s order)
  in
  Alcotest.(check int) "two legal orders" 2 (List.length s.Nest_summary.orders);
  (* identity: Q1 -> diagonal, Q2 -> column-major (paper Section 2) *)
  match s.Nest_summary.orders with
  | [ o0; o1 ] ->
    Alcotest.(check (option layout)) "Q1 identity" (Some Layout.diagonal2)
      (demand o0 "Q1");
    Alcotest.(check (option layout)) "Q2 identity" (Some (Layout.col_major 2))
      (demand o0 "Q2");
    (* interchanged: Q1 -> column-major, Q2 -> diagonal (paper) *)
    Alcotest.(check (option layout)) "Q1 interchanged" (Some (Layout.col_major 2))
      (demand o1 "Q1");
    Alcotest.(check (option layout)) "Q2 interchanged" (Some Layout.diagonal2)
      (demand o1 "Q2");
    Alcotest.(check (option layout)) "unknown array" None (demand o0 "Q9")
  | _ -> Alcotest.fail "expected 2 legal orders"

let test_layouts_for () =
  let s = fig2_summary () in
  match s.Nest_summary.orders with
  | o :: _ ->
    let demands = Nest_summary.demands_for s o in
    Alcotest.(check int) "both arrays demanded" 2 (List.length demands);
    Alcotest.(check (option layout)) "Q1" (Some Layout.diagonal2)
      (List.assoc_opt "Q1" demands)
  | [] -> Alcotest.fail "no legal orders"

(* ------------------------------------------------------------------ *)
(* Build                                                                *)
(* ------------------------------------------------------------------ *)

let test_build_fig2 () =
  let prog = Fixtures.fig2_program ~n:8 in
  let b = Build.build prog in
  let net = b.Build.network in
  Alcotest.(check int) "two variables" 2 (Network.num_vars net);
  Alcotest.(check int) "one constraint" 1 (Network.num_constraints net);
  (* S(Q1,Q2) should allow exactly the two per-variant combinations *)
  let q1 = Build.var_of_array b "Q1" and q2 = Build.var_of_array b "Q2" in
  let allowed_combos =
    List.concat_map
      (fun v1 ->
        List.filter_map
          (fun v2 ->
            if Network.allowed net q1 v1 q2 v2 then
              Some
                ( Layout.describe (Network.value net q1 v1),
                  Layout.describe (Network.value net q2 v2) )
            else None)
          (List.init (Network.domain_size net q2) Fun.id))
      (List.init (Network.domain_size net q1) Fun.id)
  in
  Alcotest.(check int) "two combos" 2 (List.length allowed_combos);
  Alcotest.(check bool) "diag/col" true
    (List.mem ("diagonal", "column-major") allowed_combos);
  Alcotest.(check bool) "col/diag" true
    (List.mem ("column-major", "diagonal") allowed_combos)

let test_build_solution_valid () =
  let prog = Fixtures.fig2_program ~n:8 in
  let b = Build.build prog in
  match Solver.solve b.Build.network with
  | { Solver.outcome = Solver.Solution a; _ } ->
    Alcotest.(check bool) "verifies" true (Network.verify b.Build.network a);
    let layouts = Build.assignment_layouts b a in
    Alcotest.(check int) "all arrays" 2 (List.length layouts);
    (match Build.lookup b a "Q1" with
    | Some _ -> ()
    | None -> Alcotest.fail "Q1 missing");
    Alcotest.(check (option layout)) "unknown" None (Build.lookup b a "Zz")
  | _ -> Alcotest.fail "figure 2 network must be satisfiable"

let test_build_candidates_extend_domains () =
  let prog = Fixtures.fig2_program ~n:8 in
  let plain = Build.build prog in
  let extra = [ Layout.row_major 2; Layout.anti_diagonal2 ] in
  let rich = Build.build ~candidates:(fun _ -> extra) prog in
  Alcotest.(check bool) "domains grow" true
    (Network.total_domain_size rich.Build.network
    > Network.total_domain_size plain.Build.network);
  (* wrong-rank candidates are ignored *)
  let bad = Build.build ~candidates:(fun _ -> [ Layout.row_major 3 ]) prog in
  Alcotest.(check int) "wrong rank ignored"
    (Network.total_domain_size plain.Build.network)
    (Network.total_domain_size bad.Build.network)

let test_build_matmul_satisfiable () =
  (* MxM's network: wildcards for the temporal sides keep it satisfiable
     and A=row-major, B=column-major must be among the solutions *)
  let mm, req = Kernels.matmul ~name:"mm" ~n:8 ~c:"C" ~a:"A" ~b:"B" in
  let prog = Program.make ~name:"mm" (Kernels.declare req) [ mm ] in
  let b = Build.build prog in
  let net = b.Build.network in
  Alcotest.(check bool) "satisfiable" true (Brute.is_satisfiable net);
  let sols = Brute.all_solutions net in
  let has_classic =
    List.exists
      (fun a ->
        Build.lookup b a "A" = Some (Layout.row_major 2)
        && Build.lookup b a "B" = Some (Layout.col_major 2))
      sols
  in
  Alcotest.(check bool) "classic matmul layouts allowed" true has_classic

let test_build_weighted () =
  let prog = Fixtures.fig2_program ~n:8 in
  let b, w = Build.weighted prog in
  let q1 = Build.var_of_array b "Q1" and q2 = Build.var_of_array b "Q2" in
  (* every allowed pair carries the nest cost (8*8 iterations x 2 refs) *)
  let expected = float_of_int (8 * 8 * 2) in
  let found = ref false in
  for v1 = 0 to Network.domain_size b.Build.network q1 - 1 do
    for v2 = 0 to Network.domain_size b.Build.network q2 - 1 do
      if Network.allowed b.Build.network q1 v1 q2 v2 then begin
        found := true;
        Alcotest.(check (float 1e-9)) "pair weight" expected
          (Weighted.weight w q1 v1 q2 v2)
      end
    done
  done;
  Alcotest.(check bool) "some pair" true !found

let test_relax_adds_row_row () =
  (* engineer an unsatisfiable strict network: two nests with
     irreconcilable single demands for the same pair *)
  let x = B.ctx [ "i"; "j" ] in
  let i = B.var x "i" and j = B.var x "j" in
  let n1 = B.nest "rowish" x [ 4; 4 ] [ B.read "A" [ i; j ]; B.write "B" [ j; i ] ] in
  let prog =
    Program.make ~name:"conflict"
      [ Array_info.make "A" [ 4; 4 ]; Array_info.make "B" [ 4; 4 ] ]
      [ n1 ]
  in
  let strict = Build.build prog in
  let relaxed = Build.build ~relax:true prog in
  (* whatever the strict network allows, the relaxed one additionally
     allows (row-major, row-major) *)
  let a = Build.var_of_array relaxed "A" and b = Build.var_of_array relaxed "B" in
  let row_idx build name =
    let v = Build.var_of_array build name in
    let net = build.Build.network in
    let rec go k =
      if k >= Network.domain_size net v then raise Not_found
      else if Layout.equal (Network.value net v k) (Layout.row_major 2) then k
      else go (k + 1)
    in
    go 0
  in
  Alcotest.(check bool) "relaxed allows row/row" true
    (Network.allowed relaxed.Build.network a (row_idx relaxed "A") b
       (row_idx relaxed "B"));
  ignore strict

(* ------------------------------------------------------------------ *)
(* Select                                                               *)
(* ------------------------------------------------------------------ *)

let test_select_best_variant () =
  let s = fig2_summary () in
  (* if Q1 is diagonal and Q2 column-major, the original order is best *)
  let lookup1 = function
    | "Q1" -> Some Layout.diagonal2
    | "Q2" -> Some (Layout.col_major 2)
    | _ -> None
  in
  Alcotest.(check bool) "identity kept" true
    (Nest_summary.best_order s lookup1 = [| 0; 1 |]);
  (* with the swapped layouts, interchange wins *)
  let lookup2 = function
    | "Q1" -> Some (Layout.col_major 2)
    | "Q2" -> Some Layout.diagonal2
    | _ -> None
  in
  Alcotest.(check bool) "interchanged" true
    (Nest_summary.best_order s lookup2 = [| 1; 0 |])

let test_select_restructure_preserves_semantics () =
  let prog = Fixtures.fig2_program ~n:8 in
  let lookup = function
    | "Q1" -> Some (Layout.col_major 2)
    | "Q2" -> Some Layout.diagonal2
    | _ -> None
  in
  let prog' = Select.restructure prog lookup in
  Alcotest.(check int) "same nest count"
    (Array.length (Program.nests prog))
    (Array.length (Program.nests prog'));
  (* the multiset of elements touched is preserved *)
  let touch p =
    let acc = ref [] in
    Array.iter
      (fun nest ->
        Loop_nest.iter nest (fun iv ->
            Array.iter
              (fun a ->
                acc :=
                  (Mlo_ir.Access.array_name a, Mlo_ir.Access.element_at a iv)
                  :: !acc)
              (Loop_nest.accesses nest)))
      (Program.nests p);
    List.sort compare !acc
  in
  Alcotest.(check bool) "same elements" true (touch prog = touch prog')

(* ------------------------------------------------------------------ *)
(* Properties on the generator                                          *)
(* ------------------------------------------------------------------ *)

let gen_params seed =
  {
    Mlo_workloads.Random_program.default with
    Mlo_workloads.Random_program.seed;
    num_arrays = 5;
    num_nests = 6;
    extent = 12;
    sim_extent = 8;
  }

let prop_generator_network_satisfiable =
  QCheck.Test.make ~name:"generated networks admit the intended solution"
    ~count:60 QCheck.small_nat (fun seed ->
      (* intended layouts for arrays some restructuring demands; arrays
         referenced only temporally fall back to the default (domain
         index 0), which every wildcard admits *)
      let params = gen_params seed in
      let prog = Mlo_workloads.Random_program.generate params in
      let b = Build.build prog in
      let intended = Mlo_workloads.Random_program.intended_layouts params in
      let net = b.Build.network in
      let assignment =
        Array.init (Network.num_vars net) (fun i ->
            let want = List.assoc (Network.name net i) intended in
            let dom = Network.domain net i in
            let rec find v =
              if v >= Array.length dom then 0
              else if Layout.equal dom.(v) want then v
              else find (v + 1)
            in
            find 0)
      in
      Network.verify net assignment)

let prop_generator_deterministic =
  QCheck.Test.make ~name:"generator is deterministic in its seed" ~count:30
    QCheck.small_nat (fun seed ->
      let params = gen_params seed in
      let p1 = Mlo_workloads.Random_program.generate params in
      let p2 = Mlo_workloads.Random_program.generate params in
      Network.total_domain_size (Build.build p1).Build.network
      = Network.total_domain_size (Build.build p2).Build.network
      && Program.data_size_bytes p1 = Program.data_size_bytes p2)

let prop_solver_solves_generated =
  QCheck.Test.make ~name:"enhanced scheme solves generated networks" ~count:40
    QCheck.small_nat (fun seed ->
      let prog = Mlo_workloads.Random_program.generate (gen_params seed) in
      let b = Build.build prog in
      match
        Solver.solve ~config:(Mlo_csp.Schemes.enhanced ()) b.Build.network
      with
      | { Solver.outcome = Solver.Solution a; _ } ->
        Network.verify b.Build.network a
      | _ -> false)

(* ------------------------------------------------------------------ *)
(* The nest summary against the direct derivation                       *)
(* ------------------------------------------------------------------ *)

(* A random lookup over a program: each array unassigned, at its
   default, column-major, or at a layout some legal order demands of it
   (so that several orders tie or compete). *)
let random_lookup prog seed =
  let rng = Random.State.make [| seed |] in
  let summary = Nest_summary.of_program prog in
  let demanded = Hashtbl.create 16 in
  Array.iteri
    (fun i _ ->
      let n = Nest_summary.nest summary i in
      List.iter
        (fun o ->
          List.iter
            (fun (name, l) -> Hashtbl.add demanded name l)
            (Nest_summary.demands_for n o))
        n.Nest_summary.orders)
    (Program.nests prog);
  let table = Hashtbl.create 16 in
  Array.iter
    (fun info ->
      let name = Array_info.name info and rank = Array_info.rank info in
      let choice =
        match Random.State.int rng 4 with
        | 0 -> None
        | 1 -> Some (if rank = 1 then Layout.trivial else Layout.row_major rank)
        | 2 -> Some (if rank = 1 then Layout.trivial else Layout.col_major rank)
        | _ -> (
          match Hashtbl.find_all demanded name with
          | [] -> None
          | ls -> Some (List.nth ls (Random.State.int rng (List.length ls))))
      in
      Hashtbl.replace table name choice)
    (Program.arrays prog);
  fun name -> Option.join (Hashtbl.find_opt table name)

let same_demands a b =
  List.equal
    (fun (n1, l1) (n2, l2) -> String.equal n1 n2 && Layout.equal l1 l2)
    a b

(* The three facts every consumer reads: the legal orders, each order's
   demands, and the restructuring chosen under [lookup]. *)
let summary_agrees prog lookup =
  let summary = Nest_summary.of_program prog in
  let restructured = Program.nests (Select.restructure prog lookup) in
  Array.for_all Fun.id
    (Array.mapi
       (fun i nest ->
         let s = Nest_summary.nest summary i in
         let variants = Variants_reference.of_nest nest in
         s.Nest_summary.orders
         = List.map fst (Dependence.legal_permutations nest)
         && List.for_all2
              (fun o v ->
                same_demands (Nest_summary.demands_for s o)
                  (Variants_reference.layouts_for v))
              s.Nest_summary.orders variants
         && Loop_nest.equal restructured.(i)
              (Variants_reference.best_variant nest lookup)
                .Variants_reference.nest)
       (Program.nests prog))

let fixed_programs =
  lazy
    (List.map
       (fun name -> (Mlo_workloads.Suite.by_name name).Mlo_workloads.Spec.program)
       [ "med-im04"; "mxm"; "radar"; "shape"; "track"; "scale-10"; "hard-20" ])

let prop_summary_fixed =
  QCheck.Test.make ~name:"suite: summary = direct derivation"
    ~count:14
    QCheck.(pair (int_bound 6) small_nat)
    (fun (k, seed) ->
      let prog = List.nth (Lazy.force fixed_programs) k in
      summary_agrees prog (random_lookup prog seed))

(* Generated nests of depth 1-4 over arrays of rank 1-3.  Within a nest
   every reference to an array shares one access matrix (coefficients in
   -1..2; a loop the array does not mention gives a zero delta) and
   differs only in its constant offsets, kept non-negative; the first reference is a write,
   so some orders are illegal.  At depth 3 and 4 several orders share an
   innermost loop. *)
let gen_program =
  let open QCheck.Gen in
  let* ranks = list_size (int_range 1 3) (int_range 1 3) in
  let arrays = List.mapi (fun i r -> (Printf.sprintf "A%d" i, r)) ranks in
  let* nests =
    list_size (int_range 1 3)
      (let* depth = int_range 1 4 in
       let* extents = list_repeat depth (int_range 2 5) in
       let vars = List.init depth (Printf.sprintf "i%d") in
       let x = B.ctx vars in
       (* a row mentions at most two loops, so most pairs keep the
          closed form and the Omega path stays rare *)
       let row =
         let* lead = int_bound depth in
         let* c = oneofl [ -1; 1; 2 ] in
         let* second = int_bound (4 * depth) in
         return
           (List.init depth (fun j ->
                if j = lead then c else if j = second then 1 else 0))
       in
       let* matrices =
         flatten_l
           (List.map (fun (_, rank) -> list_repeat rank row) arrays)
       in
       let index coeffs =
         let* offset = int_range 0 2 in
         let shift =
           List.fold_left2
             (fun acc c e -> if c < 0 then acc + ((e - 1) * -c) else acc)
             0 coeffs extents
         in
         return
           (List.fold_left2
              (fun acc c v -> B.(acc +: (c *: var x v)))
              (B.const x (offset + shift))
              coeffs vars)
       in
       let access write =
         let* a = int_bound (List.length arrays - 1) in
         let name, _ = List.nth arrays a in
         let* idx = flatten_l (List.map index (List.nth matrices a)) in
         let* w = write in
         return (if w then B.write name idx else B.read name idx)
       in
       let* first = access (return true) in
       let* rest = list_size (int_range 1 4) (access bool) in
       return (fun i -> B.nest (Printf.sprintf "n%d" i) x extents (first :: rest)))
  in
  let used =
    List.filter
      (fun (name, _) ->
        List.exists
          (fun mk ->
            Array.exists
              (fun a -> String.equal (Mlo_ir.Access.array_name a) name)
              (Loop_nest.accesses (mk 0)))
          nests)
      arrays
  in
  return
    (Program.make ~name:"generated"
       (List.map (fun (name, rank) -> Array_info.make name (List.init rank (fun _ -> 64))) used)
       (List.mapi (fun i mk -> mk i) nests))

let prop_summary_generated =
  QCheck.Test.make ~name:"generated: summary = direct derivation"
    ~count:200
    QCheck.(
      pair
        (make ~print:Mlo_lang.Parser.to_source gen_program)
        small_nat)
    (fun (prog, seed) -> summary_agrees prog (random_lookup prog seed))

(* Build, profile and restructure of one request share one summary. *)
let test_one_summary_per_program () =
  let spec = Mlo_workloads.Suite.by_name "mxm" in
  let prog =
    Mlo_lang.Parser.parse ~name:"mxm"
      (Mlo_lang.Parser.to_source spec.Mlo_workloads.Spec.program)
  in
  Mlo_obs.Trace.start ();
  Fun.protect ~finally:Mlo_obs.Trace.stop @@ fun () ->
  let sol =
    Mlo_core.Optimizer.optimize ~candidates:spec.Mlo_workloads.Spec.candidates
      ~prune_dominated:true
      (Mlo_core.Optimizer.Bnb Mlo_csp.Bnb.default_config)
      prog
  in
  ignore (Select.restructure prog (Mlo_core.Optimizer.lookup sol));
  let spans =
    match Mlo_obs.Json.parse (Mlo_obs.Trace.dump ()) with
    | Error e -> Alcotest.failf "trace did not parse: %s" e
    | Ok j -> (
      match Mlo_obs.Trace_summary.of_json j with
      | Error e -> Alcotest.failf "trace did not summarize: %s" e
      | Ok s -> s.Mlo_obs.Trace_summary.spans)
  in
  let count =
    match List.assoc_opt ("layout", "nest-summary") spans with
    | Some st -> st.Mlo_obs.Trace_summary.span_count
    | None -> 0
  in
  Alcotest.(check int) "one nest-summary span" 1 count

(* The cache must not keep a program alive: summarize a fresh program,
   drop it, and it must be collected. *)
let[@inline never] summarize_and_drop w =
  let prog = Fixtures.fig2_program ~n:8 in
  ignore (Nest_summary.of_program prog);
  Weak.set w 0 (Some prog)

let test_summary_dies_with_program () =
  let w = Weak.create 1 in
  summarize_and_drop w;
  Gc.full_major ();
  Alcotest.(check bool) "summarized program collected" false (Weak.check w 0)

let props =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_generator_network_satisfiable;
      prop_generator_deterministic;
      prop_solver_solves_generated;
    ]

let () =
  Alcotest.run "netgen"
    [
      ( "variants",
        [
          Alcotest.test_case "figure 2 demands" `Quick test_variants_of_fig2;
          Alcotest.test_case "layouts_for" `Quick test_layouts_for;
        ] );
      ( "build",
        [
          Alcotest.test_case "figure 2 network" `Quick test_build_fig2;
          Alcotest.test_case "solution decodes" `Quick test_build_solution_valid;
          Alcotest.test_case "candidate palettes" `Quick
            test_build_candidates_extend_domains;
          Alcotest.test_case "matmul satisfiable via wildcards" `Quick
            test_build_matmul_satisfiable;
          Alcotest.test_case "weighted pairs carry nest cost" `Quick
            test_build_weighted;
          Alcotest.test_case "relax adds row/row" `Quick test_relax_adds_row_row;
        ] );
      ( "summary",
        [
          QCheck_alcotest.to_alcotest prop_summary_fixed;
          QCheck_alcotest.to_alcotest prop_summary_generated;
          Alcotest.test_case "one summary per program" `Quick
            test_one_summary_per_program;
          Alcotest.test_case "summary dies with its program" `Quick
            test_summary_dies_with_program;
        ] );
      ( "select",
        [
          Alcotest.test_case "best variant" `Quick test_select_best_variant;
          Alcotest.test_case "restructure preserves semantics" `Quick
            test_select_restructure_preserves_semantics;
        ] );
      ("properties", props);
    ]
