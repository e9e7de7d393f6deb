(* Unit and property tests for the exact linear-algebra substrate. *)

module Intvec = Mlo_linalg.Intvec
module Intmat = Mlo_linalg.Intmat
module Nullspace = Mlo_linalg.Nullspace
module Unimodular = Mlo_linalg.Unimodular
module Rat = Mlo_oracle.Rat
module Linalg_reference = Mlo_oracle.Linalg_reference

let vec = Alcotest.testable (Fmt.of_to_string Intvec.to_string) Intvec.equal

(* ------------------------------------------------------------------ *)
(* Intvec units                                                        *)
(* ------------------------------------------------------------------ *)

let test_basic_construction () =
  Alcotest.(check int) "dim" 3 (Intvec.dim (Intvec.of_list [ 1; 2; 3 ]));
  Alcotest.check vec "zero" [| 0; 0; 0 |] (Intvec.zero 3);
  Alcotest.check vec "unit" [| 0; 1; 0 |] (Intvec.unit 3 1);
  Alcotest.(check bool) "is_zero" true (Intvec.is_zero (Intvec.zero 4));
  Alcotest.(check bool) "not is_zero" false (Intvec.is_zero [| 0; 1 |])

let test_unit_out_of_range () =
  Alcotest.check_raises "unit oob" (Invalid_argument "Intvec.unit: index out of range")
    (fun () -> ignore (Intvec.unit 2 5))

let test_arith () =
  Alcotest.check vec "add" [| 4; 6 |] (Intvec.add [| 1; 2 |] [| 3; 4 |]);
  Alcotest.check vec "sub" [| -2; -2 |] (Intvec.sub [| 1; 2 |] [| 3; 4 |]);
  Alcotest.check vec "neg" [| -1; 2 |] (Intvec.neg [| 1; -2 |]);
  Alcotest.check vec "scale" [| 3; -6 |] (Intvec.scale 3 [| 1; -2 |]);
  Alcotest.(check int) "dot" 11 (Intvec.dot [| 1; 2 |] [| 3; 4 |])

let test_dot_mismatch () =
  Alcotest.check_raises "dot mismatch"
    (Invalid_argument "Intvec.dot: dimension mismatch") (fun () ->
      ignore (Intvec.dot [| 1 |] [| 1; 2 |]))

let test_gcd_content () =
  Alcotest.(check int) "gcd" 6 (Intvec.gcd 12 18);
  Alcotest.(check int) "gcd neg" 6 (Intvec.gcd (-12) 18);
  Alcotest.(check int) "gcd zero" 5 (Intvec.gcd 0 5);
  Alcotest.(check int) "gcd both zero" 0 (Intvec.gcd 0 0);
  Alcotest.(check int) "content" 4 (Intvec.content [| 8; -12; 4 |]);
  Alcotest.(check int) "content zero" 0 (Intvec.content [| 0; 0 |])

let test_canonical () =
  Alcotest.check vec "primitive" [| 2; -3; 1 |] (Intvec.primitive [| 8; -12; 4 |]);
  Alcotest.check vec "canonical flips sign" [| 1; -1 |]
    (Intvec.canonical [| -2; 2 |]);
  Alcotest.check vec "canonical keeps sign" [| 1; 1 |]
    (Intvec.canonical [| 3; 3 |]);
  Alcotest.check vec "canonical zero" [| 0; 0 |] (Intvec.canonical [| 0; 0 |])

let test_compare_order () =
  Alcotest.(check bool) "lex" true (Intvec.compare [| 1; 0 |] [| 1; 1 |] < 0);
  Alcotest.(check bool) "dim first" true (Intvec.compare [| 9 |] [| 0; 0 |] < 0);
  Alcotest.(check int) "equal" 0 (Intvec.compare [| 2; 3 |] [| 2; 3 |])

let test_pp () =
  Alcotest.(check string) "pp" "(1 -1)" (Intvec.to_string [| 1; -1 |]);
  Alcotest.(check string) "pp singleton" "(7)" (Intvec.to_string [| 7 |])

let test_checked () =
  Alcotest.(check int) "sub" (-7) Intvec.(3 -! 10);
  Alcotest.(check int) "mul" (-30) Intvec.(3 *! -10);
  Alcotest.(check int) "sub to min_int" min_int Intvec.(-1 -! max_int);
  Alcotest.(check int) "mul by zero" 0 Intvec.(0 *! min_int);
  Alcotest.(check int) "add" (-7) Intvec.(3 +! -10);
  Alcotest.(check int) "add to max_int" max_int Intvec.(max_int +! 0);
  Alcotest.(check int) "add across signs" (-1) Intvec.(max_int +! min_int);
  (* either side of the multiply's division-free range [-2^30, 2^30) *)
  Alcotest.(check int) "mul at -2^30" (1 lsl 60)
    Intvec.(-(1 lsl 30) *! -(1 lsl 30));
  Alcotest.(check int) "mul at 2^30" (1 lsl 61) Intvec.((1 lsl 30) *! (1 lsl 31));
  Alcotest.(check int) "mul to min_int" min_int
    Intvec.(-(1 lsl 31) *! (1 lsl 31));
  List.iter
    (fun (name, f) ->
      Alcotest.check_raises name Intvec.Overflow (fun () -> ignore (f ())))
    [
      ("sub below min_int", fun () -> Intvec.(min_int -! 1));
      ("sub above max_int", fun () -> Intvec.(max_int -! -1));
      ("mul wraps", fun () -> Intvec.(3_000_000_000 *! 3_000_000_000));
      ("mul -1 min_int", fun () -> Intvec.(-1 *! min_int));
      ("mul min_int -1", fun () -> Intvec.(min_int *! -1));
      ("mul 2^31 2^31", fun () -> Intvec.((1 lsl 31) *! (1 lsl 31)));
      ("add above max_int", fun () -> Intvec.(max_int +! 1));
      ("add below min_int", fun () -> Intvec.(min_int +! -1));
    ]

(* ------------------------------------------------------------------ *)
(* Rat units (the rational reference's arithmetic)                     *)
(* ------------------------------------------------------------------ *)

let rat = Alcotest.testable (Fmt.of_to_string Rat.to_string) Rat.equal

let test_rat_canonical () =
  Alcotest.check rat "reduce" (Rat.make 1 2) (Rat.make 2 4);
  Alcotest.check rat "sign" (Rat.make (-1) 2) (Rat.make 1 (-2));
  Alcotest.(check int) "den positive" 2 (Rat.den (Rat.make 3 (-2)));
  Alcotest.check_raises "zero denominator" Division_by_zero (fun () ->
      ignore (Rat.make 1 0))

let test_rat_arith () =
  Alcotest.check rat "add" (Rat.make 5 6) (Rat.add (Rat.make 1 2) (Rat.make 1 3));
  Alcotest.check rat "sub" (Rat.make 1 6) (Rat.sub (Rat.make 1 2) (Rat.make 1 3));
  Alcotest.check rat "mul" (Rat.make 1 6) (Rat.mul (Rat.make 1 2) (Rat.make 1 3));
  Alcotest.check rat "div" (Rat.make 3 2) (Rat.div (Rat.make 1 2) (Rat.make 1 3));
  Alcotest.check rat "inv" (Rat.make (-2) 3) (Rat.inv (Rat.make (-3) 2));
  Alcotest.(check int) "compare" (-1) (Rat.compare (Rat.make 1 3) (Rat.make 1 2))

(* ------------------------------------------------------------------ *)
(* Intmat units                                                        *)
(* ------------------------------------------------------------------ *)

let test_mat_basic () =
  let m = Intmat.of_lists [ [ 1; 2 ]; [ 3; 4 ] ] in
  Alcotest.(check int) "rows" 2 (Intmat.rows m);
  Alcotest.(check int) "cols" 2 (Intmat.cols m);
  Alcotest.check vec "row" [| 3; 4 |] (Intmat.row m 1);
  Alcotest.check vec "col" [| 2; 4 |] (Intmat.col m 1);
  Alcotest.(check bool) "identity" true (Intmat.is_identity (Intmat.identity 3))

let test_mat_mul () =
  let a = Intmat.of_lists [ [ 1; 2 ]; [ 3; 4 ] ] in
  let b = Intmat.of_lists [ [ 5; 6 ]; [ 7; 8 ] ] in
  Alcotest.(check bool) "product" true
    (Intmat.equal (Intmat.mul a b) (Intmat.of_lists [ [ 19; 22 ]; [ 43; 50 ] ]));
  Alcotest.check vec "mul_vec" [| 5; 11 |] (Intmat.mul_vec a [| 1; 2 |]);
  Alcotest.check vec "vec_mul" [| 7; 10 |] (Intmat.vec_mul [| 1; 2 |] a)

(* The reference's Bareiss determinant, which the tests use to check
   unimodularity. *)
let test_determinant () =
  let det = Linalg_reference.determinant in
  Alcotest.(check int) "2x2" (-2) (det (Intmat.of_lists [ [ 1; 2 ]; [ 3; 4 ] ]));
  Alcotest.(check int) "identity" 1 (det (Intmat.identity 4));
  Alcotest.(check int) "singular" 0
    (det (Intmat.of_lists [ [ 1; 2 ]; [ 2; 4 ] ]));
  Alcotest.(check int) "3x3" 1
    (det (Intmat.of_lists [ [ 6; 10; 15 ]; [ 1; 2; 3 ]; [ 0; -1; -1 ] ]));
  (* row swap needed: leading zero pivot *)
  Alcotest.(check int) "pivot swap" (-1)
    (det (Intmat.of_lists [ [ 0; 1 ]; [ 1; 0 ] ]))

let test_rank () =
  Alcotest.(check int) "full" 2 (Intmat.rank (Intmat.of_lists [ [ 1; 2 ]; [ 3; 4 ] ]));
  Alcotest.(check int) "deficient" 1
    (Intmat.rank (Intmat.of_lists [ [ 1; 2 ]; [ 2; 4 ] ]));
  Alcotest.(check int) "wide" 2
    (Intmat.rank (Intmat.of_lists [ [ 1; 0; 1 ]; [ 0; 1; 1 ] ]));
  Alcotest.(check int) "zero" 0 (Intmat.rank (Intmat.make 2 3 0))

let test_echelon () =
  (* pivots only in the first two columns: the third is a right-hand
     side, reduced along; the last row comes out primitive *)
  let a = Intmat.of_lists [ [ 0; 2; 4 ]; [ 3; 6; 9 ]; [ 2; 4; 8 ] ] in
  Alcotest.(check int) "rank" 2 (Intmat.echelon ~cols:2 a);
  Alcotest.(check bool) "in place" true
    (Intmat.equal a (Intmat.of_lists [ [ 3; 6; 9 ]; [ 0; 2; 4 ]; [ 0; 0; 1 ] ]));
  let b = Intmat.of_lists [ [ 1; 2; 3 ]; [ 2; 4; 7 ] ] in
  Alcotest.(check int) "skips a column without a pivot" 2
    (Intmat.echelon ~cols:3 b);
  Alcotest.check vec "second pivot in column 2" [| 0; 0; 1 |] b.(1)

(* A system whose elimination needs more than 63 bits.  Every vector of
   its nullspace is a multiple of the rows' cross product, whose middle
   entry 7 * 2000000018 - 3000000021 * 11 is not 0.  The checked
   elimination names the overflow; the rational reference wraps and
   answers a vector whose middle entry is 0. *)
let test_overflow () =
  let m =
    Intmat.of_lists
      [ [ 3000000021; 5000000045; 7 ]; [ 2000000018; 7000000049; 11 ] ]
  in
  Alcotest.check_raises "rank" Intvec.Overflow (fun () ->
      ignore (Intmat.rank m));
  Alcotest.check_raises "nullspace" Intvec.Overflow (fun () ->
      ignore (Nullspace.basis m));
  match Linalg_reference.basis m with
  | [ v ] -> Alcotest.(check int) "the reference's wrapped vector" 0 v.(1)
  | b -> Alcotest.failf "the reference answered %d vectors" (List.length b)

let test_transpose () =
  let m = Intmat.of_lists [ [ 1; 2; 3 ]; [ 4; 5; 6 ] ] in
  Alcotest.(check bool) "transpose" true
    (Intmat.equal (Intmat.transpose m)
       (Intmat.of_lists [ [ 1; 4 ]; [ 2; 5 ]; [ 3; 6 ] ]))

(* ------------------------------------------------------------------ *)
(* Nullspace units                                                     *)
(* ------------------------------------------------------------------ *)

let test_nullspace_simple () =
  (* x + y = 0 -> basis {(1 -1)} canonicalized *)
  let b = Nullspace.basis (Intmat.of_lists [ [ 1; 1 ] ]) in
  Alcotest.(check int) "size" 1 (List.length b);
  (match b with
  | [ v ] -> Alcotest.check vec "vector" [| 1; -1 |] v
  | _ -> Alcotest.fail "expected one vector");
  (* full-rank square: trivial nullspace *)
  Alcotest.(check int) "trivial" 0
    (List.length (Nullspace.basis (Intmat.identity 3)))

let test_nullspace_paper_example () =
  (* Figure 2: access Q1[i1+i2][i2]; stepping the inner loop changes the
     element by delta = (1, 1); the hyperplane orthogonal to it is
     (1 -1) - the diagonal layout. *)
  let b = Nullspace.basis (Intmat.of_lists [ [ 1; 1 ] ]) in
  (match b with
  | [ v ] -> Alcotest.check vec "diagonal" [| 1; -1 |] v
  | _ -> Alcotest.fail "one vector expected");
  (* access Q2[i1+i2][i1]: delta = (1, 0) -> hyperplane (0 1),
     column-major. *)
  let b2 = Nullspace.basis (Intmat.of_lists [ [ 1; 0 ] ]) in
  match b2 with
  | [ v ] -> Alcotest.check vec "column-major" [| 0; 1 |] v
  | _ -> Alcotest.fail "one vector expected"

let test_nullspace_rational_entries () =
  (* 2x + 3y = 0 has primitive integer solution (3, -2) *)
  let b = Nullspace.basis (Intmat.of_lists [ [ 2; 3 ] ]) in
  match b with
  | [ v ] -> Alcotest.check vec "cleared denominators" [| 3; -2 |] v
  | _ -> Alcotest.fail "one vector expected"

let test_left_basis () =
  (* columns of a are e1 and e2 of R^3; the left nullspace is spanned by
     e3 *)
  let a = Intmat.of_lists [ [ 1; 0 ]; [ 0; 1 ]; [ 0; 0 ] ] in
  (match Nullspace.left_basis a with
  | [ v ] -> Alcotest.check vec "orthogonal to both columns" [| 0; 0; 1 |] v
  | _ -> Alcotest.fail "one vector expected");
  (* difference vectors as rows use [basis] directly *)
  let rows = Intmat.of_lists [ [ 1; 0; 0 ]; [ 0; 1; 0 ] ] in
  match Nullspace.basis rows with
  | [ v ] -> Alcotest.check vec "orthogonal to both rows" [| 0; 0; 1 |] v
  | _ -> Alcotest.fail "one vector expected"

(* ------------------------------------------------------------------ *)
(* Unimodular units                                                    *)
(* ------------------------------------------------------------------ *)

let test_complete_primitive_examples () =
  let check_first_row y =
    let m = Unimodular.complete_primitive y in
    Alcotest.check vec "first row" y (Intmat.row m 0);
    Alcotest.(check bool) "unimodular" true (Linalg_reference.is_unimodular m)
  in
  check_first_row [| 1; 0 |];
  check_first_row [| 0; 1 |];
  check_first_row [| 1; -1 |];
  check_first_row [| 1; 1 |];
  check_first_row [| 2; 3 |];
  check_first_row [| 6; 10; 15 |];
  check_first_row [| 0; 0; 1 |];
  check_first_row [| 3; -5; 7; 2 |]

let test_complete_primitive_rejects () =
  Alcotest.check_raises "not primitive"
    (Invalid_argument "Unimodular.complete_primitive: vector not primitive")
    (fun () -> ignore (Unimodular.complete_primitive [| 2; 4 |]))

let test_complete_rows () =
  let rows = [ [| 0; 0; 1 |]; [| 0; 1; 0 |] ] in
  let m = Unimodular.complete_rows rows in
  Alcotest.(check int) "square" 3 (Intmat.rows m);
  Alcotest.check vec "row0" [| 0; 0; 1 |] (Intmat.row m 0);
  Alcotest.check vec "row1" [| 0; 1; 0 |] (Intmat.row m 1);
  Alcotest.(check bool) "nonsingular" true (Linalg_reference.is_nonsingular m)

let test_complete_rows_dependent () =
  Alcotest.check_raises "dependent"
    (Invalid_argument "Unimodular.complete_rows: rows linearly dependent")
    (fun () -> ignore (Unimodular.complete_rows [ [| 1; 1 |]; [| 2; 2 |] ]))

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let small_int = QCheck.int_range (-20) 20

let gen_vec n = QCheck.array_of_size (QCheck.Gen.return n) small_int

let prop_canonical_idempotent =
  QCheck.Test.make ~name:"canonical is idempotent" ~count:500 (gen_vec 4)
    (fun v -> Intvec.equal (Intvec.canonical (Intvec.canonical v)) (Intvec.canonical v))

let prop_canonical_scale_invariant =
  QCheck.Test.make ~name:"canonical ignores positive scaling" ~count:500
    (QCheck.pair (gen_vec 3) (QCheck.int_range 1 5))
    (fun (v, k) ->
      Intvec.equal (Intvec.canonical (Intvec.scale k v)) (Intvec.canonical v))

let prop_canonical_negation_invariant =
  QCheck.Test.make ~name:"canonical identifies v and -v" ~count:500 (gen_vec 3)
    (fun v -> Intvec.equal (Intvec.canonical (Intvec.neg v)) (Intvec.canonical v))

let prop_primitive_content =
  QCheck.Test.make ~name:"primitive has content 1 (or is zero)" ~count:500
    (gen_vec 4) (fun v ->
      let p = Intvec.primitive v in
      Intvec.is_zero p || Intvec.content p = 1)

let prop_dot_bilinear =
  QCheck.Test.make ~name:"dot is bilinear" ~count:300
    (QCheck.triple (gen_vec 3) (gen_vec 3) (gen_vec 3))
    (fun (a, b, c) ->
      Intvec.dot (Intvec.add a b) c = Intvec.dot a c + Intvec.dot b c)

let gen_mat r c = QCheck.array_of_size (QCheck.Gen.return r) (gen_vec c)

let prop_det_transpose =
  QCheck.Test.make ~name:"det m = det m^T" ~count:200 (gen_mat 3 3) (fun m ->
      let det = Linalg_reference.determinant in
      det m = det (Intmat.transpose m))

let prop_det_product =
  QCheck.Test.make ~name:"det (a b) = det a * det b" ~count:200
    (QCheck.pair (gen_mat 3 3) (gen_mat 3 3))
    (fun (a, b) ->
      let det = Linalg_reference.determinant in
      det (Intmat.mul a b) = det a * det b)

(* Matrices of up to 4x5 with entries in [-20, 20], a third of them 0
   so that zero columns and dependent rows are common. *)
let gen_small_mat =
  let open QCheck.Gen in
  let entry = frequency [ (1, return 0); (2, int_range (-20) 20) ] in
  QCheck.make ~print:Intmat.to_string
    ( int_range 0 4 >>= fun r ->
      int_range 1 5 >>= fun c -> array_repeat r (array_repeat c entry) )

let prop_reference_agrees =
  QCheck.Test.make ~name:"basis and rank = the rational reference"
    ~count:1000 gen_small_mat (fun m ->
      Intmat.rank m = Linalg_reference.rank m
      && List.equal Intvec.equal (Nullspace.basis m)
           (Linalg_reference.basis m))

let prop_nullspace_orthogonal =
  QCheck.Test.make ~name:"nullspace vectors satisfy a x = 0" ~count:300
    (gen_mat 2 4)
    (fun m ->
      List.for_all (fun x -> Nullspace.member m x) (Nullspace.basis m))

let prop_nullspace_dimension =
  QCheck.Test.make ~name:"nullity = cols - rank" ~count:300 (gen_mat 2 4)
    (fun m ->
      List.length (Nullspace.basis m) = Intmat.cols m - Intmat.rank m)

let gen_primitive_vec n =
  QCheck.map
    ~rev:(fun v -> v)
    (fun v ->
      let v = Array.map (fun x -> (x mod 9) - 4) v in
      if Intvec.is_zero v then Intvec.unit n 0 else Intvec.primitive v)
    (gen_vec n)

let prop_unimodular_completion =
  QCheck.Test.make ~name:"primitive completion is unimodular with row 0 = y"
    ~count:400 (gen_primitive_vec 4) (fun y ->
      let m = Unimodular.complete_primitive y in
      Linalg_reference.is_unimodular m && Intvec.equal (Intmat.row m 0) y)

let prop_rank_bounds =
  QCheck.Test.make ~name:"rank bounded by dims" ~count:300 (gen_mat 3 4)
    (fun m ->
      let r = Intmat.rank m in
      r >= 0 && r <= min (Intmat.rows m) (Intmat.cols m))

let props =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_canonical_idempotent;
      prop_canonical_scale_invariant;
      prop_canonical_negation_invariant;
      prop_primitive_content;
      prop_dot_bilinear;
      prop_det_transpose;
      prop_det_product;
      prop_nullspace_orthogonal;
      prop_nullspace_dimension;
      prop_unimodular_completion;
      prop_rank_bounds;
      prop_reference_agrees;
    ]

let () =
  Alcotest.run "linalg"
    [
      ( "intvec",
        [
          Alcotest.test_case "construction" `Quick test_basic_construction;
          Alcotest.test_case "unit out of range" `Quick test_unit_out_of_range;
          Alcotest.test_case "arithmetic" `Quick test_arith;
          Alcotest.test_case "dot mismatch" `Quick test_dot_mismatch;
          Alcotest.test_case "gcd/content" `Quick test_gcd_content;
          Alcotest.test_case "canonical" `Quick test_canonical;
          Alcotest.test_case "compare" `Quick test_compare_order;
          Alcotest.test_case "pretty printing" `Quick test_pp;
          Alcotest.test_case "checked arithmetic" `Quick test_checked;
        ] );
      ( "rat",
        [
          Alcotest.test_case "canonical form" `Quick test_rat_canonical;
          Alcotest.test_case "arithmetic" `Quick test_rat_arith;
        ] );
      ( "intmat",
        [
          Alcotest.test_case "basics" `Quick test_mat_basic;
          Alcotest.test_case "multiplication" `Quick test_mat_mul;
          Alcotest.test_case "determinant" `Quick test_determinant;
          Alcotest.test_case "rank" `Quick test_rank;
          Alcotest.test_case "transpose" `Quick test_transpose;
          Alcotest.test_case "echelon" `Quick test_echelon;
          Alcotest.test_case "overflow is named" `Quick test_overflow;
        ] );
      ( "nullspace",
        [
          Alcotest.test_case "simple" `Quick test_nullspace_simple;
          Alcotest.test_case "paper figure 2" `Quick test_nullspace_paper_example;
          Alcotest.test_case "rational entries" `Quick test_nullspace_rational_entries;
          Alcotest.test_case "left basis" `Quick test_left_basis;
        ] );
      ( "unimodular",
        [
          Alcotest.test_case "examples" `Quick test_complete_primitive_examples;
          Alcotest.test_case "rejects non-primitive" `Quick test_complete_primitive_rejects;
          Alcotest.test_case "complete rows" `Quick test_complete_rows;
          Alcotest.test_case "rejects dependent rows" `Quick test_complete_rows_dependent;
        ] );
      ("properties", props);
    ]
