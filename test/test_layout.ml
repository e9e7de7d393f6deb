(* Tests for hyperplane layouts, locality derivation and data
   transformations. *)

module Intvec = Mlo_linalg.Intvec
module Intmat = Mlo_linalg.Intmat
module Hyperplane = Mlo_layout.Hyperplane
module Layout = Mlo_layout.Layout
module Locality = Mlo_layout.Locality
module Transform = Mlo_layout.Transform
module Affine = Mlo_ir.Affine
module Access = Mlo_ir.Access

let vec = Alcotest.testable (Fmt.of_to_string Intvec.to_string) Intvec.equal
let layout = Alcotest.testable Layout.pp Layout.equal

(* ------------------------------------------------------------------ *)
(* Hyperplane                                                           *)
(* ------------------------------------------------------------------ *)

let test_hyperplane_canonical () =
  Alcotest.(check bool) "scaling collapses" true
    (Hyperplane.equal (Hyperplane.of_list [ 2; -2 ]) (Hyperplane.of_list [ 1; -1 ]));
  Alcotest.(check bool) "negation collapses" true
    (Hyperplane.equal (Hyperplane.of_list [ -1; 1 ]) (Hyperplane.of_list [ 1; -1 ]));
  Alcotest.check_raises "zero rejected"
    (Invalid_argument "Hyperplane.make: zero vector") (fun () ->
      ignore (Hyperplane.of_list [ 0; 0 ]))

let test_hyperplane_membership () =
  (* the paper's example: (5 3) and (7 5) share the diagonal (1 -1);
     (5 3) and (5 4) do not *)
  let d = Hyperplane.diagonal 2 in
  Alcotest.(check bool) "same diagonal" true
    (Hyperplane.same_member d [| 5; 3 |] [| 7; 5 |]);
  Alcotest.(check bool) "different diagonals" false
    (Hyperplane.same_member d [| 5; 3 |] [| 5; 4 |]);
  Alcotest.(check int) "constant" 2 (Hyperplane.constant_of d [| 5; 3 |])

let test_hyperplane_row_col () =
  let r = Hyperplane.row_major 2 in
  Alcotest.(check bool) "same row" true (Hyperplane.same_member r [| 3; 0 |] [| 3; 9 |]);
  Alcotest.(check bool) "different rows" false
    (Hyperplane.same_member r [| 3; 0 |] [| 4; 0 |]);
  Alcotest.(check string) "describe row" "row-major" (Hyperplane.describe r);
  Alcotest.(check string) "describe col" "column-major"
    (Hyperplane.describe (Hyperplane.col_major 2));
  Alcotest.(check string) "describe diag" "diagonal"
    (Hyperplane.describe (Hyperplane.diagonal 2));
  Alcotest.(check string) "describe other" "(1 2)"
    (Hyperplane.describe (Hyperplane.of_list [ 1; 2 ]))

(* ------------------------------------------------------------------ *)
(* Layout                                                               *)
(* ------------------------------------------------------------------ *)

let test_layout_structure () =
  let l = Layout.row_major 3 in
  Alcotest.(check int) "rank" 3 (Layout.rank l);
  Alcotest.(check int) "k-1 hyperplanes" 2 (List.length (Layout.hyperplanes l));
  (* paper: 3-D column-major = hyperplanes (0 0 1) and (0 1 0) *)
  let c = Layout.col_major 3 in
  (match Layout.hyperplanes c with
  | [ y1; y2 ] ->
    Alcotest.check vec "Y1" [| 0; 0; 1 |] (Hyperplane.to_vec y1);
    Alcotest.check vec "Y2" [| 0; 1; 0 |] (Hyperplane.to_vec y2)
  | _ -> Alcotest.fail "expected two hyperplanes");
  Alcotest.(check int) "trivial rank" 1 (Layout.rank Layout.trivial);
  (* the default layout of every rank is row_major, rank 1 included *)
  let one = Layout.row_major 1 in
  Alcotest.(check bool) "row_major 1 = trivial" true
    (Layout.equal one Layout.trivial);
  Alcotest.(check int) "same hash" (Layout.hash Layout.trivial) (Layout.hash one);
  Alcotest.(check string) "same description" "linear" (Layout.describe one)

let test_layout_validation () =
  Alcotest.check_raises "wrong count"
    (Invalid_argument "Layout.make: rank 3 needs 2 hyperplanes, got 1")
    (fun () -> ignore (Layout.make ~rank:3 [ Hyperplane.row_major 3 ]));
  Alcotest.check_raises "dependent"
    (Invalid_argument "Layout.make: hyperplanes linearly dependent") (fun () ->
      ignore
        (Layout.make ~rank:3
           [ Hyperplane.of_list [ 1; 1; 0 ]; Hyperplane.of_list [ 2; 2; 0 ] ]))

let test_layout_colocated () =
  (* 3-D column-major: elements sharing all but the first index are
     colocated *)
  let c = Layout.col_major 3 in
  Alcotest.(check bool) "same column" true
    (Layout.colocated c [| 0; 2; 3 |] [| 9; 2; 3 |]);
  Alcotest.(check bool) "different column" false
    (Layout.colocated c [| 0; 2; 3 |] [| 0; 3; 3 |])

let test_layout_serves () =
  Alcotest.(check bool) "row-major serves row walk" true
    (Layout.serves (Layout.row_major 2) [| 0; 1 |]);
  Alcotest.(check bool) "row-major fails column walk" false
    (Layout.serves (Layout.row_major 2) [| 1; 0 |]);
  Alcotest.(check bool) "diagonal serves diagonal walk" true
    (Layout.serves Layout.diagonal2 [| 1; 1 |]);
  Alcotest.(check bool) "temporal served by anything" true
    (Layout.serves Layout.diagonal2 [| 0; 0 |])

(* ------------------------------------------------------------------ *)
(* Locality                                                             *)
(* ------------------------------------------------------------------ *)

let fig2_q1 () =
  Access.read "Q1" [ Affine.make [ 1; 1 ] 0; Affine.make [ 0; 1 ] 0 ]

let fig2_q2 () =
  Access.read "Q2" [ Affine.make [ 1; 1 ] 0; Affine.make [ 1; 0 ] 0 ]

let test_locality_paper_example () =
  (* the paper's Section 2 result: Q1 wants (1 -1), Q2 wants (0 1) *)
  (match Locality.preferred_layout (fig2_q1 ()) with
  | Some l -> Alcotest.check layout "Q1 diagonal" Layout.diagonal2 l
  | None -> Alcotest.fail "Q1 should be constrained");
  match Locality.preferred_layout (fig2_q2 ()) with
  | Some l ->
    Alcotest.check layout "Q2 column-major" (Layout.col_major 2) l
  | None -> Alcotest.fail "Q2 should be constrained"

let test_locality_interchanged () =
  (* the paper: after interchanging the two loops, Q1 wants (0 1) and Q2
     wants (1 -1) *)
  let perm = [| 1; 0 |] in
  let q1 = Access.permute perm (fig2_q1 ()) in
  let q2 = Access.permute perm (fig2_q2 ()) in
  (match Locality.preferred_layout q1 with
  | Some l -> Alcotest.check layout "Q1 column-major" (Layout.col_major 2) l
  | None -> Alcotest.fail "constrained");
  match Locality.preferred_layout q2 with
  | Some l -> Alcotest.check layout "Q2 diagonal" Layout.diagonal2 l
  | None -> Alcotest.fail "constrained"

let test_locality_temporal () =
  (* A[i][i] in an (i, j) nest: innermost j never moves the element *)
  let a = Access.read "A" [ Affine.make [ 1; 0 ] 0; Affine.make [ 1; 0 ] 0 ] in
  Alcotest.(check (option layout)) "temporal -> None" None
    (Locality.preferred_layout a);
  Alcotest.(check int) "temporal scores 5" 5 (Locality.score Layout.diagonal2 a)

let test_locality_scores () =
  let q1 = fig2_q1 () in
  Alcotest.(check int) "serving layout scores 4" 4
    (Locality.score Layout.diagonal2 q1);
  Alcotest.(check int) "non-serving layout scores 0" 0
    (Locality.score (Layout.row_major 2) q1)

let test_candidate_layouts () =
  let q1 = fig2_q1 () and q2 = fig2_q2 () in
  let cands = Locality.candidate_layouts ~rank:2 [ q1; q2 ] in
  Alcotest.(check bool) "contains diagonal" true
    (List.exists (Layout.equal Layout.diagonal2) cands);
  Alcotest.(check bool) "contains column-major" true
    (List.exists (Layout.equal (Layout.col_major 2)) cands);
  Alcotest.(check bool) "contains row-major default" true
    (List.exists (Layout.equal (Layout.row_major 2)) cands);
  (* dedup: same access twice adds nothing *)
  Alcotest.(check int) "dedup" (List.length cands)
    (List.length (Locality.candidate_layouts ~rank:2 [ q1; q1; q2 ]))

(* ------------------------------------------------------------------ *)
(* Transform                                                            *)
(* ------------------------------------------------------------------ *)

let test_transform_identity () =
  let t = Transform.identity ~extents:[| 4; 6 |] in
  Alcotest.(check int) "footprint" 24 (Transform.footprint_cells t);
  Alcotest.(check (float 1e-9)) "no expansion" 1.0 (Transform.expansion t);
  (* row-major linearization *)
  Alcotest.(check int) "cell (0,0)" 0 (Transform.cell_index t [| 0; 0 |]);
  Alcotest.(check int) "cell (0,1)" 1 (Transform.cell_index t [| 0; 1 |]);
  Alcotest.(check int) "cell (1,0)" 6 (Transform.cell_index t [| 1; 0 |])

let test_transform_col_major () =
  let t = Transform.make (Layout.col_major 2) ~extents:[| 4; 6 |] in
  Alcotest.(check int) "footprint" 24 (Transform.footprint_cells t);
  (* same column -> consecutive cells *)
  let a = Transform.cell_index t [| 0; 0 |] in
  let b = Transform.cell_index t [| 1; 0 |] in
  Alcotest.(check int) "column neighbours adjacent" 1 (abs (a - b));
  let c = Transform.cell_index t [| 0; 1 |] in
  Alcotest.(check bool) "row neighbours far" true (abs (a - c) >= 4)

let test_transform_diagonal () =
  let t = Transform.make Layout.diagonal2 ~extents:[| 5; 5 |] in
  (* elements on one diagonal are contiguous *)
  let a = Transform.cell_index t [| 1; 1 |] in
  let b = Transform.cell_index t [| 2; 2 |] in
  Alcotest.(check int) "diagonal neighbours adjacent" 1 (abs (a - b));
  (* the bounding box of a sheared square doubles (paper footnote 2) *)
  Alcotest.(check bool) "expansion cost" true (Transform.expansion t > 1.0)

let test_transform_injective () =
  let layouts =
    [ Layout.row_major 2; Layout.col_major 2; Layout.diagonal2; Layout.anti_diagonal2 ]
  in
  List.iter
    (fun l ->
      let t = Transform.make l ~extents:[| 7; 5 |] in
      let seen = Hashtbl.create 64 in
      for i = 0 to 6 do
        for j = 0 to 4 do
          let c = Transform.cell_index t [| i; j |] in
          Alcotest.(check bool)
            (Printf.sprintf "%s cell in range" (Layout.describe l))
            true
            (c >= 0 && c < Transform.footprint_cells t);
          Alcotest.(check bool)
            (Printf.sprintf "%s injective" (Layout.describe l))
            false (Hashtbl.mem seen c);
          Hashtbl.add seen c ()
        done
      done)
    layouts

let test_transform_validation () =
  Alcotest.check_raises "rank mismatch"
    (Invalid_argument "Transform.make: extents rank differs from layout rank")
    (fun () -> ignore (Transform.make Layout.diagonal2 ~extents:[| 4 |]))

(* ------------------------------------------------------------------ *)
(* Properties                                                           *)
(* ------------------------------------------------------------------ *)

let gen_delta =
  QCheck.map
    (fun (a, b) -> [| a; b |])
    QCheck.(pair (int_range (-4) 4) (int_range (-4) 4))

let prop_derived_layout_serves =
  QCheck.Test.make ~name:"derived layout serves its delta" ~count:300 gen_delta
    (fun delta ->
      match Locality.layout_from_delta delta with
      | None -> Intvec.is_zero delta
      | Some l -> Layout.serves l delta)

let prop_colocated_iff_serves =
  QCheck.Test.make ~name:"colocated elements differ by a served delta"
    ~count:300
    QCheck.(pair gen_delta gen_delta)
    (fun (d1, d2) ->
      let l = Layout.diagonal2 in
      Layout.colocated l d1 d2 = Layout.serves l (Intvec.sub d2 d1))

let prop_transform_injective =
  QCheck.Test.make ~name:"transforms are injective on the data space"
    ~count:100
    QCheck.(pair (int_range (-3) 3) (int_range (-3) 3))
    (fun (a, b) ->
      let v = [| (if a = 0 && b = 0 then 1 else a); b |] in
      let l = Layout.of_hyperplane (Hyperplane.make v) in
      let t = Transform.make l ~extents:[| 6; 6 |] in
      let seen = Hashtbl.create 36 in
      let ok = ref true in
      for i = 0 to 5 do
        for j = 0 to 5 do
          let c = Transform.cell_index t [| i; j |] in
          if Hashtbl.mem seen c then ok := false;
          Hashtbl.add seen c ()
        done
      done;
      !ok)

let props =
  List.map QCheck_alcotest.to_alcotest
    [ prop_derived_layout_serves; prop_colocated_iff_serves; prop_transform_injective ]

let () =
  Alcotest.run "layout"
    [
      ( "hyperplane",
        [
          Alcotest.test_case "canonical" `Quick test_hyperplane_canonical;
          Alcotest.test_case "membership" `Quick test_hyperplane_membership;
          Alcotest.test_case "row/col" `Quick test_hyperplane_row_col;
        ] );
      ( "layout",
        [
          Alcotest.test_case "structure" `Quick test_layout_structure;
          Alcotest.test_case "validation" `Quick test_layout_validation;
          Alcotest.test_case "colocated" `Quick test_layout_colocated;
          Alcotest.test_case "serves" `Quick test_layout_serves;
        ] );
      ( "locality",
        [
          Alcotest.test_case "paper figure 2" `Quick test_locality_paper_example;
          Alcotest.test_case "paper figure 2 interchanged" `Quick
            test_locality_interchanged;
          Alcotest.test_case "temporal reuse" `Quick test_locality_temporal;
          Alcotest.test_case "scores" `Quick test_locality_scores;
          Alcotest.test_case "candidate layouts" `Quick test_candidate_layouts;
        ] );
      ( "transform",
        [
          Alcotest.test_case "identity" `Quick test_transform_identity;
          Alcotest.test_case "column-major" `Quick test_transform_col_major;
          Alcotest.test_case "diagonal" `Quick test_transform_diagonal;
          Alcotest.test_case "injectivity" `Quick test_transform_injective;
          Alcotest.test_case "validation" `Quick test_transform_validation;
        ] );
      ("properties", props);
    ]
