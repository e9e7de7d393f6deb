(* Tests for the textual loop-nest language: lexer, parser, printer, and
   the parse/print round-trip. *)

module Lexer = Mlo_lang.Lexer
module Parser = Mlo_lang.Parser
module Program = Mlo_ir.Program
module Array_info = Mlo_ir.Array_info
module Loop_nest = Mlo_ir.Loop_nest
module Access = Mlo_ir.Access
module Affine = Mlo_ir.Affine

let fig2_source =
  {|
# the paper's Figure 2
array Q1[127][64]
array Q2[127][64]

nest fig2:
  for i1 = 0 .. 63
    for i2 = 0 .. 63
      load Q1[i1+i2][i2]
      load Q2[i1+i2][i1]
|}

(* ------------------------------------------------------------------ *)
(* Lexer                                                                *)
(* ------------------------------------------------------------------ *)

let token_list src =
  List.map (fun t -> t.Lexer.token) (Lexer.tokenize src)

let test_lexer_basics () =
  Alcotest.(check int) "token count" 8
    (List.length (token_list "array A[4] elem 8"));
  (match token_list "for i = 0 .. 63" with
  | [ Lexer.Kw_for; Lexer.Ident "i"; Lexer.Equals; Lexer.Int 0; Lexer.Dotdot;
      Lexer.Int 63; Lexer.Eof ] -> ()
  | _ -> Alcotest.fail "unexpected tokens");
  match token_list "2*i - j" with
  | [ Lexer.Int 2; Lexer.Star; Lexer.Ident "i"; Lexer.Minus; Lexer.Ident "j";
      Lexer.Eof ] -> ()
  | _ -> Alcotest.fail "unexpected arithmetic tokens"

let test_lexer_comments_and_positions () =
  let toks = Lexer.tokenize "# all comment\n  nest" in
  (match toks with
  | [ { Lexer.token = Lexer.Kw_nest; line = 2; col = 3 }; { Lexer.token = Lexer.Eof; _ } ] -> ()
  | _ -> Alcotest.fail "comment not skipped or position wrong");
  Alcotest.(check int) "only eof in pure comment" 1
    (List.length (Lexer.tokenize "# nothing here"))

let test_lexer_errors () =
  (try
     ignore (Lexer.tokenize "a ? b");
     Alcotest.fail "expected lexer error"
   with Lexer.Error (msg, 1, 3) ->
     Alcotest.(check bool) "mentions char" true
       (String.length msg > 0));
  try
    ignore (Lexer.tokenize "a . b");
    Alcotest.fail "expected dotdot error"
  with Lexer.Error (_, 1, 3) -> ()

(* ------------------------------------------------------------------ *)
(* Parser                                                               *)
(* ------------------------------------------------------------------ *)

let test_parse_fig2 () =
  let prog = Parser.parse ~name:"fig2" fig2_source in
  Alcotest.(check (list string)) "arrays" [ "Q1"; "Q2" ] (Program.array_names prog);
  let nest = (Program.nests prog).(0) in
  Alcotest.(check int) "depth" 2 (Loop_nest.depth nest);
  Alcotest.(check int) "trip count (inclusive bounds)" (64 * 64)
    (Loop_nest.trip_count nest);
  let q1 = (Loop_nest.accesses nest).(0) in
  Alcotest.(check string) "array" "Q1" (Access.array_name q1);
  (* Q1[i1+i2][i2]: the access matrix of the paper *)
  Alcotest.(check bool) "matrix" true
    (Mlo_linalg.Intmat.equal (Access.matrix q1)
       (Mlo_linalg.Intmat.of_lists [ [ 1; 1 ]; [ 0; 1 ] ]))

let test_parse_expressions () =
  let prog =
    Parser.parse ~name:"t"
      {|
array A[200]
nest n:
  for i = 0 .. 9
    load A[3*i - 2]
    store A[-i + 19]
|}
  in
  let nest = (Program.nests prog).(0) in
  let a0 = (Loop_nest.accesses nest).(0) in
  let a1 = (Loop_nest.accesses nest).(1) in
  Alcotest.(check bool) "3*i - 2" true
    (Affine.equal a0.Access.indices.(0) (Affine.make [ 3 ] (-2)));
  Alcotest.(check bool) "-i + 19" true
    (Affine.equal a1.Access.indices.(0) (Affine.make [ -1 ] 19));
  Alcotest.(check bool) "store" true (Access.is_write a1)

let test_parse_elem_size () =
  let prog =
    Parser.parse ~name:"t"
      "array A[4][4] elem 8\nnest n:\n for i = 0 .. 3\n  for j = 0 .. 3\n   load A[i][j]"
  in
  Alcotest.(check int) "elem size" 8
    (Array_info.elem_size (Program.find_array prog "A"))

let test_parse_nonzero_lower_bound () =
  let prog =
    Parser.parse ~name:"t"
      "array A[10]\nnest n:\n for i = 2 .. 8\n  load A[i]"
  in
  let nest = (Program.nests prog).(0) in
  Alcotest.(check int) "trips" 7 (Loop_nest.trip_count nest)

(* Str is not a dependency; do the substring search by hand. *)
let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let check_error src expected_line expected_fragment =
  match Parser.parse ~name:"t" src with
  | _ -> Alcotest.failf "expected parse error for %S" src
  | exception Parser.Error (msg, line, _col) ->
    Alcotest.(check int) ("line of error in " ^ src) expected_line line;
    Alcotest.(check bool)
      (Printf.sprintf "message %S mentions %S" msg expected_fragment)
      true
      (contains msg expected_fragment)

let test_parse_errors () =
  check_error "array A[4]\nnest n:\n for i = 0 .. 3\n  load A[k]" 4
    "unknown loop variable k";
  check_error "array A[4]\nnest n:\n for i = 0 .. 3\n  load B[i]" 0
    "undeclared array B";
  check_error "nest n:\n for i = 0 .. 3\n  load A[i]" 0 "undeclared";
  check_error "array A[4]\nnest n:\n for i = 0 .. 3" 3 "expected";
  check_error "array A[]\nnest n:\n for i = 0 .. 3\n  load A[i]" 1 "expected integer";
  check_error "array A[4][4]\nnest n:\n for i = 0 .. 3\n  load A[i]" 0 "rank"

let test_parse_duplicate_loop_var () =
  check_error
    "array A[4][4]\nnest n:\n for i = 0 .. 3\n  for i = 0 .. 3\n   load A[i][i]"
    2 "duplicate"

(* Every legal loop order of a nest is enumerated, so nests deeper than
   6 are an input error at the nest, not a crash further down. *)
let deep_source =
  "array A[2][2][2][2][2][2][2]\n\
   nest deep:\n\
  \ for a = 0 .. 1\n\
  \  for b = 0 .. 1\n\
  \   for c = 0 .. 1\n\
  \    for d = 0 .. 1\n\
  \     for e = 0 .. 1\n\
  \      for f = 0 .. 1\n\
  \       for g = 0 .. 1\n\
  \        store A[a][b][c][d][e][f][g]"

let test_parse_depth_limit () = check_error deep_source 2 "maximum depth of 6"

(* ------------------------------------------------------------------ *)
(* Round trip                                                           *)
(* ------------------------------------------------------------------ *)

let program_equal p1 p2 =
  Program.name p1 = Program.name p2
  && Array.for_all2 Array_info.equal (Program.arrays p1) (Program.arrays p2)
  && Array.length (Program.nests p1) = Array.length (Program.nests p2)
  && Array.for_all2 Loop_nest.equal (Program.nests p1) (Program.nests p2)

let test_roundtrip_fig2 () =
  let prog = Parser.parse ~name:"fig2" fig2_source in
  let printed = Parser.to_source prog in
  let reparsed = Parser.parse ~name:"fig2" printed in
  Alcotest.(check bool) "round trip" true (program_equal prog reparsed)

let test_roundtrip_workloads () =
  (* every benchmark program survives print-then-parse *)
  List.iter
    (fun spec ->
      let prog = spec.Mlo_workloads.Spec.program in
      let printed = Parser.to_source prog in
      let reparsed = Parser.parse ~name:(Program.name prog) printed in
      Alcotest.(check bool)
        (spec.Mlo_workloads.Spec.name ^ " round trips")
        true (program_equal prog reparsed))
    (Mlo_workloads.Suite.all ())

let prop_roundtrip_generated =
  QCheck.Test.make ~name:"generated programs survive print-then-parse"
    ~count:40 QCheck.small_nat (fun seed ->
      let params =
        {
          Mlo_workloads.Random_program.default with
          Mlo_workloads.Random_program.seed;
          num_arrays = 6;
          num_nests = 8;
          extent = 16;
          sim_extent = 16;
        }
      in
      let prog = Mlo_workloads.Random_program.generate params in
      let reparsed =
        Parser.parse ~name:(Program.name prog) (Parser.to_source prog)
      in
      program_equal prog reparsed)

let () =
  Alcotest.run "lang"
    [
      ( "lexer",
        [
          Alcotest.test_case "basics" `Quick test_lexer_basics;
          Alcotest.test_case "comments and positions" `Quick
            test_lexer_comments_and_positions;
          Alcotest.test_case "errors" `Quick test_lexer_errors;
        ] );
      ( "parser",
        [
          Alcotest.test_case "figure 2" `Quick test_parse_fig2;
          Alcotest.test_case "expressions" `Quick test_parse_expressions;
          Alcotest.test_case "elem size" `Quick test_parse_elem_size;
          Alcotest.test_case "nonzero lower bound" `Quick
            test_parse_nonzero_lower_bound;
          Alcotest.test_case "errors carry positions" `Quick test_parse_errors;
          Alcotest.test_case "duplicate loop variable" `Quick
            test_parse_duplicate_loop_var;
          Alcotest.test_case "nest deeper than 6" `Quick test_parse_depth_limit;
        ] );
      ( "roundtrip",
        [
          Alcotest.test_case "figure 2" `Quick test_roundtrip_fig2;
          Alcotest.test_case "benchmark suite" `Quick test_roundtrip_workloads;
          QCheck_alcotest.to_alcotest prop_roundtrip_generated;
        ] );
    ]
