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

(* Drives a cursor to the end of input, describing each token. *)
let tokens src =
  let c = Lexer.create src in
  let rec go acc =
    let acc = Lexer.describe c :: acc in
    if c.Lexer.token = Lexer.Eof then List.rev acc
    else begin
      Lexer.advance c;
      go acc
    end
  in
  go []

let test_lexer_basics () =
  Alcotest.(check int) "token count" 8 (List.length (tokens "array A[4] elem 8"));
  Alcotest.(check (list string))
    "loop header"
    [ "'for'"; "identifier \"i\""; "'='"; "integer 0"; "'..'"; "integer 63"; "end of input" ]
    (tokens "for i = 0 .. 63");
  Alcotest.(check (list string))
    "arithmetic"
    [ "integer 2"; "'*'"; "identifier \"i\""; "'-'"; "identifier \"j\""; "end of input" ]
    (tokens "2*i - j")

let test_lexer_comments_and_positions () =
  let c = Lexer.create "# all comment\n  nest" in
  Alcotest.(check (triple string int int))
    "comment skipped" ("'nest'", 2, 3)
    (Lexer.describe c, c.Lexer.line, Lexer.col c);
  Lexer.advance c;
  Alcotest.(check bool) "then eof" true (c.Lexer.token = Lexer.Eof);
  Alcotest.(check (list string)) "only eof in pure comment" [ "end of input" ]
    (tokens "# nothing here")

let test_lexer_errors () =
  (try
     ignore (tokens "a ? b");
     Alcotest.fail "expected lexer error"
   with Lexer.Error (msg, 1, 3) ->
     Alcotest.(check string) "names the char" "illegal character '?'" msg);
  try
    ignore (tokens "a . b");
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

let check_error ?col src expected_line expected_fragment =
  match Parser.parse ~name:"t" src with
  | _ -> Alcotest.failf "expected parse error for %S" src
  | exception Parser.Error (msg, line, c) ->
    Alcotest.(check int) ("line of error in " ^ src) expected_line line;
    Option.iter (fun col -> Alcotest.(check int) ("column of error in " ^ src) col c) col;
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
  check_error "array A[4][4]\nnest n:\n for i = 0 .. 3\n  load A[i]" 0 "rank";
  (* lexical errors are parse errors too, and the first error in
     source order is the one reported *)
  check_error ~col:1 "a ? b" 1 "expected 'nest' or end of input, found identifier \"a\"";
  check_error ~col:12 "array A[4] ?" 1 "illegal character '?'";
  check_error ~col:10 "array A[4]\nnest n:\n for i = 0 .. 3\n  load A[k] ?" 4
    "unknown loop variable k";
  (* an unknown variable is reported at the start of its term *)
  check_error ~col:12 "array A[4]\nnest n:\n for i = 0 .. 3\n  load A[i+2*k]" 4
    "unknown loop variable k";
  (* the largest int is a legal extent; one more is a lexical error *)
  ignore
    (Parser.parse ~name:"t"
       "array A[4611686018427387903]\nnest n:\n for i = 0 .. 3\n  load A[i]");
  check_error ~col:9
    "array A[4611686018427387904]\nnest n:\n for i = 0 .. 3\n  load A[i]" 1
    "number too large: 4611686018427387904"

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

(* dune runtest runs from test/, dune exec from the workspace root *)
let example file =
  let candidates = [ "../examples/programs/" ^ file; "examples/programs/" ^ file ] in
  match List.find_opt Sys.file_exists candidates with
  | Some path -> path
  | None -> Alcotest.failf "example %s not found" file

let example_files = [ "fig2.mlo"; "matmul.mlo"; "nonuniform.mlo" ]

(* Parsing a printed program gives back the same program, and printing
   that gives back the same bytes. *)
let check_roundtrip label prog =
  let printed = Parser.to_source prog in
  let reparsed = Parser.parse ~name:(Program.name prog) printed in
  Alcotest.(check bool) (label ^ " round trips") true (program_equal prog reparsed);
  Alcotest.(check string) (label ^ " reprints") printed (Parser.to_source reparsed)

let test_roundtrip_workloads () =
  (* every benchmark program and its simulation-size version, the
     scale and hard families, and the shipped examples *)
  List.iter
    (fun spec ->
      let name = spec.Mlo_workloads.Spec.name in
      check_roundtrip name spec.Mlo_workloads.Spec.program;
      check_roundtrip (name ^ " (sim)") spec.Mlo_workloads.Spec.sim_program)
    (Mlo_workloads.Suite.all ()
    @ [ Mlo_workloads.Suite.scale 100; Mlo_workloads.Suite.hard 80 ]);
  List.iter
    (fun file -> check_roundtrip file (Parser.parse_file (example file)))
    example_files

(* The small programs the generated-program properties draw *)
let generated seed =
  Mlo_workloads.Random_program.generate
    {
      Mlo_workloads.Random_program.default with
      Mlo_workloads.Random_program.seed;
      num_arrays = 6;
      num_nests = 8;
      extent = 16;
      sim_extent = 16;
    }

let prop_roundtrip_generated =
  QCheck.Test.make ~name:"generated programs survive print-then-parse"
    ~count:40 QCheck.small_nat (fun seed ->
      let prog = generated seed in
      let reparsed =
        Parser.parse ~name:(Program.name prog) (Parser.to_source prog)
      in
      program_equal prog reparsed)

(* ------------------------------------------------------------------ *)
(* Differential: the reference parser                                   *)
(* ------------------------------------------------------------------ *)

let example_sources =
  lazy
    (List.map
       (fun file -> In_channel.with_open_bin (example file) In_channel.input_all)
       example_files)

(* One character deleted, inserted or replaced in an example program or
   a generated one; the inserted characters cover every token class and
   some that start none. *)
let edited_source =
  let open QCheck.Gen in
  let* base = int_bound 3 in
  let* seed = small_nat in
  let* kind = int_bound 2 in
  let* pos = nat in
  let+ ch = oneofl (List.of_seq (String.to_seq "aijkAQ0179_[]=.+-*:# \n?")) in
  let src =
    if base < 3 then List.nth (Lazy.force example_sources) base
    else Parser.to_source (generated seed)
  in
  let n = String.length src in
  let i = pos mod (if kind = 1 then n + 1 else n) in
  match kind with
  | 0 -> String.sub src 0 i ^ String.sub src (i + 1) (n - i - 1)
  | 1 -> String.sub src 0 i ^ String.make 1 ch ^ String.sub src i (n - i)
  | _ -> String.mapi (fun j c -> if j = i then ch else c) src

(* Both parsers accept, to the same program and the same printed bytes,
   or both reject; the shipped parser reports the reference's error or
   one strictly earlier in the source. *)
let prop_matches_reference =
  QCheck.Test.make ~name:"one-character edits parse as the reference parses"
    ~count:1000
    (QCheck.make ~print:Fun.id edited_source)
    (fun src ->
      let module Ref = Mlo_oracle.Parser_reference in
      let shipped =
        match Parser.parse ~name:"t" src with
        | prog -> Ok prog
        | exception Parser.Error (msg, line, col) -> Error (msg, line, col)
      in
      let reference =
        match Ref.parse ~name:"t" src with
        | prog -> Ok prog
        | exception Ref.Error (msg, line, col) -> Error (msg, line, col)
      in
      let show = function
        | Ok _ -> "accepted"
        | Error (msg, line, col) -> Printf.sprintf "%d:%d: %s" line col msg
      in
      let agree =
        match (shipped, reference) with
        | Ok p, Ok q -> program_equal p q && Parser.to_source p = Parser.to_source q
        | Error ((_, line, col) as e), Error ((_, rline, rcol) as r) ->
          e = r || (line >= 1 && compare (line, col) (rline, rcol) < 0)
        | Ok _, Error _ | Error _, Ok _ -> false
      in
      agree
      || QCheck.Test.fail_reportf "shipped: %s@.reference: %s" (show shipped)
           (show reference))

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
      (* Alcotest pads every group name to the longest and cuts test
         names to what is left of the line; a group name longer than
         "roundtrip" would change how the others print. *)
      ("reference", [ QCheck_alcotest.to_alcotest prop_matches_reference ]);
    ]
