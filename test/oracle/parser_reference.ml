(* Reference parser for the loop-nest language: a lexer that tokenizes
   the whole source into a list of located tokens, and a
   recursive-descent parser over that list that builds an index-term
   AST per access and folds it into affine expressions once the nest's
   loops are known.  test_lang's differential property compares
   Mlo_lang.Parser against it. *)

module Affine = Mlo_ir.Affine
module Access = Mlo_ir.Access
module Loop_nest = Mlo_ir.Loop_nest
module Array_info = Mlo_ir.Array_info
module Program = Mlo_ir.Program

exception Error of string * int * int

(* ------------------------------------------------------------------ *)
(* Lexer                                                                *)
(* ------------------------------------------------------------------ *)

type token =
  | Ident of string
  | Int of int
  | Kw_array
  | Kw_elem
  | Kw_nest
  | Kw_for
  | Kw_load
  | Kw_store
  | Lbracket
  | Rbracket
  | Equals
  | Dotdot
  | Plus
  | Minus
  | Star
  | Colon
  | Eof

type located = { token : token; line : int; col : int }

let keyword = function
  | "array" -> Some Kw_array
  | "elem" -> Some Kw_elem
  | "nest" -> Some Kw_nest
  | "for" -> Some Kw_for
  | "load" -> Some Kw_load
  | "store" -> Some Kw_store
  | _ -> None

let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9')

let is_digit c = c >= '0' && c <= '9'

let tokenize src =
  let n = String.length src in
  let line = ref 1 and col = ref 1 in
  let out = ref [] in
  let emit token l c = out := { token; line = l; col = c } :: !out in
  let i = ref 0 in
  let advance () =
    if !i < n then begin
      if src.[!i] = '\n' then begin
        incr line;
        col := 1
      end
      else incr col;
      incr i
    end
  in
  while !i < n do
    let c = src.[!i] in
    let l0 = !line and c0 = !col in
    if c = ' ' || c = '\t' || c = '\r' || c = '\n' then advance ()
    else if c = '#' then
      while !i < n && src.[!i] <> '\n' do
        advance ()
      done
    else if is_digit c then begin
      let start = !i in
      while !i < n && is_digit src.[!i] do
        advance ()
      done;
      let text = String.sub src start (!i - start) in
      match int_of_string_opt text with
      | Some v -> emit (Int v) l0 c0
      | None -> raise (Error (Printf.sprintf "number too large: %s" text, l0, c0))
    end
    else if is_ident_start c then begin
      let start = !i in
      while !i < n && is_ident_char src.[!i] do
        advance ()
      done;
      let text = String.sub src start (!i - start) in
      match keyword text with
      | Some kw -> emit kw l0 c0
      | None -> emit (Ident text) l0 c0
    end
    else begin
      match c with
      | '[' -> emit Lbracket l0 c0; advance ()
      | ']' -> emit Rbracket l0 c0; advance ()
      | '=' -> emit Equals l0 c0; advance ()
      | '+' -> emit Plus l0 c0; advance ()
      | '-' -> emit Minus l0 c0; advance ()
      | '*' -> emit Star l0 c0; advance ()
      | ':' -> emit Colon l0 c0; advance ()
      | '.' ->
        advance ();
        if !i < n && src.[!i] = '.' then begin
          advance ();
          emit Dotdot l0 c0
        end
        else raise (Error ("expected '..'", l0, c0))
      | _ -> raise (Error (Printf.sprintf "illegal character %C" c, l0, c0))
    end
  done;
  emit Eof !line !col;
  List.rev !out

let describe = function
  | Ident s -> Printf.sprintf "identifier %S" s
  | Int v -> Printf.sprintf "integer %d" v
  | Kw_array -> "'array'"
  | Kw_elem -> "'elem'"
  | Kw_nest -> "'nest'"
  | Kw_for -> "'for'"
  | Kw_load -> "'load'"
  | Kw_store -> "'store'"
  | Lbracket -> "'['"
  | Rbracket -> "']'"
  | Equals -> "'='"
  | Dotdot -> "'..'"
  | Plus -> "'+'"
  | Minus -> "'-'"
  | Star -> "'*'"
  | Colon -> "':'"
  | Eof -> "end of input"

(* ------------------------------------------------------------------ *)
(* Token stream                                                         *)
(* ------------------------------------------------------------------ *)

type state = { toks : located array; mutable pos : int }

let peek st = st.toks.(st.pos)

let next st =
  let t = st.toks.(st.pos) in
  if t.token <> Eof then st.pos <- st.pos + 1;
  t

let fail_at (t : located) msg = raise (Error (msg, t.line, t.col))

let expect st want =
  let t = next st in
  if t.token <> want then
    fail_at t
      (Printf.sprintf "expected %s, found %s" (describe want)
         (describe t.token))

let expect_int st =
  let t = next st in
  match t.token with
  | Int v -> v
  | Minus -> (
    let t2 = next st in
    match t2.token with
    | Int v -> -v
    | other -> fail_at t2 ("expected integer, found " ^ describe other))
  | other -> fail_at t ("expected integer, found " ^ describe other)

let expect_ident st =
  let t = next st in
  match t.token with
  | Ident s -> s
  | other -> fail_at t ("expected identifier, found " ^ describe other)

(* ------------------------------------------------------------------ *)
(* Index-expression AST (depth-independent)                             *)
(* ------------------------------------------------------------------ *)

type term = { coeff : int; var : string option; tline : int; tcol : int }

type access_ast = {
  kind : Access.kind;
  array_name : string;
  indices : term list list;
}

(* term := INT | IDENT | INT '*' IDENT, with an optional leading sign
   handled by the caller *)
let parse_term st ~sign =
  let t = peek st in
  match t.token with
  | Int v ->
    ignore (next st);
    if peek st |> fun p -> p.token = Star then begin
      ignore (next st);
      let name = expect_ident st in
      { coeff = sign * v; var = Some name; tline = t.line; tcol = t.col }
    end
    else { coeff = sign * v; var = None; tline = t.line; tcol = t.col }
  | Ident name ->
    ignore (next st);
    { coeff = sign; var = Some name; tline = t.line; tcol = t.col }
  | other -> fail_at t ("expected index term, found " ^ describe other)

let parse_expr st =
  let leading_sign =
    match (peek st).token with
    | Minus ->
      ignore (next st);
      -1
    | Plus ->
      ignore (next st);
      1
    | Int _ | Ident _ | Kw_array | Kw_elem
    | Kw_nest | Kw_for | Kw_load | Kw_store
    | Lbracket | Rbracket | Equals | Dotdot
    | Star | Colon | Eof -> 1
  in
  let first = parse_term st ~sign:leading_sign in
  let rec more acc =
    match (peek st).token with
    | Plus ->
      ignore (next st);
      more (parse_term st ~sign:1 :: acc)
    | Minus ->
      ignore (next st);
      more (parse_term st ~sign:(-1) :: acc)
    | Int _ | Ident _ | Kw_array | Kw_elem
    | Kw_nest | Kw_for | Kw_load | Kw_store
    | Lbracket | Rbracket | Equals | Dotdot
    | Star | Colon | Eof -> List.rev acc
  in
  more [ first ]

(* ------------------------------------------------------------------ *)
(* Declarations, accesses, loops                                        *)
(* ------------------------------------------------------------------ *)

let parse_decl st =
  (* 'array' already consumed *)
  let name = expect_ident st in
  let rec dims acc =
    match (peek st).token with
    | Lbracket ->
      ignore (next st);
      let e = expect_int st in
      expect st Rbracket;
      dims (e :: acc)
    | _ -> List.rev acc
  in
  let extents = dims [] in
  if extents = [] then fail_at (peek st) "array needs at least one dimension";
  let elem_size =
    match (peek st).token with
    | Kw_elem ->
      ignore (next st);
      expect_int st
    | _ -> 4
  in
  let t = peek st in
  match Array_info.make ~elem_size name extents with
  | info -> info
  | exception Invalid_argument msg -> fail_at t msg

let parse_access st =
  let kw = next st in
  let kind =
    match kw.token with
    | Kw_load -> Access.Read
    | Kw_store -> Access.Write
    | other -> fail_at kw ("expected 'load' or 'store', found " ^ describe other)
  in
  let array_name = expect_ident st in
  let rec indices acc =
    match (peek st).token with
    | Lbracket ->
      ignore (next st);
      let e = parse_expr st in
      expect st Rbracket;
      indices (e :: acc)
    | _ -> List.rev acc
  in
  let idx = indices [] in
  if idx = [] then fail_at kw "access needs at least one index";
  { kind; array_name; indices = idx }

(* loop := 'for' IDENT '=' INT '..' INT body *)
let rec parse_loop st =
  expect st Kw_for;
  let var = expect_ident st in
  expect st Equals;
  let lo = expect_int st in
  expect st Dotdot;
  let hi_inclusive = expect_int st in
  let loop = { Loop_nest.var; lo; hi = hi_inclusive + 1 } in
  match (peek st).token with
  | Kw_for ->
    let loops, accesses = parse_loop st in
    (loop :: loops, accesses)
  | Kw_load | Kw_store ->
    let rec accs acc =
      match (peek st).token with
      | Kw_load | Kw_store -> accs (parse_access st :: acc)
      | _ -> List.rev acc
    in
    ([ loop ], accs [])
  | other ->
    fail_at (peek st)
      ("expected a nested 'for' or an access, found " ^ describe other)

let materialize_access ~vars ast =
  let depth = List.length vars in
  let expr_of terms =
    List.fold_left
      (fun acc { coeff; var; tline; tcol } ->
        match var with
        | None -> Affine.add acc (Affine.const depth coeff)
        | Some name -> (
          match List.assoc_opt name vars with
          | Some d -> Affine.add acc (Affine.scale coeff (Affine.var depth d))
          | None ->
            raise (Error (Printf.sprintf "unknown loop variable %s" name, tline, tcol))))
      (Affine.const depth 0) terms
  in
  Access.make ast.kind ast.array_name (List.map expr_of ast.indices)

let parse_nest st =
  (* 'nest' already consumed *)
  let t0 = peek st in
  let name = expect_ident st in
  expect st Colon;
  let loops, access_asts = parse_loop st in
  let vars = List.mapi (fun d l -> (l.Loop_nest.var, d)) loops in
  let accesses = List.map (materialize_access ~vars) access_asts in
  match Loop_nest.make ~name loops accesses with
  | nest -> nest
  | exception Invalid_argument msg -> fail_at t0 msg

let parse ~name source =
  let toks = Array.of_list (tokenize source) in
  let st = { toks; pos = 0 } in
  let rec decls acc =
    match (peek st).token with
    | Kw_array ->
      ignore (next st);
      decls (parse_decl st :: acc)
    | _ -> List.rev acc
  in
  let arrays = decls [] in
  let rec nests acc =
    match (peek st).token with
    | Kw_nest ->
      ignore (next st);
      nests (parse_nest st :: acc)
    | Eof -> List.rev acc
    | other ->
      fail_at (peek st) ("expected 'nest' or end of input, found " ^ describe other)
  in
  let nests = nests [] in
  match Program.make ~name arrays nests with
  | prog -> prog
  | exception Invalid_argument msg -> raise (Error (msg, 0, 0))
