module Affine = Mlo_ir.Affine
module Access = Mlo_ir.Access
module Loop_nest = Mlo_ir.Loop_nest
module Array_info = Mlo_ir.Array_info
module Program = Mlo_ir.Program

exception Error = Lexer.Error

(* Every check reads the current token before [Lexer.advance] scans the
   next one, so the first error in source order is the one reported. *)
let fail = Lexer.fail

let expect c want =
  if c.Lexer.token <> want then
    fail c
      (Printf.sprintf "expected %s, found %s" (Lexer.describe_token want)
         (Lexer.describe c));
  Lexer.advance c

let expect_int c =
  let sign = if c.Lexer.token = Lexer.Minus then (Lexer.advance c; -1) else 1 in
  if c.Lexer.token <> Lexer.Int then fail c ("expected integer, found " ^ Lexer.describe c);
  let v = sign * c.Lexer.value in
  Lexer.advance c;
  v

let need_ident c =
  if c.Lexer.token <> Lexer.Ident then
    fail c ("expected identifier, found " ^ Lexer.describe c)

let expect_ident c =
  need_ident c;
  let s = Lexer.text c in
  Lexer.advance c;
  s

(* ('[' item ']')* *)
let rec bracketed c item acc =
  if c.Lexer.token <> Lexer.Lbracket then List.rev acc
  else begin
    Lexer.advance c;
    let e = item c in
    expect c Lexer.Rbracket;
    bracketed c item (e :: acc)
  end

(* ------------------------------------------------------------------ *)
(* Index expressions, written into one coefficient array per index      *)
(* ------------------------------------------------------------------ *)

let rec var_depth c vars d =
  if d = Array.length vars then -1
  else if Lexer.matches c vars.(d) then d
  else var_depth c vars (d + 1)

(* Adds [coeff] times the loop variable at the cursor; an unknown one is
   reported at the start of its term, [line]:[col]. *)
let add_var c vars coeffs coeff line col =
  need_ident c;
  let d = var_depth c vars 0 in
  if d < 0 then
    raise (Error (Printf.sprintf "unknown loop variable %s" (Lexer.text c), line, col));
  coeffs.(d) <- coeffs.(d) + coeff;
  Lexer.advance c

(* term := INT | IDENT | INT '*' IDENT; adds the term's variable part
   into [coeffs] and returns its constant. *)
let term c vars coeffs sign =
  let line = c.Lexer.line and col = Lexer.col c in
  match c.Lexer.token with
  | Lexer.Int ->
    let v = sign * c.Lexer.value in
    Lexer.advance c;
    if c.Lexer.token <> Lexer.Star then v
    else begin
      Lexer.advance c;
      add_var c vars coeffs v line col;
      0
    end
  | Lexer.Ident ->
    add_var c vars coeffs sign line col;
    0
  | _ -> fail c ("expected index term, found " ^ Lexer.describe c)

let rec terms c vars coeffs const =
  match c.Lexer.token with
  | Lexer.Plus ->
    Lexer.advance c;
    terms c vars coeffs (const + term c vars coeffs 1)
  | Lexer.Minus ->
    Lexer.advance c;
    terms c vars coeffs (const + term c vars coeffs (-1))
  | _ -> { Affine.coeffs; const }

let expr vars c =
  let coeffs = Array.make (Array.length vars) 0 in
  let sign =
    match c.Lexer.token with
    | Lexer.Minus -> Lexer.advance c; -1
    | Lexer.Plus -> Lexer.advance c; 1
    | _ -> 1
  in
  terms c vars coeffs (term c vars coeffs sign)

(* ------------------------------------------------------------------ *)
(* Declarations, loops, accesses                                        *)
(* ------------------------------------------------------------------ *)

let decl c =
  Lexer.advance c;
  let name = expect_ident c in
  let extents = bracketed c expect_int [] in
  if extents = [] then fail c "array needs at least one dimension";
  let elem_size =
    if c.Lexer.token = Lexer.Kw_elem then (Lexer.advance c; expect_int c) else 4
  in
  match Array_info.make ~elem_size name extents with
  | info -> info
  | exception Invalid_argument msg -> fail c msg

(* Loops come before accesses, so a nest's depth is known before its
   first index expression. *)
let rec loops c acc =
  expect c Lexer.Kw_for;
  let var = expect_ident c in
  expect c Lexer.Equals;
  let lo = expect_int c in
  expect c Lexer.Dotdot;
  let acc = { Loop_nest.var; lo; hi = expect_int c + 1 } :: acc in
  match c.Lexer.token with
  | Lexer.Kw_for -> loops c acc
  | Lexer.Kw_load | Lexer.Kw_store -> List.rev acc
  | _ -> fail c ("expected a nested 'for' or an access, found " ^ Lexer.describe c)

let access c vars =
  let kind = if c.Lexer.token = Lexer.Kw_load then Access.Read else Access.Write in
  let line = c.Lexer.line and col = Lexer.col c in
  Lexer.advance c;
  let array_name = expect_ident c in
  match bracketed c (expr vars) [] with
  | [] -> raise (Error ("access needs at least one index", line, col))
  | indices -> Access.make kind array_name indices

let nest c =
  Lexer.advance c;
  let line = c.Lexer.line and col = Lexer.col c in
  let name = expect_ident c in
  expect c Lexer.Colon;
  let loops = loops c [] in
  let vars = Array.of_list (List.map (fun l -> l.Loop_nest.var) loops) in
  let rec accesses acc =
    match c.Lexer.token with
    | Lexer.Kw_load | Lexer.Kw_store -> accesses (access c vars :: acc)
    | _ -> List.rev acc
  in
  match Loop_nest.make ~name loops (accesses []) with
  | nest -> nest
  | exception Invalid_argument msg -> raise (Error (msg, line, col))

let parse ~name source =
  let c = Lexer.create source in
  let rec decls acc =
    if c.Lexer.token = Lexer.Kw_array then decls (decl c :: acc) else List.rev acc
  in
  let arrays = decls [] in
  let rec nests acc =
    match c.Lexer.token with
    | Lexer.Kw_nest -> nests (nest c :: acc)
    | Lexer.Eof -> List.rev acc
    | _ -> fail c ("expected 'nest' or end of input, found " ^ Lexer.describe c)
  in
  let nests = nests [] in
  match Program.make ~name arrays nests with
  | prog -> prog
  | exception Invalid_argument msg -> raise (Error (msg, 0, 0))

let parse_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let source = really_input_string ic n in
  close_in ic;
  parse ~name:(Filename.basename path) source

(* ------------------------------------------------------------------ *)
(* Printing                                                             *)
(* ------------------------------------------------------------------ *)

let to_source prog =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "# program %s\n" (Program.name prog));
  Array.iter
    (fun info ->
      Buffer.add_string buf (Printf.sprintf "array %s" (Array_info.name info));
      Array.iter
        (fun e -> Buffer.add_string buf (Printf.sprintf "[%d]" e))
        (Array_info.extents info);
      if Array_info.elem_size info <> 4 then
        Buffer.add_string buf (Printf.sprintf " elem %d" (Array_info.elem_size info));
      Buffer.add_char buf '\n')
    (Program.arrays prog);
  Array.iter
    (fun nest ->
      Buffer.add_string buf (Printf.sprintf "\nnest %s:\n" (Loop_nest.name nest));
      let names = Loop_nest.var_names nest in
      Array.iteri
        (fun level l ->
          Buffer.add_string buf
            (Printf.sprintf "%sfor %s = %d .. %d\n"
               (String.make (2 * (level + 1)) ' ')
               l.Loop_nest.var l.Loop_nest.lo (l.Loop_nest.hi - 1)))
        (Loop_nest.loops nest);
      let indent = String.make (2 * (Loop_nest.depth nest + 1)) ' ' in
      Array.iter
        (fun a ->
          Buffer.add_string buf
            (Printf.sprintf "%s%s %s" indent
               (match Access.kind a with
               | Access.Read -> "load"
               | Access.Write -> "store")
               (Access.array_name a));
          Array.iter
            (fun e ->
              Buffer.add_string buf
                (Printf.sprintf "[%s]" (Affine.to_string names e)))
            a.Access.indices;
          Buffer.add_char buf '\n')
        (Loop_nest.accesses nest))
    (Program.nests prog);
  Buffer.contents buf
