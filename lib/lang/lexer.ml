type token =
  | Ident
  | Int
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

type t = {
  src : string;
  mutable pos : int;
  mutable line : int;
  mutable line_start : int;
  mutable token : token;
  mutable start : int;
  mutable value : int;
}

exception Error of string * int * int

let col c = c.start - c.line_start + 1
let fail c msg = raise (Error (msg, c.line, col c))
let text c = String.sub c.src c.start (c.pos - c.start)

let rec same src i kw k =
  k = String.length kw
  || (String.unsafe_get src (i + k) = String.unsafe_get kw k && same src i kw (k + 1))

let matches c kw = c.pos - c.start = String.length kw && same c.src c.start kw 0

let keyword c =
  if matches c "for" then Kw_for
  else if matches c "load" then Kw_load
  else if matches c "store" then Kw_store
  else if matches c "array" then Kw_array
  else if matches c "nest" then Kw_nest
  else if matches c "elem" then Kw_elem
  else Ident

let rec digits_end src i =
  if i < String.length src then
    match String.unsafe_get src i with '0' .. '9' -> digits_end src (i + 1) | _ -> i
  else i

let rec ident_end src i =
  if i < String.length src then
    match String.unsafe_get src i with
    | 'a' .. 'z' | 'A' .. 'Z' | '_' | '0' .. '9' -> ident_end src (i + 1)
    | _ -> i
  else i

let rec line_end src i =
  if i < String.length src && String.unsafe_get src i <> '\n' then line_end src (i + 1) else i

(* Reads the digits of the current token, rejecting what does not fit an
   int as [int_of_string] would. *)
let rec read_int c v k =
  if k = c.pos then v
  else
    let d = Char.code c.src.[k] - Char.code '0' in
    if v > (max_int - d) / 10 then fail c ("number too large: " ^ text c)
    else read_int c ((10 * v) + d) (k + 1)

let set c token len =
  c.token <- token;
  c.pos <- c.start + len

let rec advance c =
  let src = c.src and i = c.pos in
  c.start <- i;
  if i >= String.length src then c.token <- Eof
  else
    match String.unsafe_get src i with
    | ' ' | '\t' | '\r' ->
      c.pos <- i + 1;
      advance c
    | '\n' ->
      c.pos <- i + 1;
      c.line <- c.line + 1;
      c.line_start <- i + 1;
      advance c
    | '#' ->
      c.pos <- line_end src i;
      advance c
    | '0' .. '9' ->
      c.pos <- digits_end src i;
      c.value <- read_int c 0 i;
      c.token <- Int
    | 'a' .. 'z' | 'A' .. 'Z' | '_' ->
      c.pos <- ident_end src i;
      c.token <- keyword c
    | '[' -> set c Lbracket 1
    | ']' -> set c Rbracket 1
    | '=' -> set c Equals 1
    | '+' -> set c Plus 1
    | '-' -> set c Minus 1
    | '*' -> set c Star 1
    | ':' -> set c Colon 1
    | '.' when i + 1 < String.length src && src.[i + 1] = '.' -> set c Dotdot 2
    | '.' -> fail c "expected '..'"
    | ch -> fail c (Printf.sprintf "illegal character %C" ch)

let create src =
  let c = { src; pos = 0; line = 1; line_start = 0; token = Eof; start = 0; value = 0 } in
  advance c;
  c

let describe_token = function
  | Ident -> "identifier"
  | Int -> "integer"
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

let describe c =
  match c.token with
  | Ident -> Printf.sprintf "identifier %S" (text c)
  | Int -> Printf.sprintf "integer %d" c.value
  | token -> describe_token token
