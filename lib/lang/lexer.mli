(** Cursor over the source of the textual loop-nest language.

    The language is line-oriented only in its comments ([#] to end of
    line); tokens otherwise flow freely.  The cursor scans on demand and
    holds one token of lookahead: the current token, its place in the
    source and, for an integer, its value.  Scanning allocates nothing
    but error messages; {!text} copies an identifier out when the parser
    keeps it as a name.  Lines and columns are 1-based. *)

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

type t = private {
  src : string;
  mutable pos : int;  (** offset just past the current token *)
  mutable line : int;  (** line of the current token *)
  mutable line_start : int;  (** offset of the first character of [line] *)
  mutable token : token;
  mutable start : int;  (** offset of the current token *)
  mutable value : int;  (** the current [Int]'s value *)
}

exception Error of string * int * int
(** [Error (message, line, col)]: the one exception of the front end,
    for lexical, syntax and semantic errors alike. *)

val create : string -> t
(** A cursor on the first token of the source; raises as {!advance}. *)

val advance : t -> unit
(** Scans the next token; at the end of input the token stays [Eof].
    Raises {!Error} on an illegal character, a lone ['.'], or an integer
    larger than [max_int]. *)

val col : t -> int
(** Column of the current token. *)

val fail : t -> string -> 'a
(** Raises {!Error} with the message at the current token. *)

val text : t -> string
(** The current token's characters, as a fresh string. *)

val matches : t -> string -> bool
(** [matches c s]: the current token's characters are [s]. *)

val describe_token : token -> string
(** Human name for error messages, e.g. ["'['"] or ["identifier"]. *)

val describe : t -> string
(** The current token for error messages, with an identifier's text or
    an integer's value, e.g. [identifier "i"]. *)
