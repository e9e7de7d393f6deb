(** Parser for the textual loop-nest language.

    The concrete syntax, in EBNF ([#] starts a comment):

    {v
    program := decl* nest+
    decl    := "array" IDENT ("[" INT "]")+ ("elem" INT)?
    nest    := "nest" IDENT ":" loop
    loop    := "for" IDENT "=" INT ".." INT body
    body    := loop | access+
    access  := ("load" | "store") IDENT ("[" expr "]")+
    expr    := ("+"|"-")? term (("+"|"-") term)*
    term    := INT | IDENT | INT "*" IDENT
    v}

    Loops are perfectly nested ([body] is either one nested loop or the
    access list of the innermost level); bounds are inclusive on both
    sides, matching mathematical range notation ([for i = 0 .. 63] runs
    64 iterations).  Example:

    {v
    # the paper's Figure 2
    array Q1[127][64]
    array Q2[127][64]

    nest fig2:
      for i1 = 0 .. 63
        for i2 = 0 .. 63
          load Q1[i1+i2][i2]
          load Q2[i1+i2][i1]
    v} *)

exception Error of string * int * int
(** [Error (message, line, col)] — lexical, syntax or semantic error with
    source position; the same exception as {!Lexer.Error}. *)

val parse : name:string -> string -> Mlo_ir.Program.t
(** [parse ~name source] parses a whole program.  [name] is the program
    name (typically the file name).  Raises {!Error} on the first error
    in source order: a lexical or syntax error, a reference to an
    undeclared loop variable, or an {!Mlo_ir.Array_info.make} or
    {!Mlo_ir.Loop_nest.make} failure (positioned after the declaration,
    or at the nest's name).  A {!Mlo_ir.Program.make} failure, such as
    an undeclared array, is checked last and carries line and column 0. *)

val parse_file : string -> Mlo_ir.Program.t
(** Reads and parses a file; the program is named after the path.
    Raises [Sys_error] on I/O failure and {!Error} as {!parse}. *)

val to_source : Mlo_ir.Program.t -> string
(** Pretty-prints a program back to the concrete syntax; the result
    re-parses to a structurally equal program. *)
