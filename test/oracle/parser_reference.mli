(** Reference parser for the loop-nest language: the whole source is
    tokenized into a list first, and each access's index terms are
    folded into affine expressions once its nest has parsed.  It accepts
    the grammar of {!Mlo_lang.Parser} and reports the same messages; a
    lexical error anywhere in the source wins over any other error, and
    an unknown loop variable is reported after its whole nest. *)

exception Error of string * int * int
(** [Error (message, line, col)], for lexical, syntax and semantic
    errors alike ([Program.make] failures at [0, 0]). *)

val parse : name:string -> string -> Mlo_ir.Program.t
