(** Minimal JSON values: just enough to emit and re-read the artifacts
    this repository produces (trace_event files, certificates, the
    command-line reports) without an external dependency.

    The parser accepts standard JSON (RFC 8259): numbers are read as
    floats, [\uXXXX] escapes are decoded to UTF-8.  It is not streaming —
    traces of a few hundred thousand events fit comfortably. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val parse : string -> (t, string) result
(** Parse a complete JSON document; [Error] carries a one-line message
    with the offending offset. *)

val parse_file : string -> (t, string) result

val to_string : t -> string
(** Compact serialization (no insignificant whitespace).  Integral
    numbers print without a fractional part. *)

val escape : string -> string
(** The body of a JSON string literal (no surrounding quotes). *)

val member : string -> t -> t option
(** Field lookup; [None] on missing field or non-object. *)

val to_float : t -> float option
val to_str : t -> string option
val to_list : t -> t list option
