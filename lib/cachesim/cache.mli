(** The geometry of one level of set-associative cache.

    Addresses are byte addresses (plain [int]s); a level maps them to
    lines of [line_bytes] and [size_bytes / (assoc * line_bytes)] sets of
    [assoc] ways.  The simulated hierarchy built from two geometries is
    {!Compiled_trace.machine}. *)

type geometry = {
  size_bytes : int;  (** total capacity *)
  assoc : int;  (** ways per set *)
  line_bytes : int;  (** line (block) size *)
}

val geometry : size_bytes:int -> assoc:int -> line_bytes:int -> geometry
(** Validates a geometry.  Raises [Invalid_argument] unless all three are
    positive powers of two and [size_bytes >= assoc * line_bytes]. *)
