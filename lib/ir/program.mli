(** A whole application: array declarations plus a sequence of loop nests.

    This is the unit the constraint network is extracted from: the same
    array may appear in many nests with conflicting layout preferences,
    which is exactly the program-wide selection problem the paper solves. *)

type t = private {
  name : string;
  arrays : Array_info.t array;
  nests : Loop_nest.t array;
}

val make : name:string -> Array_info.t list -> Loop_nest.t list -> t
(** Builds a program.  Raises [Invalid_argument] if array names collide,
    a nest references an undeclared array, an access's rank differs from
    the declared array rank, or there are no nests. *)

val name : t -> string
val arrays : t -> Array_info.t array
val nests : t -> Loop_nest.t array

val find_array : t -> string -> Array_info.t
(** Raises [Not_found] if no array has the given name. *)

val array_names : t -> string list
(** Declaration order. *)

val array_index : t -> string -> int
(** Position of the named array in declaration order; raises [Not_found]. *)

val nests_touching : t -> string -> Loop_nest.t list
(** Nests that reference the named array, in program order. *)

val data_size_bytes : t -> int
(** Total bytes across all declared arrays (the paper's Table 1 "Data
    Size" column). *)

val total_trip_count : t -> int
(** Sum of nest trip counts; used as the denominator for nest weights. *)

val pp : Format.formatter -> t -> unit

val memo : (t -> 'a) -> t -> 'a
(** [memo f] computes [f p] once per program value [p] (physical
    identity), under a mutex, and keeps the result only while [p] is
    alive: the table is an ephemeron one, so a result that refers back
    to its program does not keep it alive. *)
