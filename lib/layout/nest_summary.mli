(** Per-nest restructuring facts, derived once per program.

    Each allowed pair of the paper's network is "the best layout choice
    under a given loop restructuring" of one nest.  The restructurings
    are the nest's dependence-legal loop orders, and what a
    restructuring asks of an array depends only on the loop it puts
    innermost: {!Locality.preferred_layout} and {!Locality.score} read
    only the innermost column of an access matrix, and after
    {!Mlo_ir.Loop_nest.permute} with order [o] that column is column
    [o.(d-1)] of the original matrix.  So a summary stores each access's
    columns once, and one set of demands per loop that some legal order
    puts innermost; it never permutes a nest to derive anything.

    {!of_program} computes the summary once per program and keeps it
    while the program is alive (keyed on physical identity), so network
    extraction, restructuring, the locality profiler and the propagation
    heuristic all read the same one.  A summary is never modified once
    published; its arrays must not be written to. *)

type access = private {
  array : string;
  columns : Mlo_linalg.Intvec.t array;
      (** [columns.(j)]: the data-space step of one iteration of loop
          [j] ({!Locality.delta_at}) *)
}

type nest = private {
  orders : int array list;
      (** the dependence-legal loop orders
          ({!Mlo_ir.Dependence.legal_orders}), identity first *)
  touched : string array;
      (** the arrays the nest references, in first-touch order *)
  accesses : access array;  (** body order *)
  inners : int list;
      (** the loops some legal order puts innermost, in order of first
          appearance in [orders] *)
  demands : Layout.t option array array;
      (** [demands.(k).(t)]: with loop [k] innermost, the layout
          [touched.(t)] demands — the candidate maximizing the summed
          {!Locality.score} of the nest's references to it, first on
          ties — or [None] when no reference constrains it.  Empty for a
          loop not in [inners]. *)
}

type t

val of_program : Mlo_ir.Program.t -> t
(** The program's summary, computed on first use under a mutex (one
    ["nest-summary"] trace span, category ["layout"]) and shared by
    every later call on the same program value.  The cache holds no
    program alive. *)

val nest : t -> int -> nest
(** [nest s i] summarizes [Program.nests prog].(i). *)

val innermost : int array -> int
(** The loop a loop order puts innermost: its last element. *)

val demands_for : nest -> int array -> (string * Layout.t) list
(** The layouts a legal order demands, in first-touch order, arrays
    with no demand omitted. *)

val score : nest -> (string -> Layout.t option) -> int -> int
(** [score n lookup k]: the summed {!Locality.score} of the nest's
    references under a partial layout assignment (unassigned arrays
    contribute 0) when loop [k] is innermost. *)

val best_order : nest -> (string -> Layout.t option) -> int array
(** The first legal order of highest {!score}: ties favour the
    original loop order. *)
