(** Fixed-capacity bitsets over [0 .. capacity-1].

    Used for pruned domains during forward checking and arc consistency.
    Mutable; callers own copies.

    The backing store is int words, 32 bits per word, and the word layout
    is shared with the compiled constraint network's raw support {!row}s,
    so forward checking and arc consistency can prune and probe a whole
    domain word-parallel ([land] + popcount) instead of per value. *)

type t

val create_full : int -> t
(** [create_full n] contains every element of [0 .. n-1]. *)

val create_empty : int -> t

val capacity : t -> int
val mem : t -> int -> bool
val add : t -> int -> unit
val remove : t -> int -> unit
val count : t -> int
(** Cardinality, maintained in O(1). *)

val is_empty : t -> bool
val copy : t -> t
val blit : src:t -> dst:t -> unit
(** Overwrites [dst] with the contents of [src] (equal capacities). *)

val iter : (int -> unit) -> t -> unit
val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a
val to_list : t -> int list
val to_array : t -> int array
(** Members ascending. *)

val fill_array : t -> int array -> int -> int
(** [fill_array t a off] writes the members ascending into [a] starting
    at index [off] and returns the member count.  Allocation-free. *)

val choose : t -> int option
(** Smallest member, if any. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit

(** {1 Raw support rows}

    A {!row} is a borrowed bit vector in the same word layout as a bitset
    of equal capacity: bit [v] lives in word [v lsr 5] at position
    [v land 31].  A network ({!Network.supports}) stores one row per
    (constraint direction, value); the operations below combine a mutable
    domain with such a row word-parallel.  All of them raise
    [Invalid_argument] if the row has a different word count than the
    bitset. *)

type row = int array

val bits_per_word : int
val words_for : int -> int
(** Words needed for a capacity. *)

val row_make : int -> row
(** All-zero row for the given capacity. *)

val row_add : row -> int -> unit
val row_mem : row -> int -> bool

val row_subset : row -> row -> bool
(** [row_subset a b] is whether every bit of [a] is set in [b], word by
    word.  Raises [Invalid_argument] if the widths differ. *)

val inter_count : t -> row -> int
(** [inter_count t row] is [|t ∩ row|] (word-wise [land] + popcount). *)

val inter_exists : t -> row -> bool
val inter_choose : t -> row -> int option
(** Smallest member of the intersection, if any. *)

val iter_diff : (int -> unit) -> t -> row -> unit
(** [iter_diff f t row] applies [f] to every member of [t] {e not} in
    [row], ascending — the values forward checking must prune. *)

val popcount : int -> int
(** Popcount of one 32-bit word held in an int. *)
