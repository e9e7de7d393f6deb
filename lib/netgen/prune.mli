(** Sound dominance pruning of layout domains.

    A candidate layout [m2] of an array is dropped when some other value
    [m1] of the same domain

    - has a component-wise [<=] static miss estimate
      ({!Mlo_analysis.Locality.profiler}) in {e every} nest the array
      appears in, strictly [<] in at least one — so no cost model built
      on the analyzer ever prefers [m2] — and
    - is {e substitutable} for [m2] in every constraint: [m1]'s allowed
      partners form a superset of [m2]'s, so any solution through [m2]
      maps to one through [m1].

    The second condition makes the pruning sound for the CSP:
    satisfiability is unchanged (qcheck-enforced across the five
    benchmarks in [test/test_locality.ml]).  Padding candidates — supplied
    only through candidate palettes and therefore in no allowed pair —
    are the canonical casualties.  Domains are never emptied: dominance
    is a strict partial order, so maximal values always survive. *)

type info = {
  before : int;  (** total domain size entering the prune *)
  after : int;  (** total domain size after *)
  per_array : (string * int) list;
      (** arrays that lost values, with the count removed; ascending by
          name *)
  removed : (int * int * int) list;
      (** every removal as [(var, value, witness)] in original value
          indices, where [witness] is a {e kept} value of the same
          variable that dominates [value] — the justification recorded
          in solver certificates *)
  survivors : int array array;
      (** [survivors.(i).(k)] is the original value index of the pruned
          network's value [k] of variable [i] — the map certificates use
          to translate post-prune solver output back to original
          indices *)
}

val total : info -> int
(** Values removed: [before - after]. *)

val apply : Build.t -> Build.t * info
(** Prune every variable's domain of dominated values and re-index the
    network ({!Mlo_csp.Network.restrict_domains}).  The miss profiles
    are the paper's L1 ({!Mlo_analysis.Locality.profiler}), one entry
    per nest that references the array, so every value of a variable
    has a profile over the same nests.  The returned build shares the
    program and variable order with the input; only domains (and
    relations, re-indexed) shrink.

    A pair is compared by total first: rounded addition is monotone, so
    a profile that is component-wise [<=] another also sums, in the same
    order, to a total that is no larger, and a larger total rules
    dominance out without reading the profiles.  The profiles are then
    compared entry by entry, and a variable's support lists are built
    only once some pair passes both checks.

    Every profile is fetched first, inside an [analysis]/[profile] trace
    span; the comparisons run inside a [netgen]/[prune-dominated] span,
    which emits a [dominance-pruned] counter with the removed-value
    total. *)
