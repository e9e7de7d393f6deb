(** Exact data-dependence analysis for loop-permutation legality.

    Data transformations need no legality check (the paper's motivation),
    but the network generator also enumerates {e loop restructurings} of
    each nest, and those must preserve dependences.  A loop permutation
    is legal iff every dependence stays lexicographically forward after
    its components are permuted.

    Each conflicting reference pair (same array, at least one write) is
    decided {e exactly} on the bounded iteration space with the
    {!Presburger} engine: the system [{F1.I + o1 = F2.I' + o2,
    bounds(I), bounds(I')}] either has no integer solution (proven
    independence — in particular, distances that exceed trip counts no
    longer count as dependences), or its solutions are summarized by
    enumerating the Banerjee direction-vector hierarchy — each level's
    [*] is refined into [<]/[=]/[>] with infeasible subtrees pruned.  A
    leaf whose per-level distance is unique collapses to an exact
    {!Distance}; otherwise it is reported as a {!Direction} vector.
    There is no [Unknown]: every verdict is a proof.

    {b Uniform pairs} (both references share the access matrix [F]) are
    decided in closed form, without the engine: their realized distance
    set is [{δ : F·δ = o1 − o2, |δ_j| <= hi_j − 1 − lo_j}], and when [F]
    minus its zero columns has full column rank that set is a box (one
    exact solution on the levels [F] mentions, each other level free
    over its span), so the same tree walk yields the same dependence
    list.  Non-uniform pairs, rank-deficient ones, and pairs with an
    index coefficient or offset of magnitude [>= 2^30] take the Omega
    path. *)

type direction =
  | Lt  (** source iteration earlier on this level ([delta >= 1]) *)
  | Eq  (** same iteration on this level ([delta = 0]) *)
  | Gt  (** source iteration later on this level ([delta <= -1]) *)

type dep =
  | Distance of Mlo_linalg.Intvec.t
      (** The unique realized distance vector (lexicographically
          positive). *)
  | Direction of direction array
      (** A feasible direction vector whose first non-[Eq] component is
          [Lt] (after normalization), with at least one non-unique
          distance component. *)

val pair_deps : Loop_nest.t -> (int * int * dep list) list
(** Dependences attributed to the reference pair that produced them:
    [(i, j, ds)] relates the nest's [i]-th and [j]-th accesses (body
    order, [i <= j]) to their dependences ([[]] when the pair is proved
    independent).  Only pairs to the same array with at least one write
    appear, in ascending body order.  Loop-independent dependences
    (all-[Eq], zero distance) are omitted: they are preserved by any
    permutation of a single statement body. *)

val deps : Loop_nest.t -> (int * int * dep) list
(** Every dependence of the nest, flattened but still attributed to its
    [(i, j)] access pair so diagnostics can name the responsible
    references. *)

val dep_legal : int array -> dep -> bool
(** [dep_legal perm dep] is true iff the single dependence [dep] stays
    lexicographically forward under [perm].  Diagnostics use it to name
    the dependence blocking a rejected loop order. *)

val order_legal : dep list -> int array -> bool
(** The one legality rule: under the dependences [ds], the loop order
    [perm] (new depth [p] takes old loop [perm.(p)]) is legal iff it is
    the identity or every dependence stays lexicographically forward
    ({!dep_legal}): each permuted distance stays lexicographically
    non-negative and each permuted direction vector's first non-[Eq]
    component is [Lt].  {!legal_permutation}, {!legal_orders}, the
    [deps] report and lint's pinning pass all decide by it. *)

val legal_permutation : Loop_nest.t -> int array -> bool
(** [legal_permutation nest perm] is {!order_legal} under every
    dependence of [nest]. *)

val legal_orders : Loop_nest.t -> int array list
(** The subset of {!Loop_nest.orders} that {!order_legal} admits
    (always includes the identity, listed first).  The dependence set
    is computed once and reused across candidate orders; no nest is
    permuted. *)

val legal_permutations : Loop_nest.t -> (int array * Loop_nest.t) list
(** {!legal_orders}, each paired with the permuted nest. *)

type method_ =
  | Closed_form  (** uniform pair, decided without the Presburger engine *)
  | Omega  (** decided by the Omega test on the bounded conflict system *)

val pair_method : Loop_nest.t -> Access.t -> Access.t -> method_
(** Which method {!pair_deps} uses for a reference pair of the nest. *)

val method_label : method_ -> string
(** ["closed-form"] or ["omega"] — for reports. *)

val direction_char : direction -> char
(** ['<'], ['='] or ['>'] — for diagnostics and reports. *)

val pp_dep : Format.formatter -> dep -> unit
(** [(1, 0)] for distances, [(<, >)] for direction vectors. *)

(**/**)

val omega_pair_deps : Loop_nest.t -> Access.t -> Access.t -> dep list
(** The Omega-test path for one reference pair, whatever its shape: the
    oracle the closed form is tested against. *)
