(** Seeded synthetic benchmark generator.

    The paper's benchmarks are proprietary embedded codes; what the
    constraint-network experiments actually consume is the {e structure}
    they induce: how many arrays, how many nests touch each array, and how
    often different nests pull the same array toward different layouts.
    This generator reproduces that structure deterministically from a
    seed:

    - every array gets an {e intended} layout drawn from the classic
      palette (row-major, column-major, diagonal, anti-diagonal);
    - {e aligned} nests reference their arrays with an access pattern
      whose innermost-loop stride prefers exactly the intended layout, so
      the assignment taking every demanded array to its intended layout
      (and arrays referenced only temporally to the default) is a
      solution of the extracted network by construction;
    - {e conflicting} nests (a seeded fraction) instead pull their arrays
      toward alternative layouts, and are paired with a cheaper aligned
      twin over the same arrays so that every constrained array pair still
      allows the intended combination — conflicts enlarge domains and
      constraint sets (hard search) without making the network
      unsatisfiable;
    - skewed outer strides enrich the per-array candidate sets the way
      loop restructurings do in the paper.

    The same structure can be instantiated at any loop extent: the full
    Table-1 data size for network extraction, a scaled extent for fast
    trace-driven simulation. *)

type params = {
  name : string;
  seed : int;
  num_arrays : int;
  num_nests : int;  (** aligned nests; conflicting nests add twins *)
  extent : int;
      (** the shared square array extent; every array is extent x extent
          and per-nest loop bounds shrink so skewed references stay in
          bounds *)
  sim_extent : int;  (** array extent for the simulation instance *)
  min_arrays_per_nest : int;
  max_arrays_per_nest : int;
  conflict_percent : int;  (** chance (in %) that a nest conflicts *)
  skew_percent : int;  (** chance (in %) of a skewed outer stride *)
  temporal_percent : int;
      (** chance (in %) that a reference is innermost-invariant: such
          references demand no layout, so the network gets wildcard pairs
          (any layout of that array is allowed with the partner's
          demand) — looser, paper-sized constraints *)
  group_size : int;
      (** when positive, arrays are partitioned into pools of this size
          and every nest draws all its references from one pool — the
          extracted network then decomposes into at least
          [num_arrays / group_size] independent components.  [0] (the
          default) keeps the classic behaviour: any nest may reference
          any array. *)
  ref_conflict_percent : int;
      (** deep regime only: chance (in %) that a non-temporal reference
          scrambles its planted slot order, breaking the planted loop
          order locally; it tunes the hard family toward the
          satisfiability phase transition.  The classic regime ignores
          it. *)
  nest_depth : int;
      (** loops per nest.  [2] (the default) is the classic shape: one
          outer stride and one inner (delta) stride per reference.  [3]
          or more switches generation to the deep regime: intended
          layouts come from the first [nest_depth] palette entries
          (row-major, column-major, diagonal, at most all 8), every
          non-temporal reference carries one of their deltas per loop,
          so its demanded layout is decided by which loop the legal
          restructurings put innermost, and every palette layout keeps a
          support in every pair constraint — the arc-consistency-blind
          shape the hard family is built on.  Deep nests draw no
          conflicts and no twins. *)
  shift_nests : int;
      (** number of windowed-update nests appended after the classic
          ones: nest [shift{s}] stores [Q[i+b][j]] and loads
          [Q[i][j+1]] over [i, j < b = extent/2].  The reference pair
          is uniform with distance [(b, -1)] — beyond the [i] trip
          count, so the exact dependence analysis proves independence
          and keeps both loop orders legal, while a bounds-blind
          analysis would pin the nest.  Each such nest touches a single
          array (no new pair constraints) and is generated without
          consuming random draws, so [0] (the default everywhere but
          the scale family) is bit-identical to the pre-shift
          generator. *)
}

val default : params
(** A small, balanced configuration (8 arrays, 12 nests, 64x64 arrays). *)

val scale : ?seed:int -> int -> params
(** [scale n] is the scale-family configuration at [n] arrays
    ("scale-{n}"): nests at [2n/5] (at least 8), pools of 8 arrays so
    the network splits into [~n/8] components,
    paper-like conflict/skew/temporal rates, [max 1 (n/10)] windowed
    shift nests whose legality only the exact dependence engine can
    liberate, and a halved simulation extent.  Designed to stress end-to-end throughput at 10/100/1000
    arrays; see DESIGN.md Section 13. *)

val hard : ?seed:int -> int -> params
(** [hard n] is the hard-family configuration at [n] arrays
    ("hard-{n}"): [2n] three-deep nests drawing contiguous windows on
    the array ring, over a 3-layout palette, with half the references
    scrambling their planted slot order.  Pair constraints are unions
    of matchings in which every value keeps a support, so the
    inconsistencies hide from arc consistency and surface only deep in
    the search.  Built to separate learning solvers from plain
    backjumpers; see DESIGN.md Section 14. *)

val generate : params -> Mlo_ir.Program.t
(** The program at full size. *)

val generate_sim : params -> Mlo_ir.Program.t
(** Same structure at [sim_extent]. *)

val intended_layouts : params -> (string * Mlo_layout.Layout.t) list
(** The planted solution: the layout each array was generated to prefer.
    The extracted network always admits it (see module doc). *)
