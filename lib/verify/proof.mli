(** Solver certificates: the [memlayout-proof/1] format.

    A proof is a newline-delimited JSON artifact assembled by
    {!certificate} and checked — against the original,
    pre-preprocessing network — by {!Checker.check}. All variable and
    value indices in a proof refer to the {e original} network (before
    dominance pruning and before arc-consistency preprocessing);
    preprocessing itself appears as justified [Del] steps.

    The format is line-oriented so that partial proofs from aborted or
    cancelled runs are still parseable (and then rejected by the
    checker for lack of a supported verdict). *)

type del_reason =
  | Dominated of int
      (** The value was removed by dominance pruning; the payload is a
          kept value of the same variable that dominates it. *)
  | Arc_inconsistent
      (** The value was removed by AC preprocessing: it has no support
          in some neighboring domain. The checker re-derives this with
          its own propagation, so no witness is recorded. *)

type step =
  | Del of { var : int; value : int; reason : del_reason }
      (** Preprocessing removed [value] from [var]'s domain. *)
  | Comp of { id : int; vars : int array }
      (** Declares component [id] as the variable set [vars]. Every
          later step tagged with [id] may only involve these
          variables. *)
  | Ng of { comp : int; dead : int; lits : (int * int) array }
      (** A learned nogood: the assignments [lits] cannot all hold in
          any (cost-improving, under an optimality certificate)
          solution. [dead] is the variable whose domain wiped at the
          dead end — a hint telling the checker which variable to
          probe first. *)
  | Inc of { comp : int; lits : (int * int) array; cost : float }
      (** A branch-and-bound incumbent for component [comp]: a full,
          consistent assignment of the component's variables with the
          given separable cost. Lowers the component's bound. *)

type verdict =
  | Sat of int array
  | Unsat
  | Optimal of { cost : float; assignment : int array }
  | Aborted

type header = {
  workload : string;  (** suite workload name, for network rebuild *)
  scheme : string;  (** solver scheme label, informational *)
  objective : string option;  (** cost objective, for [Optimal] proofs *)
  pruned : bool;  (** whether dominance pruning ran *)
  slack : float;  (** bnb bound slack: the optimum is (1+slack)-approx *)
  names : string array;  (** variable (array) names, in index order *)
  domain_sizes : int array;  (** original domain sizes *)
  digest : string;  (** {!digest} of the original network *)
}

type t = { header : header; steps : step list; verdict : verdict option }

val schema : string
(** ["memlayout-proof/1"] *)

val digest : 'a Mlo_csp.Network.t -> string
(** FNV-1a 64-bit digest (16 hex chars) of the network's canonical
    description: variable names, domain sizes, and every constraint's
    allowed-pair bitmap. Two networks with the same digest have the
    same constraint structure for the checker's purposes. *)

(** {1 Writing}

    The one place that turns the engines' {!Mlo_csp.Solver.event}s into
    steps.  {!Checker} never calls it. *)

val header :
  workload:string -> scheme:string -> objective:string option ->
  pruned:bool -> slack:float -> 'a Mlo_csp.Network.t -> header
(** A header naming [net], the {e original} network. *)

type recorder

val recorder : unit -> recorder

val record :
  recorder -> comp:int -> vars:int array -> Mlo_csp.Solver.event -> unit
(** The [on_event] callback of {!Mlo_csp.Cdl.solve_components} and
    {!Mlo_csp.Bnb.branch_and_bound}. *)

val arc_deletions :
  survivors:int array array option -> 'a Mlo_csp.Network.t -> step list
(** The [Del _ Arc_inconsistent] steps of AC-2001 preprocessing on the
    solved network [net]: {!Mlo_csp.Ac2001.deletions}, in ascending
    order, with each value mapped back through [survivors] as in
    {!certificate}.  None when [net] wipes out: the checker's own
    fixpoint derives a wipe from the original network. *)

val certificate :
  header -> dels:step list -> survivors:int array array option ->
  costs:float array array option -> recorder -> Mlo_csp.Solver.result -> t
(** The certificate of the recorded run that ended in the result.
    [dels] are preprocessing deletions in original indices;
    [survivors.(i).(v)] is the original index of value [v] of [i] in the
    solved network ([None]: it is the original); [costs] is the
    separable cost table over the original domains, given exactly for
    optimality certificates.  Steps are [dels], then each component in
    ascending id order: its [Comp], then its [Ng]/[Inc] steps in event
    order, literals mapped back through [vars] and [survivors].  [Inc]
    and [Optimal] costs are summed from [costs] in index order.  An
    [Unsat] certificate keeps only the components that finished
    unsatisfiable, and no [Inc].  A solution of a search the budget cut
    ([stats.cut]) gets a [Sat] verdict and [dels] as its only steps. *)

val to_lines : t -> string list
(** One JSON object per line: header first, then steps in order, then
    the verdict (if any). *)

val of_lines : string list -> (t, string) result
(** Parse the NDJSON lines of a proof. Blank lines are skipped. A
    missing verdict yields [verdict = None] (the checker rejects it);
    malformed JSON or unknown step kinds are an [Error]. *)

val write : string -> t -> unit
(** [write path t] writes the proof to [path], one line per object. *)

val read : string -> (t, string) result
(** [read path] loads and parses a proof file. *)
