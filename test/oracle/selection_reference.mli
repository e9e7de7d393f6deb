(** The most-constraining rule as a scan over every variable, the
    reference for {!Mlo_csp.Solver.Selection}'s bucket queue: the same
    key, computed from scratch at every pick. *)

val shift_degrees : Mlo_csp.Compiled.t -> int array -> int -> int -> unit
(** [shift_degrees comp un_deg var delta] subtracts [delta] from each
    neighbour's [un_deg]: [1] when [var] is assigned, [-1] when it is
    unassigned. *)

val most_constraining :
  Mlo_csp.Compiled.t ->
  level_of:int array ->
  un_deg:int array ->
  Mlo_csp.Bitset.t array ->
  int
(** Among the variables with [level_of.(v) < 0], the most unassigned
    neighbours ([un_deg.(v)]), then the highest degree, then the
    smallest domain ([domains.(v)], or the full one when [domains] is
    empty), lowest index on ties; [-1] if none. *)
