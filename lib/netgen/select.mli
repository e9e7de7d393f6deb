(** Choosing the loop restructuring once layouts are fixed.

    Code generation (and our cache simulation) needs a concrete loop
    order for every nest.  Given the final per-array layouts, each nest
    independently picks the dependence-legal permutation with the best
    total locality score ({!Mlo_layout.Nest_summary.best_order}) — the
    loop-transformation half of the paper's combined loop+data
    optimization. *)

val restructure :
  Mlo_ir.Program.t ->
  (string -> Mlo_layout.Layout.t option) ->
  Mlo_ir.Program.t
(** Puts every nest of the program in its best legal loop order under
    the layouts given by the lookup (ties favour the original order; a
    nest that keeps its order is returned as is). *)
