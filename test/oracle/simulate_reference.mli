(** The interpretive cache-simulation engine, kept as the oracle of
    {!Mlo_cachesim.Simulate.run}.

    Per access it evaluates the affine index expressions, looks the array
    up by name, applies the layout transform's matrix arithmetic and
    issues the address to the timestamp LRU hierarchy {!Lru_reference}.
    It must report the same counters, footprint and trip count as the
    compiled engine. *)

val run :
  ?config:Mlo_cachesim.Hierarchy.config ->
  Mlo_ir.Program.t ->
  layouts:(string -> Mlo_layout.Layout.t option) ->
  Mlo_cachesim.Simulate.report
(** [config] defaults to {!Mlo_cachesim.Hierarchy.paper_config}. *)
