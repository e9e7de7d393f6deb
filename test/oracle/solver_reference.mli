(** The original (pre-compilation) search engine, kept as the executable
    specification of {!Mlo_csp.Solver.solve}.

    Probes the network's hashtables for every consistency check and keeps
    conflict sets as integer sets.  For every configuration it must give
    the same outcome and the same node/backtrack/backjump counts as the
    compiled engine; it counts one check per value probe under forward
    checking (the historical accounting) and ignores [config.preprocess]. *)

val solve :
  ?config:Mlo_csp.Solver.config -> 'a Mlo_csp.Network.t -> Mlo_csp.Solver.result
