type t = {
  mutable nodes : int;
  mutable checks : int;
  mutable backtracks : int;
  mutable backjumps : int;
  mutable prunings : int;
  mutable learned : int;
  mutable forgotten : int;
  mutable restarts : int;
  mutable bounded : int;
  mutable incumbents : int;
  mutable max_depth : int;
  mutable elapsed_s : float;
  mutable cut : bool;
}

let create () =
  {
    nodes = 0;
    checks = 0;
    backtracks = 0;
    backjumps = 0;
    prunings = 0;
    learned = 0;
    forgotten = 0;
    restarts = 0;
    bounded = 0;
    incumbents = 0;
    max_depth = 0;
    elapsed_s = 0.;
    cut = false;
  }

let pp ppf t =
  Format.fprintf ppf
    "nodes=%d checks=%d backtracks=%d backjumps=%d prunings=%d%s%s%s depth=%d \
     time=%.4fs"
    t.nodes t.checks t.backtracks t.backjumps t.prunings
    (if t.learned + t.forgotten + t.restarts = 0 then ""
     else
       Printf.sprintf " learned=%d forgotten=%d restarts=%d" t.learned
         t.forgotten t.restarts)
    (if t.bounded + t.incumbents = 0 then ""
     else Printf.sprintf " bounded=%d incumbents=%d" t.bounded t.incumbents)
    (if t.cut then " cut" else "")
    t.max_depth t.elapsed_s
