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
  mutable cpu_s : float;
  mutable nodes_by_depth : int array;
  mutable nodes_by_var : int array;
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
    cpu_s = 0.;
    nodes_by_depth = [||];
    nodes_by_var = [||];
    cut = false;
  }

let reset t =
  t.nodes <- 0;
  t.checks <- 0;
  t.backtracks <- 0;
  t.backjumps <- 0;
  t.prunings <- 0;
  t.learned <- 0;
  t.forgotten <- 0;
  t.restarts <- 0;
  t.bounded <- 0;
  t.incumbents <- 0;
  t.max_depth <- 0;
  t.elapsed_s <- 0.;
  t.cpu_s <- 0.;
  t.nodes_by_depth <- [||];
  t.nodes_by_var <- [||];
  t.cut <- false

let ensure_hists t n =
  let grow a =
    if Array.length a >= n then a
    else begin
      let b = Array.make n 0 in
      Array.blit a 0 b 0 (Array.length a);
      b
    end
  in
  t.nodes_by_depth <- grow t.nodes_by_depth;
  t.nodes_by_var <- grow t.nodes_by_var

let merge_hist a b =
  let la = Array.length a and lb = Array.length b in
  Array.init (max la lb) (fun i ->
      (if i < la then a.(i) else 0) + if i < lb then b.(i) else 0)

let add a b =
  {
    nodes = a.nodes + b.nodes;
    checks = a.checks + b.checks;
    backtracks = a.backtracks + b.backtracks;
    backjumps = a.backjumps + b.backjumps;
    prunings = a.prunings + b.prunings;
    learned = a.learned + b.learned;
    forgotten = a.forgotten + b.forgotten;
    restarts = a.restarts + b.restarts;
    bounded = a.bounded + b.bounded;
    incumbents = a.incumbents + b.incumbents;
    max_depth = max a.max_depth b.max_depth;
    elapsed_s = a.elapsed_s +. b.elapsed_s;
    cpu_s = a.cpu_s +. b.cpu_s;
    nodes_by_depth = merge_hist a.nodes_by_depth b.nodes_by_depth;
    nodes_by_var = merge_hist a.nodes_by_var b.nodes_by_var;
    cut = a.cut || b.cut;
  }

let to_json t =
  let open Mlo_obs.Json in
  let hist a = Arr (Array.to_list (Array.map (fun v -> Num (float_of_int v)) a)) in
  Obj
    [
      ("nodes", Num (float_of_int t.nodes));
      ("checks", Num (float_of_int t.checks));
      ("backtracks", Num (float_of_int t.backtracks));
      ("backjumps", Num (float_of_int t.backjumps));
      ("prunings", Num (float_of_int t.prunings));
      ("learned", Num (float_of_int t.learned));
      ("forgotten", Num (float_of_int t.forgotten));
      ("restarts", Num (float_of_int t.restarts));
      ("bounded", Num (float_of_int t.bounded));
      ("incumbents", Num (float_of_int t.incumbents));
      ("cut", Bool t.cut);
      ("max_depth", Num (float_of_int t.max_depth));
      ("elapsed_s", Num t.elapsed_s);
      ("cpu_s", Num t.cpu_s);
      ("nodes_by_depth", hist t.nodes_by_depth);
      ("nodes_by_var", hist t.nodes_by_var);
    ]

let pp ppf t =
  Format.fprintf ppf
    "nodes=%d checks=%d backtracks=%d backjumps=%d prunings=%d%s%s%s depth=%d \
     time=%.4fs cpu=%.4fs"
    t.nodes t.checks t.backtracks t.backjumps t.prunings
    (if t.learned + t.forgotten + t.restarts = 0 then ""
     else
       Printf.sprintf " learned=%d forgotten=%d restarts=%d" t.learned
         t.forgotten t.restarts)
    (if t.bounded + t.incumbents = 0 then ""
     else Printf.sprintf " bounded=%d incumbents=%d" t.bounded t.incumbents)
    (if t.cut then " cut" else "")
    t.max_depth t.elapsed_s t.cpu_s
