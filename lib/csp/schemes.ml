let make ?(seed = 1) ?max_checks ?(preprocess = Solver.No_preprocess)
    var_policy val_policy backward lookahead =
  {
    Solver.var_policy;
    val_policy;
    backward;
    lookahead;
    preprocess;
    seed;
    max_checks;
  }

let base ?seed ?max_checks () =
  make ?seed ?max_checks Solver.Random_var Solver.Random_val
    Solver.Chronological Solver.No_lookahead

let enhanced ?seed ?max_checks () =
  make ?seed ?max_checks Solver.Most_constraining Solver.Least_constraining
    Solver.Graph_based Solver.No_lookahead

let base_plus_variable_selection ?seed ?max_checks () =
  make ?seed ?max_checks Solver.Most_constraining Solver.Random_val
    Solver.Chronological Solver.No_lookahead

let base_plus_value_selection ?seed ?max_checks () =
  make ?seed ?max_checks Solver.Random_var Solver.Least_constraining
    Solver.Chronological Solver.No_lookahead

let base_plus_backjumping ?seed ?max_checks () =
  make ?seed ?max_checks Solver.Random_var Solver.Random_val
    Solver.Graph_based Solver.No_lookahead

let enhanced_with_ac ?seed ?max_checks () =
  make ?seed ?max_checks ~preprocess:Solver.Arc_consistency
    Solver.Most_constraining Solver.Least_constraining Solver.Graph_based
    Solver.No_lookahead

type ablation = { label : string; config : Solver.config }

let figure4_schemes ?seed ?max_checks () =
  [
    {
      label = "Variable Selection";
      config = base_plus_variable_selection ?seed ?max_checks ();
    };
    {
      label = "Value Selection";
      config = base_plus_value_selection ?seed ?max_checks ();
    };
    {
      label = "Backjumping";
      config = base_plus_backjumping ?seed ?max_checks ();
    };
  ]

let extension_schemes ?seed ?max_checks () =
  [
    {
      label = "Enhanced+CBJ";
      config =
        make ?seed ?max_checks Solver.Most_constraining
          Solver.Least_constraining Solver.Conflict_directed
          Solver.No_lookahead;
    };
    {
      label = "Enhanced+FC";
      config =
        make ?seed ?max_checks Solver.Most_constraining
          Solver.Least_constraining Solver.Graph_based
          Solver.Forward_checking;
    };
    { label = "Enhanced+AC"; config = enhanced_with_ac ?seed ?max_checks () };
  ]

(* Static replay of the enhanced scheme's variable selection: the
   kernel's own queue on full domains, each pick assigned in turn — the
   order the search visits variables when it never backtracks. *)
let most_constraining_order net =
  let comp = Network.compile net in
  let queue = Solver.Selection.create comp [||] in
  Array.init (Compiled.num_vars comp) (fun _ ->
      let v = Solver.Selection.pick queue in
      Solver.Selection.assign queue v;
      v)

let breakdown ~base_checks ~enhanced_checks ~single =
  let total_saving = max 0 (base_checks - enhanced_checks) in
  let savings =
    List.map
      (fun (label, cost) -> (label, float_of_int (max 0 (base_checks - cost))))
      single
  in
  let sum = List.fold_left (fun acc (_, s) -> acc +. s) 0. savings in
  if total_saving = 0 || sum = 0. then
    List.map (fun (label, _) -> (label, 0.)) savings
  else List.map (fun (label, s) -> (label, s /. sum)) savings
