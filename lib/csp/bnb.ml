(* Optimizing branch and bound: the Minimize mode of the
   conflict-directed kernel (conflict_search.ml), which holds the
   search and its soundness notes. *)

type config = {
  bound_slack : float;
  preprocess : Solver.preprocess;
  learn_limit : int;
  max_checks : int option;
}

let default_config =
  {
    bound_slack = 0.0;
    preprocess = Solver.No_preprocess;
    learn_limit = 4000;
    max_checks = None;
  }

let cost_of = Conflict_search.cost_of

let lower_bound ~costs ~assignment ~live =
  let total = ref 0.0 in
  Array.iteri
    (fun i row ->
      if assignment.(i) >= 0 then total := !total +. row.(assignment.(i))
      else begin
        let m = ref infinity in
        Array.iteri (fun v c -> if live i v && c < !m then m := c) row;
        total := !total +. !m
      end)
    costs;
  !total

let run config ~max_checks ?cancel ?on_event ~costs comp =
  if Float.is_nan config.bound_slack || config.bound_slack < 0.0 then
    invalid_arg "Bnb: bound_slack must be >= 0";
  if Array.length costs <> Compiled.num_vars comp then
    invalid_arg "Bnb: costs rank mismatch";
  Array.iteri
    (fun i row ->
      if Array.length row <> Compiled.domain_size comp i then
        invalid_arg "Bnb: costs domain mismatch")
    costs;
  Conflict_search.run
    (Conflict_search.Minimize { costs; slack = config.bound_slack })
    ~preprocess:config.preprocess ~learn_limit:config.learn_limit ~max_checks
    ?cancel ?on_event comp

let solve_compiled ?(config = default_config) ?cancel ?on_learn ?on_leaf ~costs
    comp =
  let on_event =
    match (on_learn, on_leaf) with
    | None, None -> None
    | _ ->
      Some
        (function
        | Solver.Learned { dead; lits } ->
          Option.iter (fun f -> f ~dead lits) on_learn
        | Solver.Incumbent { assignment } ->
          Option.iter (fun f -> f assignment) on_leaf
        | Solver.Finished _ -> ())
  in
  run config ~max_checks:config.max_checks ?cancel ?on_event ~costs comp

let costs_of_network ~cost net =
  Array.init (Network.num_vars net) (fun i ->
      let name = Network.name net i in
      Array.init (Network.domain_size net i) (fun v -> cost name v))

let solve ?config ~cost net =
  solve_compiled ?config
    ~costs:(costs_of_network ~cost net)
    (Network.compile net)

let branch_and_bound ?(config = default_config) ?domains ?on_event ~cost net =
  Conflict_search.solve_components ?domains ?on_event
    ~max_checks:config.max_checks
    (fun ~max_checks ~cancel ~on_event sub ->
      run config ~max_checks ?cancel ?on_event
        ~costs:(costs_of_network ~cost sub)
        (Network.compile sub))
    net
