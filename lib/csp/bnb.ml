(* Optimizing branch and bound: the Minimize mode of the search kernel
   (solver.ml), which holds the search and its soundness notes. *)

type config = {
  bound_slack : float;
  learn_limit : int;
  max_checks : int option;
}

let default_config = { bound_slack = 0.0; learn_limit = 4000; max_checks = None }

let cost_of = Solver.cost_of

let run config ~max_checks ?on_event ~costs comp =
  if Float.is_nan config.bound_slack || config.bound_slack < 0.0 then
    invalid_arg "Bnb: bound_slack must be >= 0";
  if Array.length costs <> Compiled.num_vars comp then
    invalid_arg "Bnb: costs rank mismatch";
  Array.iteri
    (fun i row ->
      if Array.length row <> Compiled.domain_size comp i then
        invalid_arg "Bnb: costs domain mismatch")
    costs;
  Solver.run ?on_event ~max_checks
    (Solver.Minimize
       { costs; slack = config.bound_slack; learn_limit = config.learn_limit })
    comp

let solve_compiled ?(config = default_config) ?on_event ~costs comp =
  run config ~max_checks:config.max_checks ?on_event ~costs comp

(* The cost table of the variables [vars], priced by their names in the
   whole network. *)
let costs_of_vars ~cost net vars =
  Array.map
    (fun i -> Array.init (Network.domain_size net i) (cost (Network.name net i)))
    vars

let solve ?config ~cost net =
  solve_compiled ?config
    ~costs:(costs_of_vars ~cost net (Array.init (Network.num_vars net) Fun.id))
    (Network.compile net)

let branch_and_bound ?(config = default_config) ?on_event ~cost net =
  Solver.component_driver ?on_event ~max_checks:config.max_checks
    ~run:(fun ~on_event ~max_checks ~vars view ->
      run config ~max_checks ?on_event ~costs:(costs_of_vars ~cost net vars)
        view)
    net
