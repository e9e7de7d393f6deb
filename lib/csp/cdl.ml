(* Conflict-driven engine: the Satisfy mode of the conflict-directed
   kernel (conflict_search.ml), which holds the search and its
   soundness notes. *)

type config = {
  restarts : int;
  restart_base : int;
  learn_limit : int;
  preprocess : Solver.preprocess;
  max_checks : int option;
}

let default_config =
  {
    restarts = 50;
    restart_base = 100;
    learn_limit = 4000;
    preprocess = Solver.No_preprocess;
    max_checks = None;
  }

let mode config =
  Conflict_search.Satisfy
    { restarts = config.restarts; restart_base = config.restart_base }

let solve_compiled ?(config = default_config) ?cancel ?on_learn comp =
  let on_event =
    Option.map
      (fun f -> function
        | Solver.Learned { dead; lits } -> f ~dead lits
        | Solver.Incumbent _ | Solver.Finished _ -> ())
      on_learn
  in
  Conflict_search.run (mode config) ~preprocess:config.preprocess
    ~learn_limit:config.learn_limit ~max_checks:config.max_checks ?cancel
    ?on_event comp

let solve ?config net = solve_compiled ?config (Network.compile net)

let solve_components ?(config = default_config) ?domains ?on_event net =
  let mode = mode config in
  Conflict_search.solve_components ?domains ?on_event
    ~max_checks:config.max_checks
    (fun ~max_checks ~cancel ~on_event sub ->
      Conflict_search.run mode ~preprocess:config.preprocess
        ~learn_limit:config.learn_limit ~max_checks ?cancel ?on_event
        (Network.compile sub))
    net
