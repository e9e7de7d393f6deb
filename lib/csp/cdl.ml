(* Conflict-driven engine: the Satisfy mode of the search kernel
   (solver.ml), which holds the search and its soundness notes. *)

type config = {
  restarts : int;
  restart_base : int;
  learn_limit : int;
  max_checks : int option;
}

let default_config =
  { restarts = 50; restart_base = 100; learn_limit = 4000; max_checks = None }

let mode { restarts; restart_base; learn_limit; _ } =
  Solver.Satisfy { restarts; restart_base; learn_limit }

let solve_compiled ?(config = default_config) ?on_event comp =
  Solver.run ?on_event ~max_checks:config.max_checks (mode config) comp

let solve ?config net = solve_compiled ?config (Network.compile net)

let solve_components ?(config = default_config) ?on_event net =
  let mode = mode config in
  Solver.component_driver ?on_event ~max_checks:config.max_checks
    ~run:(fun ~on_event ~max_checks ~vars:_ view ->
      Solver.run ?on_event ~max_checks mode view)
    net
