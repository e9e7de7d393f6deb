module Program = Mlo_ir.Program
module Layout = Mlo_layout.Layout
module Solver = Mlo_csp.Solver
module Schemes = Mlo_csp.Schemes
module Stats = Mlo_csp.Stats
module Build = Mlo_netgen.Build
module Select = Mlo_netgen.Select
module Propagation = Mlo_heuristic.Propagation
module Simulate = Mlo_cachesim.Simulate
module Hierarchy = Mlo_cachesim.Hierarchy
module Trace = Mlo_obs.Trace
module Network = Mlo_csp.Network
module Prune = Mlo_netgen.Prune
module Proof = Mlo_verify.Proof

type scheme =
  | Heuristic
  | Base of int
  | Enhanced of int
  | Enhanced_ac of int
  | Cdl of Mlo_csp.Cdl.config
  | Bnb of Mlo_csp.Bnb.config

type objective = Estimated_misses | Distinct_lines

type solution = {
  layouts : (string * Layout.t) list;
  restructured : Program.t;
  solver_stats : Stats.t option;
  heuristic_evaluations : int option;
  pruned_values : Mlo_netgen.Prune.info option;
  objective_value : float option;
  elapsed_s : float;
}

exception No_solution of string

let scheme_label = function
  | Heuristic -> "heuristic"
  | Base _ -> "base"
  | Enhanced _ -> "enhanced"
  | Enhanced_ac _ -> "enhanced-ac"
  | Cdl _ -> "cdl"
  | Bnb _ -> "bnb"

let objective_label = function
  | Estimated_misses -> "misses"
  | Distinct_lines -> "lines"

let objective_of_label = function
  | "misses" -> Some Estimated_misses
  | "lines" -> Some Distinct_lines
  | _ -> None

let metric_of_objective = function
  | Estimated_misses -> Mlo_analysis.Locality.Misses
  | Distinct_lines -> Mlo_analysis.Locality.Lines

(* The separable layout charge the branch-and-bound scheme minimizes:
   one array under one candidate layout, every other array at its
   default, summed over the nests (Locality.profiler memoizes, so
   repeated queries from component solves pay hashtable lookups). *)
let layout_cost ~objective prog =
  let prof =
    Mlo_analysis.Locality.profiler ~metric:(metric_of_objective objective) prog
  in
  fun ~array_name ~layout ->
    Array.fold_left ( +. ) 0.0 (prof ~array_name ~layout)

let objective_cost ?(objective = Estimated_misses) prog layouts =
  let cost = layout_cost ~objective prog in
  List.fold_left
    (fun acc (name, layout) -> acc +. cost ~array_name:name ~layout)
    0.0 layouts

let cost_table ~objective prog net =
  Trace.with_span ~cat:"analysis" "profile" @@ fun () ->
  let cost = layout_cost ~objective prog in
  Array.init (Network.num_vars net) (fun i ->
      let name = Network.name net i in
      Array.init (Network.domain_size net i) (fun v ->
          cost ~array_name:name ~layout:(Network.value net i v)))

(* Name -> layout lookup over a solution's layouts, hashed once so the
   per-access lookups of restructuring and simulation stay O(1) on
   programs with many arrays. *)
let lookup_in layouts =
  let tbl = Hashtbl.create (List.length layouts) in
  List.iter (fun (name, layout) -> Hashtbl.replace tbl name layout) layouts;
  Hashtbl.find_opt tbl

(* Component-wise search of a network scheme.  Returns bnb's cost table
   over the original network [net0] (read through [orig], which maps a
   value of the solved [build] back to [net0]) and the result. *)
let search ?max_checks ~objective ?on_event scheme prog ~net0 ~orig build =
  let net = build.Build.network in
  let solver config = (None, Solver.solve_components ~config net) in
  match scheme with
  | Heuristic -> assert false
  | Base seed -> solver (Schemes.base ~seed ?max_checks ())
  | Enhanced seed -> solver (Schemes.enhanced ~seed ?max_checks ())
  | Enhanced_ac seed -> solver (Schemes.enhanced_with_ac ~seed ?max_checks ())
  | Cdl cfg ->
    let cfg =
      match max_checks with
      | None -> cfg
      | Some m -> { cfg with Mlo_csp.Cdl.max_checks = Some m }
    in
    (None, Mlo_csp.Cdl.solve_components ~config:cfg ?on_event net)
  | Bnb cfg ->
    let cfg =
      match max_checks with
      | None -> cfg
      | Some m -> { cfg with Mlo_csp.Bnb.max_checks = Some m }
    in
    let costs = cost_table ~objective prog net0 in
    let cost name v =
      let i = Build.var_of_array build name in
      costs.(i).(orig i v)
    in
    ( Some costs,
      Trace.with_span ~cat:"optimizer" "bnb"
        ~args:[ ("objective", Trace.Str (objective_label objective)) ]
        (fun () ->
          Mlo_csp.Bnb.branch_and_bound ~config:cfg ?on_event ~cost net)
    )

let optimize ?candidates ?max_checks ?(prune_dominated = false)
    ?(objective = Estimated_misses) ?proof scheme prog =
  Trace.with_span ~cat:"optimizer" "optimize"
    ~args:
      [
        ("program", Trace.Str (Program.name prog));
        ("scheme", Trace.Str (scheme_label scheme));
      ]
  @@ fun () ->
  let t0 = Mlo_csp.Clock.wall_s () in
  match scheme with
  | Heuristic ->
    let r =
      Trace.with_span ~cat:"optimizer" "heuristic" (fun () ->
          Propagation.optimize prog)
    in
    let lookup name = Propagation.lookup r name in
    let restructured =
      Trace.with_span ~cat:"optimizer" "restructure" (fun () ->
          Select.restructure prog lookup)
    in
    {
      layouts = r.Propagation.layouts;
      restructured;
      solver_stats = None;
      heuristic_evaluations = Some r.Propagation.evaluations;
      pruned_values = None;
      objective_value = None;
      elapsed_s = Mlo_csp.Clock.wall_s () -. t0;
    }
  | Base _ | Enhanced _ | Enhanced_ac _ | Cdl _ | Bnb _ ->
    let build0 =
      Trace.with_span ~cat:"optimizer" "build-network" (fun () ->
          Build.build ?candidates prog)
    in
    let build, prune_info =
      if prune_dominated then
        let b, info = Prune.apply build0 in
        (b, Some info)
      else (build0, None)
    in
    let net0 = build0.Build.network and net = build.Build.network in
    (* Everything is stated against the original network [net0]: the
       survivor map takes a value of the solved view back to it. *)
    let survivors = Option.map (fun info -> info.Prune.survivors) prune_info in
    let orig i v = match survivors with Some s -> s.(i).(v) | None -> v in
    let recorder = Proof.recorder () in
    let costs, result =
      search ?max_checks ~objective
        ?on_event:(Option.map (fun _ -> Proof.record recorder) proof)
        scheme prog ~net0 ~orig build
    in
    Option.iter
      (fun sink ->
        let slack = match scheme with Bnb c -> c.Mlo_csp.Bnb.bound_slack | _ -> 0. in
        let header =
          Proof.header ~workload:(Program.name prog)
            ~scheme:(scheme_label scheme)
            ~objective:(Option.map (fun _ -> objective_label objective) costs)
            ~pruned:prune_dominated ~slack net0
        in
        let dominated =
          match prune_info with
          | Some info ->
            List.map
              (fun (var, value, by) ->
                Proof.Del { var; value; reason = Proof.Dominated by })
              info.Prune.removed
          | None -> []
        in
        let dels =
          match scheme with
          | Enhanced_ac _ -> dominated @ Proof.arc_deletions ~survivors net
          | Heuristic | Base _ | Enhanced _ | Cdl _ | Bnb _ -> dominated
        in
        sink (Proof.certificate header ~dels ~survivors ~costs recorder result))
      proof;
    (match result.Solver.outcome with
    | Solver.Unsatisfiable ->
      let detail =
        match Mlo_analysis.Netcheck.unsat_core net with
        | Some (core, wiped) ->
          let name = Network.name net in
          Printf.sprintf
            "; no arc-consistent value for %s, minimal unsat core: %s"
            (name wiped)
            (String.concat ", "
               (List.map (fun (i, j) -> name i ^ "-" ^ name j) core))
        | None -> ""
      in
      raise
        (No_solution (Program.name prog ^ ": network unsatisfiable" ^ detail))
    | Solver.Aborted ->
      raise (No_solution (Program.name prog ^ ": check budget exhausted"))
    | Solver.Solution assignment ->
      let layouts = Build.assignment_layouts build assignment in
      let lookup = lookup_in layouts in
      let restructured =
        Trace.with_span ~cat:"optimizer" "restructure" (fun () ->
            Select.restructure prog lookup)
      in
      {
        layouts;
        restructured;
        solver_stats = Some result.Solver.stats;
        heuristic_evaluations = None;
        pruned_values = prune_info;
        objective_value =
          Option.map
            (fun c -> Mlo_csp.Bnb.cost_of ~costs:c (Array.mapi orig assignment))
            costs;
        elapsed_s = Mlo_csp.Clock.wall_s () -. t0;
      })

let lookup sol = lookup_in sol.layouts

let simulate sol = Simulate.run sol.restructured ~layouts:(lookup sol)
let simulate_original prog = Simulate.run prog ~layouts:(fun _ -> None)
