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

type scheme =
  | Heuristic
  | Base of int
  | Enhanced of int
  | Enhanced_ac of int
  | Custom of Solver.config
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

let config_of_scheme ?max_checks = function
  | Heuristic | Cdl _ | Bnb _ -> None
  | Base seed -> Some (Schemes.base ~seed ?max_checks ())
  | Enhanced seed -> Some (Schemes.enhanced ~seed ?max_checks ())
  | Enhanced_ac seed -> Some (Schemes.enhanced_with_ac ~seed ?max_checks ())
  | Custom c -> Some c

let scheme_label = function
  | Heuristic -> "heuristic"
  | Base _ -> "base"
  | Enhanced _ -> "enhanced"
  | Enhanced_ac _ -> "enhanced-ac"
  | Custom _ -> "custom"
  | Cdl _ -> "cdl"
  | Bnb _ -> "bnb"

let objective_label = function
  | Estimated_misses -> "misses"
  | Distinct_lines -> "lines"

let metric_of_objective = function
  | Estimated_misses -> Mlo_analysis.Locality.Misses
  | Distinct_lines -> Mlo_analysis.Locality.Lines

(* The separable layout charge the branch-and-bound scheme minimizes:
   one array under one candidate layout, every other array at its
   default, summed over the nests (Locality.profiler memoizes, so
   repeated queries from component solves pay hashtable lookups). *)
let layout_cost ?geometry ~objective prog =
  let prof =
    Mlo_analysis.Locality.profiler ?geometry
      ~metric:(metric_of_objective objective) prog
  in
  fun ~array_name ~layout ->
    Array.fold_left ( +. ) 0.0 (prof ~array_name ~layout)

let objective_cost ?geometry ?(objective = Estimated_misses) prog layouts =
  let cost = layout_cost ?geometry ~objective prog in
  List.fold_left
    (fun acc (name, layout) -> acc +. cost ~array_name:name ~layout)
    0.0 layouts

(* Name -> layout lookup over a solution's layouts, hashed once so the
   per-access lookups of restructuring and simulation stay O(1) on
   programs with many arrays. *)
let lookup_in layouts =
  let tbl = Hashtbl.create (List.length layouts) in
  List.iter (fun (name, layout) -> Hashtbl.replace tbl name layout) layouts;
  Hashtbl.find_opt tbl

let optimize ?candidates ?max_checks ?(prune_dominated = false) ?(domains = 1)
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
  | Base _ | Enhanced _ | Enhanced_ac _ | Custom _ | Cdl _ | Bnb _ ->
    let build0 =
      Trace.with_span ~cat:"optimizer" "build-network" (fun () ->
          Build.build ?candidates prog)
    in
    let build, prune_info =
      if prune_dominated then
        let b, info = Mlo_netgen.Prune.apply build0 in
        (b, Some info)
      else (build0, None)
    in
    (* ---- proof logging -------------------------------------------
       Certificates are stated against the *original* network
       [build0], so everything the solvers report on the (possibly
       pruned) view is translated back through the survivor map.
       Per-component event streams are buffered by the engines and
       replayed serially, so the collection below is single-threaded
       even under [domains > 1]. *)
    let net0 = build0.Build.network in
    let netp = build.Build.network in
    let surv =
      match prune_info with
      | Some info -> fun i v -> info.Mlo_netgen.Prune.survivors.(i).(v)
      | None -> fun _ v -> v
    in
    let costs0 =
      (* separable cost table over the original domains, for incumbent
         steps and the verifier's bound checks *)
      lazy
        (let cost_of_layout = layout_cost ~objective prog in
         Array.init
           (Mlo_csp.Network.num_vars net0)
           (fun i ->
             let name = Mlo_csp.Network.name net0 i in
             Array.init (Mlo_csp.Network.domain_size net0 i) (fun v ->
                 cost_of_layout ~array_name:name
                   ~layout:(Mlo_csp.Network.value net0 i v))))
    in
    let comp_data :
        (int, int array * Mlo_verify.Proof.step list ref * Solver.outcome option ref)
        Hashtbl.t =
      Hashtbl.create 8
    in
    let on_event_fn ~comp ~vars ev =
      let _, steps_r, outcome_r =
        match Hashtbl.find_opt comp_data comp with
        | Some slot -> slot
        | None ->
          let slot = (vars, ref [], ref None) in
          Hashtbl.add comp_data comp slot;
          slot
      in
      match ev with
      | Solver.Learned { dead; lits } ->
        let glits = Array.map (fun (x, v) -> (vars.(x), surv vars.(x) v)) lits in
        steps_r :=
          Mlo_verify.Proof.Ng { comp; dead = vars.(dead); lits = glits }
          :: !steps_r
      | Solver.Incumbent { assignment } ->
        let glits = Array.mapi (fun x v -> (vars.(x), surv vars.(x) v)) assignment in
        let costs0 = Lazy.force costs0 in
        let cost =
          Array.fold_left (fun acc (x, v) -> acc +. costs0.(x).(v)) 0.0 glits
        in
        steps_r := Mlo_verify.Proof.Inc { comp; lits = glits; cost } :: !steps_r
      | Solver.Finished o -> outcome_r := Some o
    in
    let on_event = Option.map (fun _ -> on_event_fn) proof in
    let preprocess_ac =
      match scheme with
      | Cdl cfg -> cfg.Mlo_csp.Cdl.preprocess = Solver.Arc_consistency
      | Bnb cfg -> cfg.Mlo_csp.Bnb.preprocess = Solver.Arc_consistency
      | Heuristic | Base _ | Enhanced _ | Enhanced_ac _ | Custom _ -> (
        match config_of_scheme ?max_checks scheme with
        | Some c -> c.Solver.preprocess = Solver.Arc_consistency
        | None -> false)
    in
    let assemble_proof outcome =
      let open Mlo_verify.Proof in
      let num0 = Mlo_csp.Network.num_vars net0 in
      let header =
        {
          workload = Program.name prog;
          scheme = scheme_label scheme;
          objective =
            (match scheme with
            | Bnb _ -> Some (objective_label objective)
            | _ -> None);
          pruned = prune_dominated;
          slack =
            (match scheme with
            | Bnb cfg -> cfg.Mlo_csp.Bnb.bound_slack
            | _ -> 0.0);
          names = Array.init num0 (Mlo_csp.Network.name net0);
          domain_sizes = Array.init num0 (Mlo_csp.Network.domain_size net0);
          digest = digest net0;
        }
      in
      let pre_steps =
        let dels = ref [] in
        (match prune_info with
        | Some info ->
          List.iter
            (fun (var, value, by) ->
              dels := Del { var; value; reason = Dominated by } :: !dels)
            info.Mlo_netgen.Prune.removed
        | None -> ());
        (if preprocess_ac then
           match Mlo_csp.Propagate.ac2001 netp with
           | Mlo_csp.Propagate.Reduced doms ->
             Array.iteri
               (fun i bs ->
                 for v = 0 to Mlo_csp.Network.domain_size netp i - 1 do
                   if not (Mlo_csp.Bitset.mem bs v) then
                     dels :=
                       Del { var = i; value = surv i v; reason = Arc_inconsistent }
                       :: !dels
                 done)
               doms
           | Mlo_csp.Propagate.Wiped _ ->
             (* the checker's own fixpoint derives the wipe; nothing to
                justify beyond the network itself *)
             ());
        List.rev !dels
      in
      let unsat_only =
        match outcome with Solver.Unsatisfiable -> true | _ -> false
      in
      let comp_steps =
        Hashtbl.fold (fun k _ acc -> k :: acc) comp_data []
        |> List.sort compare
        |> List.concat_map (fun k ->
               let vars, steps_r, outcome_r = Hashtbl.find comp_data k in
               let keep =
                 (not unsat_only)
                 ||
                 match !outcome_r with
                 | Some Solver.Unsatisfiable -> true
                 | _ -> false
               in
               if not keep then []
               else
                 let steps = List.rev !steps_r in
                 let steps =
                   (* an UNSAT certificate must carry no incumbents *)
                   if unsat_only then
                     List.filter (function Inc _ -> false | _ -> true) steps
                   else steps
                 in
                 Comp { id = k; vars = Array.copy vars } :: steps)
      in
      let verdict =
        match outcome with
        | Solver.Unsatisfiable -> Unsat
        | Solver.Aborted -> Aborted
        | Solver.Solution a ->
          let ga = Array.mapi surv a in
          (match scheme with
          | Bnb _ ->
            let costs0 = Lazy.force costs0 in
            let cost = ref 0.0 in
            Array.iteri (fun i v -> cost := !cost +. costs0.(i).(v)) ga;
            Optimal { cost = !cost; assignment = ga }
          | _ -> Sat ga)
      in
      { header; steps = pre_steps @ comp_steps; verdict = Some verdict }
    in
    (* Component-wise search: independent subnetworks are solved
       separately (decision-equivalent to the whole-network solve; a
       single-component network takes the identical path), across
       [domains] worker domains when more than one is requested. *)
    let result =
      match scheme with
      | Cdl cfg ->
        let cfg =
          match max_checks with
          | None -> cfg
          | Some m -> { cfg with Mlo_csp.Cdl.max_checks = Some m }
        in
        Mlo_csp.Cdl.solve_components ~config:cfg ~domains ?on_event
          build.Build.network
      | Bnb cfg ->
        let cfg =
          match max_checks with
          | None -> cfg
          | Some m -> { cfg with Mlo_csp.Bnb.max_checks = Some m }
        in
        let cost_of_layout = layout_cost ~objective prog in
        let net = build.Build.network in
        let cost name v =
          cost_of_layout ~array_name:name
            ~layout:
              (Mlo_csp.Network.value net (Build.var_of_array build name) v)
        in
        Trace.with_span ~cat:"optimizer" "bnb"
          ~args:[ ("objective", Trace.Str (objective_label objective)) ]
          (fun () ->
            Mlo_csp.Bnb.branch_and_bound ~config:cfg ~domains ?on_event ~cost
              net)
      | Heuristic | Base _ | Enhanced _ | Enhanced_ac _ | Custom _ ->
        let config =
          Option.get (config_of_scheme ?max_checks scheme)
        in
        Solver.solve_components ~config ~domains build.Build.network
    in
    Option.iter (fun sink -> sink (assemble_proof result.Solver.outcome)) proof;
    (match result.Solver.outcome with
    | Solver.Unsatisfiable ->
      let detail =
        match Mlo_analysis.Netcheck.unsat_core build.Build.network with
        | Some (core, wiped) ->
          let name = Mlo_csp.Network.name build.Build.network in
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
      let objective_value =
        match scheme with
        | Bnb _ -> Some (objective_cost ~objective prog layouts)
        | _ -> None
      in
      {
        layouts;
        restructured;
        solver_stats = Some result.Solver.stats;
        heuristic_evaluations = None;
        pruned_values = prune_info;
        objective_value;
        elapsed_s = Mlo_csp.Clock.wall_s () -. t0;
      })

let lookup sol = lookup_in sol.layouts

let simulate ?config sol =
  Simulate.run ?config sol.restructured ~layouts:(lookup sol)

let simulate_original ?config prog =
  Simulate.run ?config prog ~layouts:(fun _ -> None)

let simulate_many ?config ?domains sols =
  Simulate.run_batch ?config ?domains
    (List.map (fun sol -> (sol.restructured, lookup sol)) sols)

let simulate_versions ?config ?domains prog sols =
  match
    Simulate.run_batch ?config ?domains
      ((prog, fun _ -> None)
      :: List.map (fun sol -> (sol.restructured, lookup sol)) sols)
  with
  | original :: optimized -> (original, optimized)
  | [] -> assert false
