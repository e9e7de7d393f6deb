(* layoutopt: command-line driver for the memory-layout optimizer.

   Subcommands mirror the repository's experiments: show a workload,
   solve its constraint network with a chosen scheme, simulate the
   optimized code, and regenerate each of the paper's tables/figures. *)

module Spec = Mlo_workloads.Spec
module Suite = Mlo_workloads.Suite
module Network = Mlo_csp.Network
module Solver = Mlo_csp.Solver
module Stats = Mlo_csp.Stats
module Build = Mlo_netgen.Build
module Layout = Mlo_layout.Layout
module Optimizer = Mlo_core.Optimizer
module Simulate = Mlo_cachesim.Simulate
module Tables = Mlo_experiments.Tables
module Parser = Mlo_lang.Parser
module Trace = Mlo_obs.Trace
module Trace_summary = Mlo_obs.Trace_summary
module Json = Mlo_obs.Json
module Lint = Mlo_analysis.Lint
module Netcheck = Mlo_analysis.Netcheck
module Diagnostic = Mlo_analysis.Diagnostic
module Locality = Mlo_analysis.Locality
module Depreport = Mlo_analysis.Depreport
module Costcheck = Mlo_analysis.Costcheck
module Prune = Mlo_netgen.Prune
module Proof = Mlo_verify.Proof
module Checker = Mlo_verify.Checker

open Cmdliner

(* ------------------------------------------------------------------ *)
(* Common arguments                                                     *)
(* ------------------------------------------------------------------ *)

let workload_names = [ "med-im04"; "mxm"; "radar"; "shape"; "track" ]

(* Workloads are named, not enumerated: besides the five Table-1 specs,
   "scale-N" and "hard-N" (any positive N) instantiate the synthetic
   families.  An unknown name dies with a single-line error naming the
   alternatives. *)
let spec_of_workload name =
  match Suite.by_name name with
  | spec -> spec
  | exception Not_found ->
    Printf.eprintf
      "layoutopt: unknown workload '%s' (valid workloads: %s, scale-N, \
       hard-N)\n"
      name
      (String.concat ", " workload_names);
    exit 2

let workload_arg =
  let doc =
    Printf.sprintf "Benchmark to operate on; one of %s, scale-N (the \
                    synthetic scale family at N arrays, e.g. scale-100), \
                    or hard-N (the phase-transition family, e.g. hard-20)."
      (String.concat ", " workload_names)
  in
  Arg.(required & opt (some string) None & info [ "w"; "workload" ] ~docv:"NAME" ~doc)

let scheme_names =
  [ "heuristic"; "base"; "enhanced"; "enhanced-ac"; "cdl"; "bnb" ]

let scheme_arg =
  let doc =
    Printf.sprintf "Optimization scheme; one of %s."
      (String.concat ", " scheme_names)
  in
  Arg.(value & opt string "enhanced" & info [ "s"; "scheme" ] ~docv:"SCHEME" ~doc)

let seed_arg =
  let doc = "Seed for the schemes' random decisions." in
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc)

let max_checks_arg =
  let doc = "Abort the search after this many consistency checks." in
  Arg.(value & opt int 2_000_000_000 & info [ "max-checks" ] ~docv:"N" ~doc)

let explain_flag =
  let doc = "Print the per-nest, per-reference locality report." in
  Arg.(value & flag & info [ "explain" ] ~doc)

let domains_arg =
  let doc =
    "Number of OCaml domains for parallel work: independent network \
     components in 'solve', the simulation sweep in 'table3' (default \
     there: up to 8, bounded by the machine); 1 forces serial execution."
  in
  Arg.(value & opt (some int) None & info [ "domains" ] ~docv:"N" ~doc)

(* [--domains 0] (or a negative count) must die with a single-line
   error before it reaches the pool, like every other CLI validation. *)
let validated_domains = function
  | Some d when d <= 0 ->
    Printf.eprintf
      "layoutopt: --domains must be a positive integer (got %d)\n" d;
    exit 2
  | d -> d

let restarts_arg =
  let doc =
    "For -s cdl: number of Luby-bounded restart runs before \
     the final unbounded run (0 disables restarting)."
  in
  Arg.(
    value
    & opt int Mlo_csp.Cdl.default_config.Mlo_csp.Cdl.restarts
    & info [ "restarts" ] ~docv:"N" ~doc)

let learn_limit_arg =
  let doc =
    "For -s cdl and -s bnb: keep at most this many learned nogoods \
     (largest, least-active nogoods are forgotten first)."
  in
  Arg.(
    value
    & opt int Mlo_csp.Cdl.default_config.Mlo_csp.Cdl.learn_limit
    & info [ "learn-limit" ] ~docv:"N" ~doc)

let bound_slack_arg =
  let doc =
    "For -s bnb: prune a subtree when its lower bound times (1 + $(docv)) \
     reaches the incumbent.  0 (the default) searches to the exact \
     optimum; a positive value trades optimality for speed with a \
     (1 + $(docv))-approximation guarantee."
  in
  Arg.(value & opt float 0.0 & info [ "bound-slack" ] ~docv:"S" ~doc)

(* A negative slack would make the bound inadmissible — reject it at the
   CLI boundary with the usual one-line error. *)
let validated_bound_slack s =
  if Float.is_nan s || s < 0.0 then begin
    Printf.eprintf
      "layoutopt: --bound-slack must be non-negative (got %g)\n" s;
    exit 2
  end;
  s

let objective_names = [ "misses"; "lines" ]

let objective_arg =
  let doc =
    Printf.sprintf
      "For -s bnb: cost the search minimizes; one of %s (estimated L1 \
       misses, or distinct L1 lines — the cold-miss floor)."
      (String.concat ", " objective_names)
  in
  Arg.(value & opt string "misses" & info [ "objective" ] ~docv:"OBJ" ~doc)

let objective_of name =
  match String.lowercase_ascii name with
  | "misses" -> Optimizer.Estimated_misses
  | "lines" -> Optimizer.Distinct_lines
  | other ->
    Printf.eprintf
      "layoutopt: unknown objective '%s' (valid objectives: %s)\n" other
      (String.concat ", " objective_names);
    exit 2

(* An unknown scheme must die with a single-line error naming the
   alternatives — not an exception trace or a usage dump. *)
let scheme_of ~seed ~restarts ~learn_limit ?(bound_slack = 0.0) name =
  match String.lowercase_ascii name with
  | "heuristic" -> Optimizer.Heuristic
  | "base" -> Optimizer.Base seed
  | "enhanced" -> Optimizer.Enhanced seed
  | "enhanced-ac" -> Optimizer.Enhanced_ac seed
  | "cdl" ->
    Optimizer.Cdl
      { Mlo_csp.Cdl.default_config with Mlo_csp.Cdl.restarts; learn_limit }
  | "bnb" ->
    Optimizer.Bnb
      { Mlo_csp.Bnb.default_config with
        Mlo_csp.Bnb.bound_slack;
        learn_limit }
  | other ->
    Printf.eprintf "layoutopt: unknown scheme '%s' (valid schemes: %s)\n"
      other
      (String.concat ", " scheme_names);
    exit 2

let trace_arg =
  let doc =
    "Record this run as Chrome trace_event JSON into $(docv) (load in \
     chrome://tracing or ui.perfetto.dev; roll up with 'layoutopt \
     trace-summary $(docv)')."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let with_trace file f =
  match file with
  | None -> f ()
  | Some path ->
    Trace.start ();
    let r = f () in
    Trace.write path;
    Trace.stop ();
    Format.eprintf "trace written to %s@." path;
    r

(* ------------------------------------------------------------------ *)
(* show                                                                 *)
(* ------------------------------------------------------------------ *)

let show_cmd =
  let run workload =
    let spec = spec_of_workload workload in
    Format.printf "%a@.@.%a@." Spec.pp spec Mlo_ir.Program.pp
      spec.Spec.program;
    let build = Spec.extract spec in
    Format.printf "@.%a@."
      (Network.pp (fun ppf l -> Format.fprintf ppf "%s" (Layout.describe l)))
      build.Build.network
  in
  Cmd.v
    (Cmd.info "show" ~doc:"Print a workload's program and constraint network")
    Term.(const run $ workload_arg)

(* ------------------------------------------------------------------ *)
(* solve                                                                *)
(* ------------------------------------------------------------------ *)

let prune_flag =
  let doc =
    "Drop dominated layout candidates from every array's domain before \
     the solver runs (sound: satisfiability is unchanged); reports the \
     pruned-value counts."
  in
  Arg.(value & flag & info [ "prune-dominated" ] ~doc)

let pp_pruned ppf = function
  | Some info when Prune.total info > 0 ->
    Format.fprintf ppf "pruned: %d dominated values (domain %d -> %d%s)@."
      (Prune.total info) info.Prune.before info.Prune.after
      (String.concat ""
         (List.map
            (fun (a, n) -> Printf.sprintf "; %s -%d" a n)
            info.Prune.per_array))
  | Some info ->
    Format.fprintf ppf "pruned: no dominated values (domain %d)@."
      info.Prune.before
  | None -> ()

let proof_arg =
  let doc =
    "Write a memlayout-proof/1 certificate of the solver run to $(docv) \
     (NDJSON), checkable with 'layoutopt verify $(docv)'.  Not available \
     for -s heuristic, which runs no solver to certify."
  in
  Arg.(value & opt (some string) None & info [ "proof" ] ~docv:"FILE" ~doc)

let solve_cmd =
  let run workload scheme seed max_checks restarts learn_limit bound_slack
      objective explain prune domains proof_file trace =
    let spec = spec_of_workload workload in
    let bound_slack = validated_bound_slack bound_slack in
    let objective = objective_of objective in
    let scheme = scheme_of ~seed ~restarts ~learn_limit ~bound_slack scheme in
    let domains = validated_domains domains in
    (match (proof_file, scheme) with
    | Some _, Optimizer.Heuristic ->
      Printf.eprintf
        "layoutopt: --proof is not available for -s heuristic (no solver \
         run to certify)\n";
      exit 2
    | _ -> ());
    (* The certificate names the workload as the CLI knows it, so
       'verify' can rebuild the same network through the suite. *)
    let proof_sink path p =
      let open Proof in
      write path { p with header = { p.header with workload } };
      Format.eprintf "proof written to %s@." path
    in
    let proof = Option.map proof_sink proof_file in
    match
      with_trace trace @@ fun () ->
      Optimizer.optimize ~candidates:spec.Spec.candidates ~max_checks
        ~prune_dominated:prune ?domains ~objective ?proof scheme
        spec.Spec.program
    with
    | exception Optimizer.No_solution msg ->
      Format.printf "no solution: %s@." msg;
      exit 1
    | sol ->
      Format.printf "Layouts for %s:@." spec.Spec.name;
      List.iter
        (fun (name, layout) ->
          Format.printf "  %-6s %s@." name (Layout.describe layout))
        sol.Optimizer.layouts;
      Format.printf "%a" pp_pruned sol.Optimizer.pruned_values;
      (match sol.Optimizer.solver_stats with
      | Some st -> Format.printf "solver: %a@." Stats.pp st
      | None -> ());
      (match sol.Optimizer.heuristic_evaluations with
      | Some n -> Format.printf "heuristic: %d combinations scored@." n
      | None -> ());
      (match sol.Optimizer.objective_value with
      | Some c ->
        Format.printf "objective: %s = %.17g@."
          (Optimizer.objective_label objective)
          c
      | None -> ());
      Format.printf "elapsed: %.4fs@." sol.Optimizer.elapsed_s;
      if explain then
        Format.printf "@.%a@." Mlo_core.Explain.pp
          (Mlo_core.Explain.explain spec.Spec.program sol)
  in
  Cmd.v
    (Cmd.info "solve" ~doc:"Choose memory layouts for a workload")
    Term.(
      const run $ workload_arg $ scheme_arg $ seed_arg $ max_checks_arg
      $ restarts_arg $ learn_limit_arg $ bound_slack_arg $ objective_arg
      $ explain_flag $ prune_flag $ domains_arg $ proof_arg $ trace_arg)

(* ------------------------------------------------------------------ *)
(* simulate                                                             *)
(* ------------------------------------------------------------------ *)

let reference_flag =
  let doc =
    "Use the interpretive reference engine instead of the compiled \
     address-stream engine (slower; counters are identical)."
  in
  Arg.(value & flag & info [ "reference" ] ~doc)

let simulate_cmd =
  let run workload scheme seed max_checks restarts learn_limit reference trace =
    let spec = spec_of_workload workload in
    let scheme = scheme_of ~seed ~restarts ~learn_limit scheme in
    let prog = spec.Spec.sim_program in
    let engine = if reference then Simulate.run_reference else Simulate.run in
    with_trace trace @@ fun () ->
    let original = engine prog ~layouts:(fun _ -> None) in
    Format.printf "original : %a@." Simulate.pp_report original;
    match
      Optimizer.optimize ~candidates:spec.Spec.candidates ~max_checks scheme
        prog
    with
    | exception Optimizer.No_solution msg ->
      Format.printf "no solution: %s@." msg;
      exit 1
    | sol ->
      let report =
        engine sol.Optimizer.restructured ~layouts:(Optimizer.lookup sol)
      in
      Format.printf "optimized: %a@." Simulate.pp_report report;
      Format.printf "improvement: %.2f%%@."
        (Simulate.improvement_percent ~baseline:original report)
  in
  Cmd.v
    (Cmd.info "simulate"
       ~doc:"Simulate a workload before and after layout optimization")
    Term.(
      const run $ workload_arg $ scheme_arg $ seed_arg $ max_checks_arg
      $ restarts_arg $ learn_limit_arg $ reference_flag $ trace_arg)

(* ------------------------------------------------------------------ *)
(* optimize-file                                                        *)
(* ------------------------------------------------------------------ *)

let file_arg =
  let doc = "Program in the textual loop-nest language (see lib/lang)." in
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc)

let simulate_flag =
  let doc = "Also simulate the program before and after optimization." in
  Arg.(value & flag & info [ "simulate" ] ~doc)

let optimize_file_cmd =
  let run file scheme seed max_checks restarts learn_limit simulate explain =
    match Parser.parse_file file with
    | exception Parser.Error (msg, line, col) ->
      Format.eprintf "%s:%d:%d: %s@." file line col msg;
      exit 2
    | prog -> (
      Format.printf "parsed %s: %d arrays, %d nests@." file
        (Array.length (Mlo_ir.Program.arrays prog))
        (Array.length (Mlo_ir.Program.nests prog));
      match
        Optimizer.optimize ~max_checks
          (scheme_of ~seed ~restarts ~learn_limit scheme)
          prog
      with
      | exception Optimizer.No_solution msg ->
        Format.printf "no solution: %s@." msg;
        exit 1
      | sol ->
        Format.printf "Layouts:@.";
        List.iter
          (fun (name, layout) ->
            Format.printf "  %-8s %s@." name (Layout.describe layout))
          sol.Optimizer.layouts;
        if explain then
          Format.printf "@.%a@." Mlo_core.Explain.pp
            (Mlo_core.Explain.explain prog sol);
        if simulate then begin
          let original = Optimizer.simulate_original prog in
          let optimized = Optimizer.simulate sol in
          Format.printf "original : %a@." Simulate.pp_report original;
          Format.printf "optimized: %a@." Simulate.pp_report optimized;
          Format.printf "improvement: %.2f%%@."
            (Simulate.improvement_percent ~baseline:original optimized)
        end)
  in
  Cmd.v
    (Cmd.info "optimize-file"
       ~doc:"Parse a program file and choose its memory layouts")
    Term.(
      const run $ file_arg $ scheme_arg $ seed_arg $ max_checks_arg
      $ restarts_arg $ learn_limit_arg $ simulate_flag $ explain_flag)

(* ------------------------------------------------------------------ *)
(* tables and figure                                                    *)
(* ------------------------------------------------------------------ *)

let table1_cmd =
  let run () = Format.printf "%a@." Tables.print_table1 (Tables.run_table1 ()) in
  Cmd.v (Cmd.info "table1" ~doc:"Regenerate Table 1 (benchmark codes)")
    Term.(const run $ const ())

let table2_cmd =
  let run seed max_checks prune trace =
    Format.printf "%a@." Tables.print_table2
      (with_trace trace @@ fun () ->
       Tables.run_table2 ~seed ~max_checks ~prune_dominated:prune ())
  in
  Cmd.v (Cmd.info "table2" ~doc:"Regenerate Table 2 (solution times)")
    Term.(const run $ seed_arg $ max_checks_arg $ prune_flag $ trace_arg)

let fig4_cmd =
  let run seed max_checks =
    Format.printf "%a@." Tables.print_fig4 (Tables.run_fig4 ~seed ~max_checks ())
  in
  Cmd.v
    (Cmd.info "fig4" ~doc:"Regenerate Figure 4 (enhancement breakdown)")
    Term.(const run $ seed_arg $ max_checks_arg)

let table3_cmd =
  let run seed max_checks domains trace =
    let domains = validated_domains domains in
    Format.printf "%a@." Tables.print_table3
      (with_trace trace @@ fun () ->
       Tables.run_table3 ~seed ~max_checks ?domains ())
  in
  Cmd.v (Cmd.info "table3" ~doc:"Regenerate Table 3 (execution times)")
    Term.(const run $ seed_arg $ max_checks_arg $ domains_arg $ trace_arg)

let ablation_cmd =
  let run seed max_checks =
    Format.printf "%a@." Tables.print_ablation
      (Tables.run_ablation ~seed ~max_checks ())
  in
  Cmd.v
    (Cmd.info "ablation"
       ~doc:"Compare solver design choices (backjumping flavours, forward              checking, AC-3 preprocessing)")
    Term.(const run $ seed_arg $ max_checks_arg)

(* ------------------------------------------------------------------ *)
(* lint / analyze                                                       *)
(* ------------------------------------------------------------------ *)

(* Shared target selection: any number of program files, the built-in
   suite, or one named workload.  Each target carries a thunk building
   its constraint network (with the workload's candidate palette when it
   comes from the suite) so [lint] never pays for extraction. *)

let files_pos_arg =
  let doc = "Programs in the textual loop-nest language; may repeat." in
  Arg.(value & pos_all file [] & info [] ~docv:"FILE" ~doc)

let suite_flag =
  let doc = "Also analyze the five built-in benchmark workloads." in
  Arg.(value & flag & info [ "suite" ] ~doc)

let workload_opt_arg =
  let doc =
    Printf.sprintf
      "Built-in benchmark to analyze; one of %s, scale-N, or hard-N."
      (String.concat ", " workload_names)
  in
  Arg.(value & opt (some string) None & info [ "w"; "workload" ] ~docv:"NAME" ~doc)

let json_flag =
  let doc =
    "Emit one memlayout-analysis/1 JSON document on stdout instead of text."
  in
  Arg.(value & flag & info [ "json" ] ~doc)

let gather_targets cmd files suite workload =
  let suite_names =
    if suite then workload_names
    else match workload with Some w -> [ w ] | None -> []
  in
  let of_suite name =
    let spec = spec_of_workload name in
    (name, spec.Spec.program, fun () -> Spec.extract spec)
  in
  let of_file file =
    match Parser.parse_file file with
    | exception Parser.Error (msg, line, col) ->
      Format.eprintf "%s:%d:%d: %s@." file line col msg;
      exit 2
    | prog -> (file, prog, fun () -> Build.build prog)
  in
  let targets = List.map of_file files @ List.map of_suite suite_names in
  if targets = [] then begin
    Printf.eprintf
      "layoutopt: %s needs something to analyze (FILE arguments, --suite, or \
       -w NAME)\n"
      cmd;
    exit 2
  end;
  targets

let analysis_doc targets =
  Json.Obj
    [
      ("schema", Json.Str "memlayout-analysis/1");
      ("targets", Json.Arr targets);
    ]

let lint_cmd =
  let run files suite workload json trace =
    let targets = gather_targets "lint" files suite workload in
    let code =
      with_trace trace @@ fun () ->
      let reports =
        List.map (fun (_, prog, _) -> Lint.run prog) targets
      in
      if json then
        print_endline
          (Json.to_string (analysis_doc (List.map Lint.to_json reports)))
      else
        List.iteri
          (fun i r ->
            if i > 0 then Format.printf "@.";
            Format.printf "%a@." Lint.pp r)
          reports;
      Diagnostic.exit_code
        (List.concat_map (fun r -> r.Lint.diagnostics) reports)
    in
    exit code
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Check programs before optimization: bounds of every affine \
          access, dead and write-only arrays, singular access matrices, \
          dependence-pinned loop orders.  Exits 1 when any \
          error-severity diagnostic is found, 2 on usage errors.")
    Term.(
      const run $ files_pos_arg $ suite_flag $ workload_opt_arg $ json_flag
      $ trace_arg)

let analyze_cmd =
  let run files suite workload json trace =
    let targets = gather_targets "analyze" files suite workload in
    let code =
      with_trace trace @@ fun () ->
      let results =
        List.map
          (fun (_, prog, extract) ->
            let lint = Lint.run prog in
            let build = extract () in
            let name = Network.name build.Build.network in
            let report = Netcheck.analyze build.Build.network in
            (lint, name, report))
          targets
      in
      if json then
        print_endline
          (Json.to_string
             (analysis_doc
                (List.map
                   (fun (lint, name, report) ->
                     match Lint.to_json lint with
                     | Json.Obj fields ->
                       Json.Obj
                         (fields @ [ ("network", Netcheck.to_json ~name report) ])
                     | other -> other)
                   results)))
      else
        List.iteri
          (fun i (lint, name, report) ->
            if i > 0 then Format.printf "@.";
            Format.printf "%a@.%a@." Lint.pp lint (Netcheck.pp ~name) report)
          results;
      Diagnostic.exit_code
        (List.concat_map
           (fun (lint, name, report) ->
             lint.Lint.diagnostics @ Netcheck.diagnostics ~name report)
           results)
    in
    exit code
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Run the program lint plus structural analysis of the extracted \
          constraint network: connected components, width and induced \
          width along the most-constraining order (Freuder's \
          backtrack-free condition), arc-inconsistent values, redundant \
          constraints, and a minimal unsat core when arc consistency \
          wipes a domain.  Exits 1 when any error-severity diagnostic is \
          found, 2 on usage errors.")
    Term.(
      const run $ files_pos_arg $ suite_flag $ workload_opt_arg $ json_flag
      $ trace_arg)

let deps_json_flag =
  let doc =
    "Emit one memlayout-deps/1 JSON document on stdout instead of text."
  in
  Arg.(value & flag & info [ "json" ] ~doc)

let deps_cmd =
  let run files suite workload json trace =
    let targets = gather_targets "deps" files suite workload in
    with_trace trace @@ fun () ->
    let reports =
      List.map (fun (_, prog, _) -> Depreport.run prog) targets
    in
    if json then
      print_endline
        (Json.to_string
           (Json.Obj
              [
                ("schema", Json.Str "memlayout-deps/1");
                ("targets", Json.Arr (List.map Depreport.to_json reports));
              ]))
    else
      List.iteri
        (fun i r ->
          if i > 0 then Format.printf "@.";
          Format.printf "%a@." Depreport.pp r)
        reports
  in
  Cmd.v
    (Cmd.info "deps"
       ~doc:
         "Exact dependence analysis per nest: for every conflicting \
          reference pair, the proven verdict (independence, exact \
          distance vectors, or direction vectors), the legal loop-order \
          count, and the Presburger engine's effort counters.  Exits 2 \
          on usage errors.")
    Term.(
      const run $ files_pos_arg $ suite_flag $ workload_opt_arg
      $ deps_json_flag $ trace_arg)

(* ------------------------------------------------------------------ *)
(* locality                                                             *)
(* ------------------------------------------------------------------ *)

let locality_json_flag =
  let doc =
    "Emit one memlayout-locality/1 JSON document on stdout instead of text."
  in
  Arg.(value & flag & info [ "json" ] ~doc)

let check_flag =
  let doc =
    "Cross-check the static estimate against the cache simulator \
     (suite workloads are checked at their small simulation sizes); a \
     divergence beyond the threshold is an error-severity diagnostic."
  in
  Arg.(value & flag & info [ "check" ] ~doc)

let threshold_arg =
  let doc = "Relative-error threshold for --check." in
  Arg.(
    value
    & opt float Costcheck.default_threshold
    & info [ "threshold" ] ~docv:"FRACTION" ~doc)

let locality_cmd =
  let run files suite workload json check threshold trace =
    (* (name, displayed program, program --check simulates) — suite
       workloads are displayed at paper sizes but checked at their small
       simulation sizes, where ground truth is affordable. *)
    let suite_names =
      if suite then workload_names
      else match workload with Some w -> [ w ] | None -> []
    in
    let of_suite name =
      let spec = spec_of_workload name in
      (name, spec.Spec.program, spec.Spec.sim_program)
    in
    let of_file file =
      match Parser.parse_file file with
      | exception Parser.Error (msg, line, col) ->
        Format.eprintf "%s:%d:%d: %s@." file line col msg;
        exit 2
      | prog -> (file, prog, prog)
    in
    let targets = List.map of_file files @ List.map of_suite suite_names in
    if targets = [] then begin
      Printf.eprintf
        "layoutopt: locality needs something to analyze (FILE arguments, \
         --suite, or -w NAME)\n";
      exit 2
    end;
    let code =
      with_trace trace @@ fun () ->
      let reports =
        List.map (fun (_, prog, _) -> Locality.analyze prog) targets
      in
      let checked =
        if check then
          Some
            (Costcheck.run ~threshold
               (List.map
                  (fun (name, _, sim) ->
                    {
                      Costcheck.ct_name = name;
                      ct_program = sim;
                      ct_layouts = (fun _ -> None);
                    })
                  targets))
        else None
      in
      if json then
        print_endline
          (Json.to_string
             (Json.Obj
                (("schema", Json.Str "memlayout-locality/1")
                :: ("targets", Json.Arr (List.map Locality.to_json reports))
                :: (match checked with
                   | Some r -> [ ("costcheck", Costcheck.to_json r) ]
                   | None -> []))))
      else begin
        List.iteri
          (fun i r ->
            if i > 0 then Format.printf "@.";
            Format.printf "%a@." Locality.pp r)
          reports;
        match checked with
        | Some r -> Format.printf "@.%a@." Costcheck.pp r
        | None -> ()
      end;
      match checked with
      | Some r -> Diagnostic.exit_code r.Costcheck.cr_diagnostics
      | None -> 0
    in
    exit code
  in
  Cmd.v
    (Cmd.info "locality"
       ~doc:
         "Static locality analysis: reuse vectors and a closed-form L1 \
          miss estimate per nest, computed from the compiled affine \
          address forms without walking an address stream.  With \
          --check, cross-validates the estimate against the cache \
          simulator and exits 1 on divergence beyond the threshold; 2 \
          on usage errors.")
    Term.(
      const run $ files_pos_arg $ suite_flag $ workload_opt_arg
      $ locality_json_flag $ check_flag $ threshold_arg $ trace_arg)

(* ------------------------------------------------------------------ *)
(* trace-summary                                                        *)
(* ------------------------------------------------------------------ *)

let trace_file_arg =
  let doc = "Trace file produced by --trace." in
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc)

let trace_summary_cmd =
  let run file =
    match Trace_summary.load file with
    | Error msg ->
      Format.eprintf "layoutopt: %s: %s@." file msg;
      exit 1
    | Ok summary -> Format.printf "%a@." Trace_summary.pp summary
  in
  Cmd.v
    (Cmd.info "trace-summary"
       ~doc:"Summarize a --trace file (per-span totals, events, counters)")
    Term.(const run $ trace_file_arg)

(* ------------------------------------------------------------------ *)
(* verify                                                               *)
(* ------------------------------------------------------------------ *)

let proof_file_arg =
  let doc = "Certificate produced by 'solve --proof'." in
  Arg.(required & pos 0 (some file) None & info [] ~docv:"PROOF" ~doc)

let verify_json_flag =
  let doc =
    "Emit one memlayout-verify/1 JSON document on stdout instead of text."
  in
  Arg.(value & flag & info [ "json" ] ~doc)

let verify_cmd =
  let run file json trace =
    let code =
      with_trace trace @@ fun () ->
      let proof = Proof.read file in
      (* Everything wrong with the certificate itself — unreadable,
         unknown workload, failed replay — is a rejection (exit 1), not
         a usage error: the invocation was fine, the proof is not. *)
      let outcome =
        match proof with
        | Error msg -> Error ("unreadable proof: " ^ msg)
        | Ok p -> (
          let w = p.Proof.header.Proof.workload in
          match Suite.by_name w with
          | exception Not_found ->
            Error (Printf.sprintf "unknown workload '%s' in proof header" w)
          | spec ->
            let build =
              Trace.with_span ~cat:"verify" "build-network" (fun () ->
                  Spec.extract spec)
            in
            let net = build.Build.network in
            let costs =
              (* Optimal certificates are checked against the exact cost
                 table the search minimized, rebuilt from the static
                 locality model over the original domains. *)
              match p.Proof.verdict with
              | Some (Proof.Optimal _) ->
                let objective =
                  match p.Proof.header.Proof.objective with
                  | Some "lines" -> Optimizer.Distinct_lines
                  | _ -> Optimizer.Estimated_misses
                in
                let cost =
                  Optimizer.layout_cost ~objective spec.Spec.program
                in
                Some
                  (Array.init (Network.num_vars net) (fun i ->
                       let name = Network.name net i in
                       Array.init (Network.domain_size net i) (fun v ->
                           cost ~array_name:name
                             ~layout:(Network.value net i v))))
              | _ -> None
            in
            Trace.with_span ~cat:"verify" "check" (fun () ->
                Checker.check ?costs net p))
      in
      let verdict_label =
        match proof with
        | Error _ -> "unreadable"
        | Ok p -> (
          match p.Proof.verdict with
          | None -> "missing"
          | Some (Proof.Sat _) -> "sat"
          | Some Proof.Unsat -> "unsat"
          | Some (Proof.Optimal _) -> "optimal"
          | Some Proof.Aborted -> "aborted")
      in
      let header_field f =
        match proof with
        | Ok p -> Json.Str (f p.Proof.header)
        | Error _ -> Json.Null
      in
      let steps =
        match proof with Ok p -> List.length p.Proof.steps | Error _ -> 0
      in
      let diags =
        match outcome with
        | Ok () ->
          [
            Diagnostic.make Diagnostic.Info ~code:"proof-verified"
              ~subject:file
              (Printf.sprintf
                 "certificate accepted: workload %s, scheme %s, verdict \
                  %s, %d steps"
                 (match proof with
                 | Ok p -> p.Proof.header.Proof.workload
                 | Error _ -> "?")
                 (match proof with
                 | Ok p -> p.Proof.header.Proof.scheme
                 | Error _ -> "?")
                 verdict_label steps);
          ]
        | Error msg ->
          [
            Diagnostic.make Diagnostic.Error ~code:"proof-rejected"
              ~subject:file msg;
          ]
      in
      if json then
        print_endline
          (Json.to_string
             (Json.Obj
                [
                  ("schema", Json.Str "memlayout-verify/1");
                  ("file", Json.Str file);
                  ("workload", header_field (fun h -> h.Proof.workload));
                  ("scheme", header_field (fun h -> h.Proof.scheme));
                  ("verdict", Json.Str verdict_label);
                  ("steps", Json.Num (float_of_int steps));
                  ( "verified",
                    Json.Bool (match outcome with Ok () -> true | _ -> false)
                  );
                  ( "diagnostics",
                    Json.Arr (List.map Diagnostic.to_json diags) );
                ]))
      else List.iter (fun d -> Format.printf "%a@." Diagnostic.pp d) diags;
      Diagnostic.exit_code diags
    in
    exit code
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:
         "Check a solver certificate independently of the solvers: replay \
          its preprocessing deletions, learned nogoods and incumbents \
          against the original constraint network with the checker's own \
          propagation core, then validate the verdict.  Exits 0 when the \
          certificate is accepted, 1 when it is rejected, 2 on usage \
          errors.")
    Term.(const run $ proof_file_arg $ verify_json_flag $ trace_arg)

let all_cmd =
  let run seed max_checks =
    Format.printf "%a@.@." Tables.print_table1 (Tables.run_table1 ());
    Format.printf "%a@.@." Tables.print_table2
      (Tables.run_table2 ~seed ~max_checks ());
    Format.printf "%a@.@." Tables.print_fig4
      (Tables.run_fig4 ~seed ~max_checks ());
    Format.printf "%a@." Tables.print_table3
      (Tables.run_table3 ~seed ~max_checks ())
  in
  Cmd.v
    (Cmd.info "all" ~doc:"Regenerate every table and figure of the paper")
    Term.(const run $ seed_arg $ max_checks_arg)

let main_cmd =
  let doc = "constraint-network based memory layout optimization (DATE'05)" in
  (* Bare [layoutopt] renders the manual (which lists every subcommand)
     instead of cmdliner's "required COMMAND is missing" usage error. *)
  Cmd.group
    ~default:Term.(ret (const (`Help (`Pager, None))))
    (Cmd.info "layoutopt" ~version:"1.0.0" ~doc)
    [ show_cmd; solve_cmd; simulate_cmd; optimize_file_cmd; lint_cmd;
      analyze_cmd; deps_cmd; locality_cmd; verify_cmd; table1_cmd;
      table2_cmd; fig4_cmd; table3_cmd; ablation_cmd; all_cmd;
      trace_summary_cmd ]

(* An unknown subcommand must die exactly like an unknown scheme does: a
   single-line error naming the alternatives, exit 2 — not cmdliner's
   multi-line usage dump with its own exit code. *)
let subcommand_names =
  [ "show"; "solve"; "simulate"; "optimize-file"; "lint"; "analyze"; "deps";
    "locality"; "verify"; "table1"; "table2"; "fig4"; "table3"; "ablation";
    "all"; "trace-summary" ]

let () =
  (if Array.length Sys.argv > 1 then
     let first = Sys.argv.(1) in
     if
       String.length first > 0
       && first.[0] <> '-'
       && not (List.mem first subcommand_names)
     then begin
       Printf.eprintf
         "layoutopt: unknown command '%s' (valid commands: %s)\n" first
         (String.concat ", " subcommand_names);
       exit 2
     end);
  (* Same contract for every other usage error (unknown flags, missing
     arguments): cmdliner would dump multi-line usage and exit 124 —
     capture its stderr and keep only the one-line error, exit 2. *)
  let err_buf = Buffer.create 256 in
  let err_ppf = Format.formatter_of_buffer err_buf in
  let code = Cmd.eval ~err:err_ppf main_cmd in
  Format.pp_print_flush err_ppf ();
  if code = Cmd.Exit.cli_error then begin
    (match String.split_on_char '\n' (Buffer.contents err_buf) with
    | first :: _ when String.trim first <> "" -> prerr_endline first
    | _ -> prerr_endline "layoutopt: usage error");
    exit 2
  end
  else begin
    prerr_string (Buffer.contents err_buf);
    exit code
  end
