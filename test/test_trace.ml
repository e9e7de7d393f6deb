(* Trace-format tests: the trace_event JSON the obs layer emits parses,
   spans nest properly, cache counters are monotone, and the disabled
   sink emits nothing while leaving solver results untouched. *)

module Trace = Mlo_obs.Trace
module Trace_summary = Mlo_obs.Trace_summary
module Json = Mlo_obs.Json
module Solver = Mlo_csp.Solver
module Schemes = Mlo_csp.Schemes
module Stats = Mlo_csp.Stats
module Simulate = Mlo_cachesim.Simulate
module Kernels = Mlo_workloads.Kernels
module Program = Mlo_ir.Program
module Suite = Mlo_workloads.Suite
module Spec = Mlo_workloads.Spec
module Optimizer = Mlo_core.Optimizer
module Fixtures = Mlo_oracle.Fixtures

(* Every test leaves the global trace sink disabled, whatever happens. *)
let with_tracing f =
  Trace.start ();
  Fun.protect ~finally:Trace.stop f

let summarize () =
  match Json.parse (Trace.dump ()) with
  | Error e -> Alcotest.failf "trace did not parse: %s" e
  | Ok j -> (
    match Trace_summary.of_json j with
    | Error e -> Alcotest.failf "trace did not summarize: %s" e
    | Ok s -> s)

let span_count s cat name =
  match List.assoc_opt (cat, name) s.Trace_summary.spans with
  | Some st -> st.Trace_summary.span_count
  | None -> 0

(* ------------------------------------------------------------------ *)
(* Span structure                                                       *)
(* ------------------------------------------------------------------ *)

let test_spans_nest () =
  with_tracing @@ fun () ->
  Trace.with_span ~cat:"t" "outer" (fun () ->
      Trace.with_span ~cat:"t" "inner" (fun () ->
          Trace.instant ~cat:"t" "tick");
      Trace.with_span ~cat:"t" "inner" (fun () -> ()));
  let s = summarize () in
  Alcotest.(check bool) "balanced" true s.Trace_summary.balanced;
  Alcotest.(check int) "max nesting" 2 s.Trace_summary.max_nesting;
  Alcotest.(check int) "outer once" 1 (span_count s "t" "outer");
  Alcotest.(check int) "inner twice" 2 (span_count s "t" "inner");
  Alcotest.(check (option int))
    "one instant" (Some 1)
    (List.assoc_opt ("t", "tick") s.Trace_summary.instants);
  (* six span events + one instant *)
  Alcotest.(check int) "event count" 7 s.Trace_summary.events

let test_spans_balanced_on_raise () =
  with_tracing @@ fun () ->
  (try
     Trace.with_span ~cat:"t" "boom" (fun () -> failwith "inside the span")
   with Failure _ -> ());
  let s = summarize () in
  Alcotest.(check bool) "balanced after raise" true s.Trace_summary.balanced;
  Alcotest.(check int) "span closed" 1 (span_count s "t" "boom")

let test_solver_trace_shape () =
  let net = Fixtures.random_network 23 in
  with_tracing @@ fun () ->
  ignore (Solver.solve ~config:(Schemes.enhanced ~seed:2 ()) net);
  let s = summarize () in
  Alcotest.(check bool) "balanced" true s.Trace_summary.balanced;
  Alcotest.(check bool) "has events" true (s.Trace_summary.events > 0);
  Alcotest.(check int) "one search span" 1 (span_count s "solver" "search")

(* A pruned branch and bound traces its own profile: the prune fetches
   every profile before it compares any, and the cost table is profiled
   on its own, so no [analysis]/[profile] span opens inside
   [netgen]/[prune-dominated]. *)
let test_profile_spans_outside_prune () =
  let spec = Suite.by_name "mxm" in
  with_tracing @@ fun () ->
  ignore
    (Optimizer.optimize ~candidates:spec.Spec.candidates ~prune_dominated:true
       (Optimizer.Bnb Mlo_csp.Bnb.default_config) spec.Spec.program);
  let events =
    match Json.parse (Trace.dump ()) with
    | Ok (Json.Arr events) -> events
    | _ -> Alcotest.fail "trace is not an event array"
  in
  let field k e = Option.bind (Json.member k e) Json.to_str in
  (* walk the begin/end pairs with the stack of open span names *)
  let profiles, nested, _ =
    List.fold_left
      (fun (profiles, nested, stack) e ->
        match (field "ph" e, field "cat" e, field "name" e) with
        | Some "B", Some cat, Some name ->
          if cat = "analysis" && name = "profile" then
            (profiles + 1, nested || List.mem "prune-dominated" stack, name :: stack)
          else (profiles, nested, name :: stack)
        | Some "E", _, _ -> (profiles, nested, List.tl stack)
        | _ -> (profiles, nested, stack))
      (0, false, []) events
  in
  Alcotest.(check bool) "emits profile spans" true (profiles > 0);
  Alcotest.(check bool) "no profile span inside prune-dominated" false nested

(* ------------------------------------------------------------------ *)
(* Cache-simulation counters                                            *)
(* ------------------------------------------------------------------ *)

let matmul_prog n =
  let mm, req = Kernels.matmul ~name:"mm" ~n ~c:"C" ~a:"A" ~b:"B" in
  Program.make ~name:"trace-mm" (Kernels.declare req) [ mm ]

let test_counters_monotone () =
  (* 16^3 iterations x 4 accesses crosses the 8192-access sampling
     stride several times, so the counter track has real samples. *)
  let prog = matmul_prog 16 in
  with_tracing @@ fun () ->
  ignore (Simulate.run prog ~layouts:(fun _ -> None));
  let s = summarize () in
  Alcotest.(check bool) "balanced" true s.Trace_summary.balanced;
  Alcotest.(check int) "one simulate span" 1
    (span_count s "cachesim" "simulate");
  Alcotest.(check bool) "has counter tracks" true
    (s.Trace_summary.counters <> []);
  List.iter
    (fun ((name, key), c) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s/%s sampled more than once" name key)
        true
        (c.Trace_summary.samples >= 2);
      Alcotest.(check bool)
        (Printf.sprintf "%s/%s monotone" name key)
        true c.Trace_summary.monotone;
      Alcotest.(check bool)
        (Printf.sprintf "%s/%s final >= first" name key)
        true
        (c.Trace_summary.last >= c.Trace_summary.first))
    s.Trace_summary.counters

let test_traced_simulation_identical () =
  let prog = matmul_prog 16 in
  let untraced = Simulate.run prog ~layouts:(fun _ -> None) in
  let traced =
    with_tracing @@ fun () -> Simulate.run prog ~layouts:(fun _ -> None)
  in
  Alcotest.(check bool) "identical counters" true
    (untraced.Simulate.counters = traced.Simulate.counters);
  Alcotest.(check int) "identical trips" untraced.Simulate.trip_count
    traced.Simulate.trip_count

(* ------------------------------------------------------------------ *)
(* The no-op sink                                                       *)
(* ------------------------------------------------------------------ *)

let same_scalars (a : Stats.t) (b : Stats.t) =
  a.Stats.nodes = b.Stats.nodes
  && a.Stats.checks = b.Stats.checks
  && a.Stats.backtracks = b.Stats.backtracks
  && a.Stats.backjumps = b.Stats.backjumps
  && a.Stats.prunings = b.Stats.prunings
  && a.Stats.max_depth = b.Stats.max_depth

let prop_noop_sink =
  QCheck.Test.make
    ~name:"disabled sink emits nothing and changes no solver result"
    ~count:150 QCheck.small_nat (fun seed ->
      let net = Fixtures.random_network seed in
      let config = Schemes.enhanced ~seed:(seed + 5) () in
      (* disabled: the dump must stay the empty array *)
      let quiet = Solver.solve ~config net in
      if Trace.enabled () then QCheck.Test.fail_report "tracing on by default";
      (match Json.parse (Trace.dump ()) with
      | Ok (Json.Arr []) -> ()
      | Ok _ -> QCheck.Test.fail_report "disabled sink emitted events"
      | Error e -> QCheck.Test.fail_reportf "empty dump did not parse: %s" e);
      (* enabled: same outcome, same counters, events present *)
      let traced, events =
        with_tracing @@ fun () ->
        let r = Solver.solve ~config net in
        (r, (summarize ()).Trace_summary.events)
      in
      if events = 0 then QCheck.Test.fail_report "enabled sink emitted nothing";
      if not (same_scalars quiet.Solver.stats traced.Solver.stats) then
        QCheck.Test.fail_report "tracing changed the solver's counters";
      match (quiet.Solver.outcome, traced.Solver.outcome) with
      | Solver.Solution a, Solver.Solution b -> a = b
      | Solver.Unsatisfiable, Solver.Unsatisfiable -> true
      | Solver.Aborted, Solver.Aborted -> true
      | _ -> false)

(* ------------------------------------------------------------------ *)
(* JSON round-trip                                                      *)
(* ------------------------------------------------------------------ *)

let json_gen =
  QCheck.Gen.(
    (* numbers built from eighths round-trip exactly through the
       printer's integral/%.17g split *)
    let num = map (fun n -> Json.Num (float_of_int n /. 8.)) (int_range (-8000) 8000) in
    let str = map (fun s -> Json.Str s) (string_size ~gen:printable (int_bound 12)) in
    let base = oneof [ return Json.Null; map (fun b -> Json.Bool b) bool; num; str ] in
    sized (fun size ->
        fix
          (fun self n ->
            if n <= 0 then base
            else
              frequency
                [
                  (2, base);
                  (1, map (fun l -> Json.Arr l) (list_size (int_bound 4) (self (n / 2))));
                  ( 1,
                    map
                      (fun kvs ->
                        (* object keys must be unique for round-trip equality *)
                        Json.Obj
                          (List.mapi (fun i (k, v) -> (Printf.sprintf "%d%s" i k, v)) kvs))
                      (list_size (int_bound 4)
                         (pair (string_size ~gen:printable (int_bound 6)) (self (n / 2)))) );
                ])
          (min size 5)))

let prop_json_roundtrip =
  QCheck.Test.make ~name:"Json.to_string round-trips through Json.parse"
    ~count:300
    (QCheck.make ~print:Json.to_string json_gen)
    (fun v ->
      match Json.parse (Json.to_string v) with
      | Ok v' -> v = v'
      | Error e -> QCheck.Test.fail_reportf "did not parse: %s" e)

let () =
  Alcotest.run "trace"
    [
      ( "spans",
        [
          Alcotest.test_case "nesting" `Quick test_spans_nest;
          Alcotest.test_case "balanced on raise" `Quick
            test_spans_balanced_on_raise;
          Alcotest.test_case "solver trace shape" `Quick
            test_solver_trace_shape;
          Alcotest.test_case "profile spans outside the prune" `Quick
            test_profile_spans_outside_prune;
        ] );
      ( "counters",
        [
          Alcotest.test_case "monotone cache counters" `Quick
            test_counters_monotone;
          Alcotest.test_case "tracing changes no report" `Quick
            test_traced_simulation_identical;
        ] );
      ("no-op sink", [ QCheck_alcotest.to_alcotest prop_noop_sink ]);
      ("json", [ QCheck_alcotest.to_alcotest prop_json_roundtrip ]);
    ]
