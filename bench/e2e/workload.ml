(* The four request workloads.

   Per workload: the programs (generated, rendered to .mlo source and
   answered by a reference solve at set-up), the request one op issues
   through the public API the way the CLI issues it, the same request
   replayed one layer call at a time under {!Stage} spans, and the
   checks every answer must pass.  Every op parses its program from the
   rendered source, so each request starts from a fresh [Program.t] and
   cold identity-keyed memos, as a CLI process does. *)

module Spec = Mlo_workloads.Spec
module Suite = Mlo_workloads.Suite
module Optimizer = Mlo_core.Optimizer
module Build = Mlo_netgen.Build
module Prune = Mlo_netgen.Prune
module Select = Mlo_netgen.Select
module Network = Mlo_csp.Network
module Solver = Mlo_csp.Solver
module Cdl = Mlo_csp.Cdl
module Bnb = Mlo_csp.Bnb
module Proof = Mlo_verify.Proof
module Checker = Mlo_verify.Checker
module Layout = Mlo_layout.Layout
module Simulate = Mlo_cachesim.Simulate
module Parser = Mlo_lang.Parser
module Program = Mlo_ir.Program

type kind = Paper_enhanced | Paper_certified | Hard_enhanced | Scale_cdl

type t = {
  kind : kind;
  name : string;
  ops : int;  (** ops in a full standalone run *)
}

(* Why each workload was chosen: README.md and BENCHMARK.json. *)
let all =
  [
    { kind = Paper_enhanced; name = "paper-enhanced"; ops = 600 };
    { kind = Paper_certified; name = "paper-certified"; ops = 125 };
    { kind = Hard_enhanced; name = "hard-enhanced"; ops = 240 };
    { kind = Scale_cdl; name = "scale-cdl"; ops = 200 };
  ]

let find name = List.find_opt (fun w -> String.equal w.name name) all

(* ------------------------------------------------------------------ *)
(* Programs and reference answers                                       *)
(* ------------------------------------------------------------------ *)

type program = {
  label : string;  (** unique within the workload *)
  spec : Spec.t;
  source : string;  (** [spec.program] rendered to .mlo *)
  sim_source : string;  (** [spec.sim_program] rendered to .mlo *)
  net : Layout.t Network.t;  (** the original network, for every check *)
  sat : bool;  (** reference verdict *)
}

(* The hard family's cost swings by an order of magnitude from one
   generator seed to the next (hard-150: 22-462 ms per op), so its
   instances are the CLI's hard-80 and hard-150 at family offsets 0 and
   1 whatever the run seed; the seed orders their ops.  The scale
   family's cost is steady across generator seeds, so the run seed
   offsets it; four programs average out what differences remain. *)
let specs kind ~seed =
  match kind with
  | Paper_enhanced | Paper_certified ->
    List.map (fun s -> (s.Spec.name, s)) (Suite.all ())
  | Hard_enhanced ->
    List.concat_map
      (fun n ->
        List.map
          (fun k -> (Printf.sprintf "hard-%d#%d" n k, Suite.hard ~seed:(23 + k) n))
          [ 0; 1 ])
      [ 80; 150 ]
  | Scale_cdl ->
    List.map
      (fun k ->
        ( Printf.sprintf "scale-1000#%d" (seed + k),
          Suite.scale ~seed:(11 + seed + k) 1000 ))
      [ 0; 1; 2; 3 ]

(* The reference verdict comes from cdl and counts only once the
   independent checker accepts its certificate. *)
let reference label spec =
  let candidates = spec.Spec.candidates in
  let net = (Build.build ~candidates spec.Spec.program).Build.network in
  let proof = ref None in
  let sat =
    match
      Optimizer.optimize ~candidates
        ~proof:(fun p -> proof := Some p)
        (Optimizer.Cdl Cdl.default_config) spec.Spec.program
    with
    | _ -> true
    | exception Optimizer.No_solution _ -> false
  in
  match !proof with
  | None -> failwith (label ^ ": reference solve produced no certificate")
  | Some p -> (
    match Checker.check net p with
    | Ok () -> (net, sat)
    | Error msg -> failwith (label ^ ": reference certificate rejected: " ^ msg))

let setup kind ~seed =
  List.map
    (fun (label, spec) ->
      let net, sat = reference label spec in
      {
        label;
        spec;
        source = Parser.to_source spec.Spec.program;
        sim_source = Parser.to_source spec.Spec.sim_program;
        net;
        sat;
      })
    (specs kind ~seed)
  |> Array.of_list

(* ------------------------------------------------------------------ *)
(* Answers and their checks                                             *)
(* ------------------------------------------------------------------ *)

type answer = {
  layouts : (string * Layout.t) list option;  (** [None]: no solution *)
  checks : int option;  (** solver checks, when the op sees its stats *)
  objective : float option;  (** branch-and-bound optimum *)
  cycles : int option;  (** simulated cycles of the optimized program *)
  certificate : (unit, string) result option;
      (** the checker's verdict, for ops that check a certificate *)
}

let no_answer =
  { layouts = None; checks = None; objective = None; cycles = None; certificate = None }

(* [None] when the answer is right, otherwise what is wrong with it. *)
let check_answer kind p a =
  let cert =
    match a.certificate with
    | Some (Error msg) -> Some ("certificate rejected: " ^ msg)
    | Some (Ok ()) -> None
    | None -> (
      match kind with
      | Paper_certified | Scale_cdl -> Some "no certificate checked"
      | Paper_enhanced | Hard_enhanced -> None)
  in
  let verdict =
    match (a.layouts, p.sat) with
    | None, true -> Some "no solution, but the reference is satisfiable"
    | None, false -> None
    | Some _, false -> Some "a solution, but the reference is unsatisfiable"
    | Some layouts, true -> (
      let assignment =
        Array.init (Network.num_vars p.net) (fun i ->
            match List.assoc_opt (Network.name p.net i) layouts with
            | None -> -1
            | Some l ->
              let rec find v =
                if v >= Network.domain_size p.net i then -1
                else if Layout.equal (Network.value p.net i v) l then v
                else find (v + 1)
              in
              find 0)
      in
      if Array.exists (fun v -> v < 0) assignment then
        Some "a chosen layout is outside its domain"
      else if not (Network.verify p.net assignment) then
        Some "the assignment violates the original network"
      else
        match (kind, a.objective) with
        | Paper_certified, None -> Some "no optimum reported"
        | _ -> None)
  in
  match (cert, verdict) with
  | Some e, _ | None, Some e -> Some (p.label ^ ": " ^ e)
  | None, None -> None

(* ------------------------------------------------------------------ *)
(* The request, as the CLI issues it                                    *)
(* ------------------------------------------------------------------ *)

let parse p = Parser.parse ~name:p.spec.Spec.name p.source
let parse_sim p = Parser.parse ~name:p.spec.Spec.name p.sim_source

(* The separable cost table over the original domains, for the checker
   and for certificate incumbents. *)
let cost_table prog net =
  let cost = Optimizer.layout_cost ~objective:Optimizer.Estimated_misses prog in
  Array.init (Network.num_vars net) (fun i ->
      let name = Network.name net i in
      Array.init (Network.domain_size net i) (fun v ->
          cost ~array_name:name ~layout:(Network.value net i v)))

let simulate sim lookup =
  Simulate.run (Select.restructure sim lookup) ~layouts:lookup

let run kind p =
  let candidates = p.spec.Spec.candidates in
  let prog = parse p in
  let checks sol =
    Option.map (fun s -> s.Mlo_csp.Stats.checks) sol.Optimizer.solver_stats
  in
  match kind with
  | Paper_enhanced | Hard_enhanced -> (
    match Optimizer.optimize ~candidates (Optimizer.Enhanced 1) prog with
    | sol ->
      { no_answer with layouts = Some sol.Optimizer.layouts; checks = checks sol }
    | exception Optimizer.No_solution _ -> no_answer)
  | Paper_certified -> (
    let proof = ref None in
    let certify costs =
      match !proof with
      | None -> Error "no certificate"
      | Some pr -> Checker.check ?costs p.net pr
    in
    match
      Optimizer.optimize ~candidates ~prune_dominated:true
        ~proof:(fun pr -> proof := Some pr)
        (Optimizer.Bnb Bnb.default_config) prog
    with
    | exception Optimizer.No_solution _ ->
      { no_answer with certificate = Some (certify None) }
    | sol ->
      let certificate = certify (Some (cost_table prog p.net)) in
      let lookup = Optimizer.lookup sol in
      let report = simulate (parse_sim p) lookup in
      {
        layouts = Some sol.Optimizer.layouts;
        checks = checks sol;
        objective = sol.Optimizer.objective_value;
        cycles = Some (Simulate.cycles report);
        certificate = Some certificate;
      })
  | Scale_cdl -> (
    let proof = ref None in
    let certify () =
      match !proof with
      | None -> Error "no certificate"
      | Some pr -> Checker.check p.net pr
    in
    match
      Optimizer.optimize ~candidates
        ~proof:(fun pr -> proof := Some pr)
        (Optimizer.Cdl Cdl.default_config) prog
    with
    | exception Optimizer.No_solution _ ->
      { no_answer with certificate = Some (certify ()) }
    | sol ->
      {
        no_answer with
        layouts = Some sol.Optimizer.layouts;
        checks = checks sol;
        certificate = Some (certify ());
      })

(* ------------------------------------------------------------------ *)
(* The same request, one layer call at a time                           *)
(* ------------------------------------------------------------------ *)

(* Per-component proof events, collected as Optimizer.optimize collects
   them. *)
let recorder () =
  let comps = Hashtbl.create 8 in
  let on_event ~comp ~vars ev =
    let _, steps, finished =
      match Hashtbl.find_opt comps comp with
      | Some slot -> slot
      | None ->
        let slot = (vars, ref [], ref None) in
        Hashtbl.add comps comp slot;
        slot
    in
    match ev with
    | Solver.Finished o -> finished := Some o
    | ev -> steps := ev :: !steps
  in
  (comps, on_event)

(* The certificate Optimizer.optimize assembles for the schemes replayed
   here (none preprocesses with arc consistency), stated against the
   original network [net0]. *)
let certificate ~scheme ~optimal ~prog ~net0 ~prune ~costs comps outcome =
  let surv =
    match prune with
    | Some info -> fun i v -> info.Prune.survivors.(i).(v)
    | None -> fun _ v -> v
  in
  let cost lits = Array.fold_left (fun acc (x, v) -> acc +. costs.(x).(v)) 0.0 lits in
  let unsat = outcome = Solver.Unsatisfiable in
  let dels =
    match prune with
    | None -> []
    | Some info ->
      List.map
        (fun (var, value, by) -> Proof.Del { var; value; reason = Proof.Dominated by })
        info.Prune.removed
  in
  let comp_steps =
    Hashtbl.fold (fun k _ acc -> k :: acc) comps []
    |> List.sort compare
    |> List.concat_map (fun k ->
           let vars, steps, finished = Hashtbl.find comps k in
           if unsat && !finished <> Some Solver.Unsatisfiable then []
           else
             let global lits = Array.map (fun (x, v) -> (vars.(x), surv vars.(x) v)) lits in
             Proof.Comp { id = k; vars = Array.copy vars }
             :: List.filter_map
                  (function
                    | Solver.Learned { dead; lits } ->
                      Some (Proof.Ng { comp = k; dead = vars.(dead); lits = global lits })
                    | Solver.Incumbent { assignment } when not unsat ->
                      let lits = global (Array.mapi (fun x v -> (x, v)) assignment) in
                      Some (Proof.Inc { comp = k; lits; cost = cost lits })
                    | Solver.Incumbent _ | Solver.Finished _ -> None)
                  (List.rev !steps))
  in
  let verdict =
    match outcome with
    | Solver.Unsatisfiable -> Proof.Unsat
    | Solver.Aborted -> Proof.Aborted
    | Solver.Solution a ->
      let ga = Array.mapi surv a in
      if optimal then
        Proof.Optimal { cost = cost (Array.mapi (fun i v -> (i, v)) ga); assignment = ga }
      else Proof.Sat ga
  in
  let n = Network.num_vars net0 in
  {
    Proof.header =
      {
        Proof.workload = Program.name prog;
        scheme;
        objective = (if optimal then Some "misses" else None);
        pruned = prune <> None;
        slack = 0.0;
        names = Array.init n (Network.name net0);
        domain_sizes = Array.init n (Network.domain_size net0);
        digest = Proof.digest net0;
      };
    steps = dels @ comp_steps;
    verdict = Some verdict;
  }

let record_stats op (st : Mlo_csp.Stats.t) =
  Stage.count op Stage.Checks st.checks;
  Stage.count op Stage.Nodes st.nodes;
  Stage.count op Stage.Backjumps st.backjumps;
  Stage.count op Stage.Learned st.learned;
  Stage.count op Stage.Bounded st.bounded

(* Replays [run kind p] under [op]'s spans; returns the answer and the
   parsed program (for the dependence stage, timed outside the op). *)
let replay kind p op =
  let stage st f = Stage.stage op st f in
  let candidates = p.spec.Spec.candidates in
  let prog = stage Stage.Parse (fun () -> parse p) in
  let b0 = stage Stage.Build (fun () -> Build.build ~candidates prog) in
  let net0 = b0.Build.network in
  Stage.count op Stage.Domain_values (Network.total_domain_size net0);
  let certified = kind = Paper_certified in
  let costs =
    if certified then begin
      Stage.count op Stage.Profile_queries (Network.total_domain_size net0);
      stage Stage.Profile (fun () -> cost_table prog net0)
    end
    else begin
      Stage.skip op Stage.Profile;
      [||]
    end
  in
  let b, prune =
    if certified then begin
      let b, info = stage Stage.Prune (fun () -> Prune.apply b0) in
      Stage.count op Stage.Prune_removed (Prune.total info);
      (b, Some info)
    end
    else begin
      Stage.skip op Stage.Prune;
      (b0, None)
    end
  in
  let net = b.Build.network in
  ignore (stage Stage.Compile (fun () -> Network.compile net));
  let comps, on_event = recorder () in
  let result =
    stage Stage.Search (fun () ->
        match kind with
        | Paper_enhanced | Hard_enhanced ->
          Solver.solve_components ~config:(Mlo_csp.Schemes.enhanced ~seed:1 ()) net
        | Paper_certified ->
          let cost_of = Optimizer.layout_cost ~objective:Optimizer.Estimated_misses prog in
          let cost name v =
            cost_of ~array_name:name
              ~layout:(Network.value net (Build.var_of_array b name) v)
          in
          Bnb.branch_and_bound ~config:Bnb.default_config ~on_event ~cost net
        | Scale_cdl -> Cdl.solve_components ~config:Cdl.default_config ~on_event net)
  in
  record_stats op result.Solver.stats;
  let proof =
    match kind with
    | Paper_certified | Scale_cdl ->
      let pr =
        stage Stage.Digest (fun () ->
            certificate
              ~scheme:(if certified then "bnb" else "cdl")
              ~optimal:certified ~prog ~net0 ~prune ~costs comps
              result.Solver.outcome)
      in
      Stage.count op Stage.Proof_steps (List.length pr.Proof.steps);
      Some pr
    | Paper_enhanced | Hard_enhanced ->
      Stage.skip op Stage.Digest;
      None
  in
  let answer =
    match result.Solver.outcome with
    | Solver.Solution a ->
      Stage.skip op Stage.Unsat_core;
      let layouts = Build.assignment_layouts b a in
      let lookup name = List.assoc_opt name layouts in
      ignore (stage Stage.Restructure (fun () -> Select.restructure prog lookup));
      let objective =
        if certified then
          Some (stage Stage.Profile (fun () -> Optimizer.objective_cost prog layouts))
        else None
      in
      {
        no_answer with
        layouts = Some layouts;
        checks = Some result.Solver.stats.checks;
        objective;
      }
    | Solver.Unsatisfiable | Solver.Aborted ->
      ignore (stage Stage.Unsat_core (fun () -> Mlo_analysis.Netcheck.unsat_core net));
      Stage.skip op Stage.Restructure;
      { no_answer with checks = Some result.Solver.stats.checks }
  in
  let answer =
    match proof with
    | None ->
      Stage.skip op Stage.Check;
      answer
    | Some pr ->
      let costs = if certified then Some costs else None in
      { answer with certificate = Some (stage Stage.Check (fun () -> Checker.check ?costs p.net pr)) }
  in
  let answer =
    match (certified, answer.layouts) with
    | true, Some layouts ->
      let lookup name = List.assoc_opt name layouts in
      let sim = stage Stage.Parse (fun () -> parse_sim p) in
      let sim = stage Stage.Restructure (fun () -> Select.restructure sim lookup) in
      let report = stage Stage.Simulate (fun () -> Simulate.run sim ~layouts:lookup) in
      Stage.count op Stage.Accesses report.Simulate.counters.Mlo_cachesim.Hierarchy.accesses;
      { answer with cycles = Some (Simulate.cycles report) }
    | _ ->
      Stage.skip op Stage.Simulate;
      answer
  in
  (answer, prog)

(* Dependence analysis on its own: the legal loop orders of every nest,
   which build, profile and restructure each derive again inside the
   op. *)
let deps op prog =
  let before = (Mlo_ir.Presburger.stats ()).Mlo_ir.Presburger.checks in
  let orders =
    Stage.stage op Stage.Deps (fun () ->
        Array.fold_left
          (fun acc n -> acc + List.length (Mlo_ir.Dependence.legal_permutations n))
          0 (Program.nests prog))
  in
  Stage.count op Stage.Legal_orders orders;
  Stage.count op Stage.Presburger_checks
    ((Mlo_ir.Presburger.stats ()).Mlo_ir.Presburger.checks - before)

(* ------------------------------------------------------------------ *)
(* Layout quality, once per run                                         *)
(* ------------------------------------------------------------------ *)

type quality = {
  est_misses : float;  (** static L1 miss estimate of the chosen layouts *)
  est_misses_default : float;  (** the same for row-major everywhere *)
  sim_cycles : int;  (** simulated cycles of the optimized program *)
  sim_cycles_original : int;  (** original loop orders, row-major *)
}

let quality p layouts =
  let prog = parse p in
  let default =
    List.map
      (fun a ->
        ( Mlo_ir.Array_info.name a,
          Layout.row_major (Mlo_ir.Array_info.rank a) ))
      (Array.to_list (Program.arrays prog))
  in
  let sim = parse_sim p in
  let lookup name = List.assoc_opt name layouts in
  {
    est_misses = Optimizer.objective_cost prog layouts;
    est_misses_default = Optimizer.objective_cost prog default;
    sim_cycles = Simulate.cycles (simulate sim lookup);
    sim_cycles_original = Simulate.cycles (Simulate.run sim ~layouts:(fun _ -> None));
  }
