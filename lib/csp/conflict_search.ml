(* The conflict-directed forward-checking kernel: see the .mli for the
   two modes.  Structured after Solver.solve_compiled.  Soundness notes:

   - A learned nogood is the set of assignments at the dead end's
     conflict-set levels: CBJ semantics say those assignments (alone)
     admit no extension of the dead-end variable, so no solution holds
     them all.  Supersets of conflict sets stay valid, so the coarse
     per-variable blame below only weakens nogoods, never breaks them.
   - A nogood-forced pruning is blamed on the levels of all its held
     literals (blaming just the current level would be unsound: the
     pruning survives backtracking above the other literals' levels).
     Blame bits for levels whose trail entry lives elsewhere can go
     stale after backjumps — stale bits only add premises to later
     conflict sets, which keeps them valid (and the matrix is cleared on
     restart, bounding the drift).
   - Unit nogoods are global bans: a singleton conflict set means the
     assignment alone admits no extension, independent of the rest of
     the tree.

   Minimize mode adds:

   - The bound is kept as a drift-free per-level prefix: [acc.(l)] is
     the cost of the assignments at levels < l and [rem.(l)] the sum of
     the static (full-domain) per-variable minima of the variables
     unassigned at levels < l; both are extended by one addition per
     assignment and never subtracted from, so backtracking restores the
     parent's exact values by construction.  The live-domain refinement
     (per unassigned variable, min over the forward-checked domain minus
     the static minimum, always >= 0) is recomputed at each node.
   - A cost refutation is blamed on the levels of the assigned variables
     charged above their static minima, plus — for each refined
     unassigned variable — the levels that pruned its domain
     ([pruned_by]).  Under any other assignment holding exactly those
     literals the same charges and at least the same domain prunings
     recur, so the bound is at least as large and the refutation stands:
     cost conflict sets obey the same CBJ contract as wipeout ones, and
     supersets remain valid.
   - A nogood learned while an incumbent of cost B exists means "no
     completion holding these literals costs < B".  B only decreases and
     is always achieved by the stored incumbent, so replaying the nogood
     can only skip solutions that do not improve on the final answer.
     With no incumbent (unsatisfiable networks) every nogood is a plain
     constraint nogood, as in Satisfy mode.
   - A solution leaf is treated as a refutation blamed on every level:
     the search resumes with the chronologically previous value, which
     keeps it exhaustive below the pruning bound. *)

module Trace = Mlo_obs.Trace
open Solver

type mode =
  | Satisfy of { restarts : int; restart_base : int }
  | Minimize of { costs : float array array; slack : float }

let cost_of ~costs a =
  let total = ref 0.0 in
  Array.iteri (fun i v -> total := !total +. costs.(i).(v)) a;
  !total

(* luby 1, 2, 3, ... = 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ... *)
let rec luby i =
  let k = ref 1 in
  while (1 lsl !k) - 1 < i do incr k done;
  if (1 lsl !k) - 1 = i then 1 lsl (!k - 1)
  else luby (i - (1 lsl (!k - 1)) + 1)

exception Restart_now
exception Abort

(* What [search] returns when a Satisfy-mode leaf is reached: above every
   level, and the assignment is left in place on the way up.  Any other
   return is a backjump target level (-1: the whole tree is refuted). *)
let found = max_int

let run mode ~preprocess ~learn_limit ~max_checks ?cancel ?on_event comp =
  let n = Compiled.num_vars comp in
  let stats = Stats.create () in
  Stats.ensure_hists stats n;
  let tr = Trace.enabled () in
  let t_wall = Clock.wall_s () and t_cpu = Clock.cpu_s () in
  let finish outcome =
    stats.Stats.elapsed_s <- Clock.wall_s () -. t_wall;
    stats.Stats.cpu_s <- Clock.cpu_s () -. t_cpu;
    { outcome; stats }
  in
  let base =
    if n = 0 then None
    else
      match preprocess with
      | No_preprocess -> Some None
      | Arc_consistency -> (
        match Ac2001.run comp with
        | Error _wiped -> None
        | Ok domains -> Some (Some domains))
  in
  match base with
  | None -> finish (if n = 0 then Solution [||] else Unsatisfiable)
  | Some reduced ->
    let vsids = match mode with Satisfy _ -> true | Minimize _ -> false in
    let store = Nogood.create ~limit:learn_limit comp in
    let assignment = Array.make n (-1) in
    let level_of = Array.make n (-1) in
    let var_at = Array.make n (-1) in
    let lw = Lset.words n in
    let conf = Lset.make_mat n n in
    let carry = Lset.make_mat 1 n in
    let fresh_domains () =
      match reduced with
      | Some d -> Array.map Bitset.copy d
      | None ->
        Array.init n (fun i -> Bitset.create_full (Compiled.domain_size comp i))
    in
    let domains = fresh_domains () in
    let trail = Array.make n [] in
    let pruned_by = Lset.make_mat n n in
    let max_dom = ref 1 in
    for i = 0 to n - 1 do
      if Compiled.domain_size comp i > !max_dom then
        max_dom := Compiled.domain_size comp i
    done;
    let md = !max_dom in
    let cand = Array.make (n * md) 0 in
    let keys = Array.make md 0.0 in

    (* Satisfy: VSIDS activities per variable and per (variable, value).
       [vact] starts at the static degree so the pre-conflict order
       matches the most-constraining heuristic; value activities start
       flat. *)
    let vact =
      if vsids then Array.init n (fun v -> float_of_int (Compiled.degree comp v))
      else [||]
    in
    let qact = if vsids then Array.make (n * md) 0.0 else [||] in
    let inc = ref 1.0 in
    let decay_rate = 0.95 in
    let rescale () =
      if !inc > 1e100 then begin
        for v = 0 to n - 1 do
          vact.(v) <- vact.(v) *. 1e-100
        done;
        for i = 0 to (n * md) - 1 do
          qact.(i) <- qact.(i) *. 1e-100
        done;
        inc := !inc *. 1e-100
      end
    in

    (* Minimize: static full-domain minima (admissible for the live
       domains too: a minimum over a superset can only be smaller), the
       per-level bound prefixes, and the incumbent with its canonical
       cost as the pruning bound. *)
    let costs = match mode with Minimize m -> m.costs | Satisfy _ -> [||] in
    let static_min =
      Array.map (fun row -> Array.fold_left Float.min infinity row) costs
    in
    let acc = if vsids then [||] else Array.make (n + 1) 0.0 in
    let rem =
      if vsids then [||]
      else Array.make (n + 1) (Array.fold_left ( +. ) 0.0 static_min)
    in
    let incumbent = ref None in
    let bound = ref infinity in

    let check_limit = match max_checks with Some m -> m | None -> max_int in
    let bump_check =
      match cancel with
      | None ->
        fun () ->
          stats.Stats.checks <- stats.Stats.checks + 1;
          if stats.Stats.checks > check_limit then raise Abort
      | Some cancelled ->
        fun () ->
          stats.Stats.checks <- stats.Stats.checks + 1;
          if stats.Stats.checks > check_limit then raise Abort;
          if stats.Stats.checks land 255 = 0 && cancelled () then raise Abort
    in

    let select_var =
      match mode with
      | Satisfy _ ->
        (* highest activity, ties by smaller current domain, then lower
           index *)
        fun () ->
          let best = ref (-1) in
          let ba = ref 0.0 and bd = ref 0 in
          for v = 0 to n - 1 do
            if level_of.(v) < 0 then
              if !best < 0 then begin
                best := v;
                ba := vact.(v);
                bd := Bitset.count domains.(v)
              end
              else if vact.(v) > !ba then begin
                best := v;
                ba := vact.(v);
                bd := Bitset.count domains.(v)
              end
              else if vact.(v) = !ba then begin
                let d = Bitset.count domains.(v) in
                if d < !bd then begin
                  best := v;
                  bd := d
                end
              end
          done;
          !best
      | Minimize _ ->
        (* smallest live domain, ties by higher degree then lower index:
           the optimality proof visits the whole bounded space, so the
           fail-first order pays twice *)
        fun () ->
          let best = ref (-1) and bd = ref max_int and bdeg = ref (-1) in
          for v = 0 to n - 1 do
            if level_of.(v) < 0 then begin
              let d = Bitset.count domains.(v) in
              let deg = Compiled.degree comp v in
              if d < !bd || (d = !bd && deg > !bdeg) then begin
                best := v;
                bd := d;
                bdeg := deg
              end
            end
          done;
          !best
    in

    (* Live values minus banned ones, by ascending key, ties by lower
       value index: the key is minus the value activity (Satisfy) or the
       value's cost, so the greedy first descent doubles as the first
       incumbent (Minimize). *)
    let fill_candidates var level =
      let off = level * md in
      let m0 = Bitset.fill_array domains.(var) cand off in
      let m = ref 0 in
      for k = 0 to m0 - 1 do
        let v = cand.(off + k) in
        if not (Nogood.banned store var v) then begin
          cand.(off + !m) <- v;
          incr m
        end
      done;
      let m = !m in
      if vsids then begin
        let qoff = var * md in
        for k = 0 to m - 1 do
          keys.(k) <- -.qact.(qoff + cand.(off + k))
        done
      end
      else begin
        let c = costs.(var) in
        for k = 0 to m - 1 do
          keys.(k) <- c.(cand.(off + k))
        done
      end;
      for k = 1 to m - 1 do
        let s = keys.(k) and v = cand.(off + k) in
        let p = ref k in
        while
          !p > 0
          && (keys.(!p - 1) > s
              || (keys.(!p - 1) = s && cand.(off + !p - 1) > v))
        do
          keys.(!p) <- keys.(!p - 1);
          cand.(off + !p) <- cand.(off + !p - 1);
          decr p
        done;
        keys.(!p) <- s;
        cand.(off + !p) <- v
      done;
      m
    in

    (* The level and the variable [prune] removes values from, set by
       its callers, so forward checking and nogood propagation share one
       callback instead of allocating a closure per check. *)
    let at_level = ref 0 and at_var = ref 0 in
    let prune w =
      let level = !at_level and j = !at_var in
      Bitset.remove domains.(j) w;
      trail.(level) <- (j, w) :: trail.(level);
      Lset.add pruned_by (j * lw) level;
      stats.Stats.prunings <- stats.Stats.prunings + 1
    in

    let undo_level level =
      List.iter (fun (j, w) -> Bitset.add domains.(j) w) trail.(level);
      List.iter
        (fun (j, _) -> Lset.remove pruned_by (j * lw) level)
        trail.(level);
      trail.(level) <- []
    in

    let fc_assign var v level =
      let nbrs = Compiled.neighbors comp var in
      let wiped = ref false in
      let k = ref 0 in
      at_level := level;
      while (not !wiped) && !k < Array.length nbrs do
        let j = nbrs.(!k) in
        incr k;
        if level_of.(j) < 0 then begin
          bump_check ();
          let row = Compiled.row comp (Compiled.handle comp var j) v in
          at_var := j;
          Bitset.iter_diff prune domains.(j) row;
          if Bitset.is_empty domains.(j) then begin
            wiped := true;
            Lset.union_below pruned_by (j * lw) conf (level * lw) level lw
          end
        end
      done;
      not !wiped
    in

    let held y w = assignment.(y) = w in
    (* Nogood-forced pruning: remove the last non-held literal's value,
       blaming every held literal's level (see the soundness note at the
       top).  The store cannot see domains, so applicability is checked
       here. *)
    let ng_prune id ~var:x ~value:w =
      if level_of.(x) >= 0 || not (Bitset.mem domains.(x) w) then false
      else begin
        at_var := x;
        prune w;
        Nogood.iter_lits store id (fun y u ->
            if assignment.(y) = u then Lset.add pruned_by (x * lw) level_of.(y));
        Bitset.is_empty domains.(x)
      end
    in

    (* Propagate the new assignment through the learned store; [false]
       means this value dies here (culprits merged into this level's
       conflict set, prunings undone by the caller). *)
    let ng_assign var v level =
      bump_check ();
      at_level := level;
      match Nogood.on_assign store ~var ~value:v ~held ~prune:ng_prune with
      | Nogood.Quiet -> true
      | Nogood.Wiped x ->
        Lset.union_below pruned_by (x * lw) conf (level * lw) level lw;
        false
      | Nogood.Violated id ->
        Nogood.iter_lits store id (fun y u ->
            if assignment.(y) = u && level_of.(y) < level then
              Lset.add conf (level * lw) level_of.(y));
        false
    in

    (* The bound test for the node at [level], whose assignment is in
       place and whose lookahead succeeded: extend the prefixes, then —
       once an incumbent exists — refute the node when its bound cannot
       strictly beat it, merging the cost conflict set into this level's
       row so the caller treats the value like a wipeout. *)
    let bound_prune =
      match mode with
      | Satisfy _ -> fun _ -> false
      | Minimize { slack; _ } ->
        let live_min j =
          let c = costs.(j) in
          let m = ref infinity in
          Bitset.iter (fun v -> if c.(v) < !m then m := c.(v)) domains.(j);
          !m
        in
        fun level ->
          let var = var_at.(level) in
          acc.(level + 1) <- acc.(level) +. costs.(var).(assignment.(var));
          rem.(level + 1) <- rem.(level) -. static_min.(var);
          !bound < infinity
          && begin
               let lb = ref (acc.(level + 1) +. rem.(level + 1)) in
               for j = 0 to n - 1 do
                 if level_of.(j) < 0 then begin
                   let m = live_min j in
                   if m > static_min.(j) then
                     lb := !lb +. (m -. static_min.(j))
                 end
               done;
               let lb = !lb in
               if lb *. (1.0 +. slack) < !bound then false
               else begin
                 for y = 0 to n - 1 do
                   let l = level_of.(y) in
                   if
                     l >= 0 && l < level
                     && costs.(y).(assignment.(y)) > static_min.(y)
                   then Lset.add conf (level * lw) l
                 done;
                 for j = 0 to n - 1 do
                   if level_of.(j) < 0 && live_min j > static_min.(j) then
                     Lset.union_below pruned_by (j * lw) conf (level * lw)
                       level lw
                 done;
                 stats.Stats.bounded <- stats.Stats.bounded + 1;
                 if tr then
                   Trace.instant ~cat:"solver" "bound-prune"
                     ~args:
                       [
                         ("lb", Trace.Float lb);
                         ("incumbent", Trace.Float !bound);
                         ("level", Trace.Int level);
                       ];
                 true
               end
             end
    in

    (* A complete consistent assignment.  Satisfy stops here; Minimize
       records a strict improvement as the incumbent and fails back
       chronologically, blamed on every level, so the search keeps
       exhausting the space below the bound. *)
    let leaf =
      match mode with
      | Satisfy _ -> fun () -> found
      | Minimize _ ->
        fun () ->
          let cost = cost_of ~costs assignment in
          if cost < !bound then begin
            bound := cost;
            (match !incumbent with
            | Some b -> Array.blit assignment 0 b 0 n
            | None -> incumbent := Some (Array.copy assignment));
            stats.Stats.incumbents <- stats.Stats.incumbents + 1;
            (match on_event with
            | None -> ()
            | Some f -> f (Incumbent { assignment = Array.copy assignment }));
            if tr then
              Trace.instant ~cat:"solver" "incumbent"
                ~args:[ ("cost", Trace.Float cost) ]
          end;
          Lset.clear carry 0 lw;
          for l = 0 to n - 2 do
            Lset.add carry 0 l
          done;
          n - 1
    in

    (* Per-run conflict budget (Satisfy restarts); Restart_now unwinds
       to the run loop. *)
    let budget = ref max_int in
    let conflicts = ref 0 in

    let lvars = Array.make n 0 in
    let lvals = Array.make n 0 in
    let llvls = Array.make n 0 in

    let dead_end var level =
      let off = level * lw in
      Lset.keep_below conf off level lw;
      (* Gather the culprit assignments (ascending levels) and, in
         Satisfy mode, bump every participant — conflict-side VSIDS. *)
      let cnt = ref 0 in
      Lset.iter
        (fun l ->
          let y = var_at.(l) in
          lvars.(!cnt) <- y;
          lvals.(!cnt) <- assignment.(y);
          llvls.(!cnt) <- l;
          incr cnt;
          if vsids then begin
            vact.(y) <- vact.(y) +. !inc;
            qact.((y * md) + assignment.(y)) <-
              qact.((y * md) + assignment.(y)) +. !inc
          end)
        conf off lw;
      if vsids then begin
        vact.(var) <- vact.(var) +. !inc;
        inc := !inc /. decay_rate;
        rescale ()
      end;
      if !cnt = 0 then -1
      else begin
        let forgotten0 = Nogood.forgotten store in
        Nogood.learn store ~n:!cnt ~vars:lvars ~vals:lvals ~levels:llvls;
        (match on_event with
        | None -> ()
        | Some f ->
            f
              (Learned
                 {
                   dead = var;
                   lits = Array.init !cnt (fun i -> (lvars.(i), lvals.(i)));
                 }));
        if vsids then Nogood.decay store;
        stats.Stats.learned <- stats.Stats.learned + 1;
        let dropped = Nogood.forgotten store - forgotten0 in
        if dropped > 0 then begin
          stats.Stats.forgotten <- stats.Stats.forgotten + dropped;
          if tr then
            Trace.instant ~cat:"solver" "forget"
              ~args:[ ("dropped", Trace.Int dropped) ]
        end;
        if tr then
          Trace.instant ~cat:"solver" "learn"
            ~args:[ ("size", Trace.Int !cnt); ("level", Trace.Int level) ];
        incr conflicts;
        if !conflicts > !budget then raise Restart_now;
        let target = llvls.(!cnt - 1) in
        if target = level - 1 then
          stats.Stats.backtracks <- stats.Stats.backtracks + 1
        else stats.Stats.backjumps <- stats.Stats.backjumps + 1;
        Lset.copy conf off carry 0 lw;
        Lset.remove carry 0 target;
        target
      end
    in

    let rec search level =
      if level = n then leaf ()
      else begin
        if level > stats.Stats.max_depth then stats.Stats.max_depth <- level;
        let var = select_var () in
        var_at.(level) <- var;
        level_of.(var) <- level;
        (* conflict-directed under FC: own-domain prunings share blame *)
        Lset.copy pruned_by (var * lw) conf (level * lw) lw;
        let res = try_values var level (fill_candidates var level) 0 in
        level_of.(var) <- -1;
        var_at.(level) <- -1;
        res
      end

    and try_values var level m k =
      if k >= m then dead_end var level
      else begin
        let v = cand.((level * md) + k) in
        stats.Stats.nodes <- stats.Stats.nodes + 1;
        stats.Stats.nodes_by_depth.(level) <-
          stats.Stats.nodes_by_depth.(level) + 1;
        stats.Stats.nodes_by_var.(var) <- stats.Stats.nodes_by_var.(var) + 1;
        if tr then
          Trace.instant ~cat:"solver" "decision"
            ~args:
              [
                ("var", Trace.Int var);
                ("value", Trace.Int v);
                ("level", Trace.Int level);
              ];
        assignment.(var) <- v;
        let ok =
          fc_assign var v level && ng_assign var v level
          && not (bound_prune level)
        in
        if not ok then begin
          assignment.(var) <- -1;
          undo_level level;
          try_values var level m (k + 1)
        end
        else
          let target = search (level + 1) in
          if target = found then found
          else begin
            assignment.(var) <- -1;
            undo_level level;
            if target < level then target
            else begin
              Lset.union_below carry 0 conf (level * lw) level lw;
              try_values var level m (k + 1)
            end
          end
      end
    in

    let reset_run () =
      Array.fill assignment 0 n (-1);
      Array.fill level_of 0 n (-1);
      Array.fill var_at 0 n (-1);
      Array.fill trail 0 n [];
      Lset.clear pruned_by 0 (n * lw);
      let d = fresh_domains () in
      Array.blit d 0 domains 0 n
    in

    let rec run i =
      budget :=
        (match mode with
        | Satisfy { restarts; restart_base } when i < restarts ->
          restart_base * luby (i + 1)
        | Satisfy _ | Minimize _ -> max_int);
      conflicts := 0;
      match search 0 with
      | target -> target
      | exception Restart_now ->
        stats.Stats.restarts <- stats.Stats.restarts + 1;
        if tr then
          Trace.instant ~cat:"solver" "restart"
            ~args:
              [
                ("run", Trace.Int (i + 1));
                ("learned", Trace.Int (Nogood.size store));
              ];
        let forgotten0 = Nogood.forgotten store in
        Nogood.reduce store ~limit:learn_limit;
        let dropped = Nogood.forgotten store - forgotten0 in
        if dropped > 0 then begin
          stats.Stats.forgotten <- stats.Stats.forgotten + dropped;
          if tr then
            Trace.instant ~cat:"solver" "forget"
              ~args:[ ("dropped", Trace.Int dropped) ]
        end;
        reset_run ();
        run (i + 1)
    in

    (* An interrupted Minimize search still returns its best consistent
       assignment when it has one (anytime). *)
    let best_or otherwise =
      match !incumbent with Some a -> Solution (Array.copy a) | None -> otherwise
    in
    let outcome =
      try
        Trace.with_span ~cat:"solver"
          (if vsids then "cdl-search" else "bnb-search")
          ~args:[ ("vars", Trace.Int n) ]
          (fun () ->
            if run 0 = found then Solution (Array.copy assignment)
            else best_or Unsatisfiable)
      with Abort -> best_or Aborted
    in
    (match outcome with
    | Solution a -> assert (Compiled.verify comp a)
    | Unsatisfiable | Aborted -> ());
    finish outcome

let solve_components ?domains ?on_event ~max_checks solve net =
  let buffers =
    match on_event with
    | None -> [||]
    | Some _ -> Array.make (max 1 (Array.length (Network.components net))) None
  in
  let r =
    Solver.component_driver ?domains ~max_checks
      ~run:(fun ~comp ~vars ~max_checks ~cancel sub ->
        match on_event with
        | None -> solve ~max_checks ~cancel ~on_event:None sub
        | Some _ ->
            let evs = ref [] in
            let r =
              solve ~max_checks ~cancel
                ~on_event:(Some (fun ev -> evs := ev :: !evs))
                sub
            in
            evs := Solver.Finished r.Solver.outcome :: !evs;
            buffers.(comp) <- Some (vars, List.rev !evs);
            r)
      net
  in
  (match on_event with
  | None -> ()
  | Some f ->
      Array.iteri
        (fun k slot ->
          match slot with
          | None -> ()
          | Some (vars, evs) -> List.iter (fun ev -> f ~comp:k ~vars ev) evs)
        buffers);
  r
