module Trace = Mlo_obs.Trace

type var_policy =
  | Lexicographic_var
  | Random_var
  | Most_constraining
  | Min_domain

type val_policy = Lexicographic_val | Random_val | Least_constraining

type backward_policy = Chronological | Graph_based | Conflict_directed

type lookahead = No_lookahead | Forward_checking

type preprocess = No_preprocess | Arc_consistency

type config = {
  var_policy : var_policy;
  val_policy : val_policy;
  backward : backward_policy;
  lookahead : lookahead;
  preprocess : preprocess;
  seed : int;
  max_checks : int option;
}

let default_config =
  {
    var_policy = Lexicographic_var;
    val_policy = Lexicographic_val;
    backward = Chronological;
    lookahead = No_lookahead;
    preprocess = No_preprocess;
    seed = 0;
    max_checks = None;
  }

type outcome = Solution of int array | Unsatisfiable | Aborted

type event =
  | Learned of { dead : int; lits : (int * int) array }
  | Incumbent of { assignment : int array }
  | Finished of outcome

type result = { outcome : outcome; stats : Stats.t }

exception Abort

module Int_set = Set.Make (Int)

(* Outcome of exploring one level: either a full solution was found below,
   or the search must resume at [target] (-1 = no level left, the network
   is unsatisfiable), carrying conflict levels to merge there. *)
type step = Found | Fail of int * Int_set.t

(* Sets of search levels as word masks, one flat-matrix row per level —
   see {!Lset}.  Shared with the conflict-driven engine ({!Cdl}), which
   blames nogood prunings through the same representation. *)

(* Compiled-engine analogue of [step]: the conflict levels to merge at
   the target travel in a single pre-allocated carry buffer instead of a
   set payload (only one failure unwinds at a time). *)
type cstep = CFound | CFail of int

(* ------------------------------------------------------------------ *)
(* Compiled fast path                                                   *)
(* ------------------------------------------------------------------ *)

(* The search below replicates [solve_reference] decision for decision
   (same variable/value orders, same RNG draw sequence, same conflict
   sets), so outcomes and node/backtrack/backjump counts are identical;
   only the cost of each primitive changes.  [checks] counts support-row
   lookups: identical to the reference under no lookahead, one per
   neighbour domain (instead of one per value) under forward checking. *)
let solve_compiled ?(config = default_config) ?cancel comp =
  let n = Compiled.num_vars comp in
  let stats = Stats.create () in
  Stats.ensure_hists stats n;
  (* Tracing gate read once per solve: per-node events cost one local
     branch when disabled. *)
  let tr = Trace.enabled () in
  let rng = Rng.create config.seed in
  let fc = config.lookahead = Forward_checking in
  let t_wall = Clock.wall_s () and t_cpu = Clock.cpu_s () in
  let finish outcome =
    stats.Stats.elapsed_s <- Clock.wall_s () -. t_wall;
    stats.Stats.cpu_s <- Clock.cpu_s () -. t_cpu;
    { outcome; stats }
  in
  (* Optional AC-2001 preprocessing: shrink the domains the search (and,
     under forward checking, the pruning) starts from.  Propagation work
     is not counted in [stats.checks]. *)
  let live =
    match config.preprocess with
    | No_preprocess -> Some None
    | Arc_consistency -> (
      match Ac2001.run comp with
      | Error _wiped -> None
      | Ok domains -> Some (Some domains))
  in
  match live with
  | None -> finish Unsatisfiable
  | Some live ->
    let assignment = Array.make n (-1) in
    let level_of = Array.make n (-1) in
    (* Conflict sets and the backjump carry buffer exist only for the
       jumping strategies; chronological backtracking never reads them.
       [conf] is one level-set row per level; [lw] words each. *)
    let cbj = config.backward <> Chronological in
    let lw = Lset.words n in
    let conf = if cbj then Lset.make_mat n n else [||] in
    let carry = if cbj then Lset.make_mat 1 n else [||] in
    (* [domains], the undo trail and the pruning blame sets back forward
       checking only; non-FC configs read sizes straight off the compiled
       view (or the AC-reduced domains) and need none of the state. *)
    let domains =
      if not fc then [||]
      else
        match live with
        | Some reduced -> Array.map Bitset.copy reduced
        | None ->
          Array.init n (fun i -> Bitset.create_full (Compiled.domain_size comp i))
    in
    let trail = if fc then Array.make n [] else [||] in
    let pruned_by = if fc then Lset.make_mat n n else [||] in
    (* Per-variable counts of unassigned/assigned neighbours, maintained
       incrementally at (un)assignment so the variable-selection scan is
       O(1) per candidate instead of O(degree). *)
    let un_deg = Array.init n (fun i -> Compiled.degree comp i) in
    let as_deg = Array.make n 0 in
    let mark_assigned var =
      let nbrs = Compiled.neighbors comp var in
      for k = 0 to Array.length nbrs - 1 do
        let j = nbrs.(k) in
        un_deg.(j) <- un_deg.(j) - 1;
        as_deg.(j) <- as_deg.(j) + 1
      done
    in
    let mark_unassigned var =
      let nbrs = Compiled.neighbors comp var in
      for k = 0 to Array.length nbrs - 1 do
        let j = nbrs.(k) in
        un_deg.(j) <- un_deg.(j) + 1;
        as_deg.(j) <- as_deg.(j) - 1
      done
    in

    let check_limit =
      match config.max_checks with Some m -> m | None -> max_int
    in
    (* Cooperative cancellation piggybacks on the check counter (every
       256th check), so solves without a [cancel] pay nothing and solves
       with one pay a closure call amortized over 256 table probes. *)
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

    (* [conf row level := levels of var's instantiated neighbours] *)
    let conf_from_neighbors level var =
      let off = level * lw in
      Lset.clear conf off lw;
      let nbrs = Compiled.neighbors comp var in
      for k = 0 to Array.length nbrs - 1 do
        let j = Array.unsafe_get nbrs k in
        if level_of.(j) >= 0 then Lset.add conf off level_of.(j)
      done
    in

    let current_domain_size var =
      if fc then Bitset.count domains.(var)
      else
        match live with
        | Some reduced -> Bitset.count reduced.(var)
        | None -> Compiled.domain_size comp var
    in

    (* Pick the maximum-score variable, lowest index on ties; scores are
       int triples compared lexicographically (strict improvement only,
       matching the reference's [Stdlib.compare s best > 0] scan). *)
    let best_by score0 score1 score2 =
      let best = ref (-1) in
      let b0 = ref 0 and b1 = ref 0 and b2 = ref 0 in
      for v = 0 to n - 1 do
        if level_of.(v) < 0 then begin
          let s0 = score0 v in
          if !best < 0 || s0 >= !b0 then begin
            let s1 = score1 v and s2 = score2 v in
            if
              !best < 0 || s0 > !b0
              || (s0 = !b0 && (s1 > !b1 || (s1 = !b1 && s2 > !b2)))
            then begin
              best := v;
              b0 := s0;
              b1 := s1;
              b2 := s2
            end
          end
        end
      done;
      if !best < 0 then invalid_arg "Solver: no unassigned variable";
      !best
    in

    (* dispatch on the policy once so per-node selection builds no
       closures (the [best_by] score functions are hoisted) *)
    let select_var =
      match config.var_policy with
      | Lexicographic_var ->
        let rec first i =
          if i >= n then invalid_arg "Solver: no unassigned variable"
          else if level_of.(i) < 0 then i
          else first (i + 1)
        in
        fun () -> first 0
      | Random_var ->
        fun () ->
          let cnt = ref 0 in
          for i = 0 to n - 1 do
            if level_of.(i) < 0 then incr cnt
          done;
          let k = ref (Rng.int rng !cnt) in
          let picked = ref (-1) in
          let i = ref 0 in
          while !picked < 0 do
            if level_of.(!i) < 0 then
              if !k = 0 then picked := !i else decr k;
            incr i
          done;
          !picked
      | Most_constraining ->
        let s0 v = un_deg.(v) in
        let s1 v = as_deg.(v) in
        let s2 v = -current_domain_size v in
        fun () -> best_by s0 s1 s2
      | Min_domain ->
        let s0 v = -current_domain_size v in
        let s1 v = un_deg.(v) + as_deg.(v) in
        let s2 _ = 0 in
        fun () -> best_by s0 s1 s2
    in

    (* Number of options [var = v] leaves open in uninstantiated
       neighbours' domains; heuristic table lookups are not counted as
       checks.  With full domains this is the precomputed support count;
       otherwise a word-parallel intersection popcount. *)
    let promise =
      (* dispatch on the domain source once, outside the hot loops *)
      match (fc, live) with
      | true, _ ->
        fun var v ->
          let nbrs = Compiled.neighbors comp var in
          let acc = ref 0 in
          for k = 0 to Array.length nbrs - 1 do
            let j = Array.unsafe_get nbrs k in
            if level_of.(j) < 0 then
              acc :=
                !acc
                + Bitset.inter_count domains.(j)
                    (Compiled.row comp (Compiled.handle comp var j) v)
          done;
          !acc
      | false, Some reduced ->
        fun var v ->
          let nbrs = Compiled.neighbors comp var in
          let acc = ref 0 in
          for k = 0 to Array.length nbrs - 1 do
            let j = Array.unsafe_get nbrs k in
            if level_of.(j) < 0 then
              acc :=
                !acc
                + Bitset.inter_count reduced.(j)
                    (Compiled.row comp (Compiled.handle comp var j) v)
          done;
          !acc
      | false, None ->
        fun var v ->
          let nbrs = Compiled.neighbors comp var in
          let acc = ref 0 in
          for k = 0 to Array.length nbrs - 1 do
            let j = Array.unsafe_get nbrs k in
            if level_of.(j) < 0 then
              acc := !acc + Compiled.support_count comp var v j
          done;
          !acc
    in

    let max_dom = ref 0 in
    for i = 0 to n - 1 do
      if Compiled.domain_size comp i > !max_dom then
        max_dom := Compiled.domain_size comp i
    done;
    let md = max 1 !max_dom in
    let score_scratch = Array.make md 0 in
    (* Per-level candidate buffers, flattened to one stride-[md] array:
       a level's value order must survive the recursive search below it,
       and every level above is done with its own, so a level-indexed
       slice removes all per-node allocation. *)
    let cand = Array.make (n * md) 0 in

    (* Fill [cand] slice [level] with [var]'s live values in the
       configured order and return how many there are. *)
    let fill_candidates var level =
      let off = level * md in
      let m =
        if fc then Bitset.fill_array domains.(var) cand off
        else
          match live with
          | Some reduced -> Bitset.fill_array reduced.(var) cand off
          | None ->
            let d = Compiled.domain_size comp var in
            for v = 0 to d - 1 do
              cand.(off + v) <- v
            done;
            d
      in
      (match config.val_policy with
      | Lexicographic_val -> ()
      | Random_val ->
        (* prefix Fisher–Yates: draw for draw what [Rng.shuffle] does on
           an array of length exactly [m] *)
        for i = m - 1 downto 1 do
          let j = Rng.int rng (i + 1) in
          let t = cand.(off + i) in
          cand.(off + i) <- cand.(off + j);
          cand.(off + j) <- t
        done
      | Least_constraining ->
        (* in-place insertion sort by (score desc, value asc) — a total
           order, so the result is the reference comparator's, without
           tuple or closure allocation *)
        let scores = score_scratch in
        for k = 0 to m - 1 do
          scores.(k) <- promise var cand.(off + k)
        done;
        for k = 1 to m - 1 do
          let s = scores.(k) and v = cand.(off + k) in
          let p = ref k in
          while
            !p > 0
            && (scores.(!p - 1) < s
                || (scores.(!p - 1) = s && cand.(off + !p - 1) > v))
          do
            scores.(!p) <- scores.(!p - 1);
            cand.(off + !p) <- cand.(off + !p - 1);
            decr p
          done;
          scores.(!p) <- s;
          cand.(off + !p) <- v
        done);
      m
    in

    (* Check [var = v] against instantiated neighbours in instantiation
       order; on conflict record the culprit level for conflict-directed
       jumping.  Under forward checking surviving domain values are
       already consistent with all instantiated variables, so this is
       skipped. *)
    let nbr_scratch = Array.make n 0 in
    let consistent_with_assigned var v level =
      let nbrs = Compiled.neighbors comp var in
      let cnt = ref 0 in
      for k = 0 to Array.length nbrs - 1 do
        let j = nbrs.(k) in
        if level_of.(j) >= 0 then begin
          (* insertion sort by level, ascending *)
          let p = ref !cnt in
          while !p > 0 && level_of.(nbr_scratch.(!p - 1)) > level_of.(j) do
            nbr_scratch.(!p) <- nbr_scratch.(!p - 1);
            decr p
          done;
          nbr_scratch.(!p) <- j;
          incr cnt
        end
      done;
      let rec go k =
        if k >= !cnt then true
        else begin
          let j = nbr_scratch.(k) in
          bump_check ();
          if Compiled.allowed comp var v j assignment.(j) then go (k + 1)
          else begin
            if config.backward = Conflict_directed then
              Lset.add conf (level * lw) level_of.(j);
            false
          end
        end
      in
      go 0
    in

    let prune level j w =
      Bitset.remove domains.(j) w;
      trail.(level) <- (j, w) :: trail.(level);
      Lset.add pruned_by (j * lw) level;
      stats.Stats.prunings <- stats.Stats.prunings + 1;
      if tr then
        Trace.instant ~cat:"solver" "prune"
          ~args:
            [
              ("var", Trace.Int j);
              ("value", Trace.Int w);
              ("level", Trace.Int level);
            ]
    in

    let undo_level level =
      List.iter (fun (j, w) -> Bitset.add domains.(j) w) trail.(level);
      List.iter
        (fun (j, _) -> Lset.remove pruned_by (j * lw) level)
        trail.(level);
      trail.(level) <- []
    in

    (* Prune future neighbours against [var = v]; false on a domain
       wipeout (conflict levels of the wiped variable are merged into
       this level's conflict set).  One support-row fetch prunes a whole
       neighbour domain word-parallel. *)
    let fc_assign var v level =
      let nbrs = Compiled.neighbors comp var in
      let wiped = ref false in
      let k = ref 0 in
      while (not !wiped) && !k < Array.length nbrs do
        let j = nbrs.(!k) in
        incr k;
        if level_of.(j) < 0 then begin
          bump_check ();
          let row = Compiled.row comp (Compiled.handle comp var j) v in
          Bitset.iter_diff (fun w -> prune level j w) domains.(j) row;
          if Bitset.is_empty domains.(j) then begin
            wiped := true;
            if config.backward <> Chronological then
              Lset.union_below pruned_by (j * lw) conf (level * lw) level lw
          end
        end
      done;
      not !wiped
    in

    let dead_end level =
      match config.backward with
      | Chronological ->
        stats.Stats.backtracks <- stats.Stats.backtracks + 1;
        if tr then
          Trace.instant ~cat:"solver" "backtrack"
            ~args:[ ("level", Trace.Int level) ];
        CFail (level - 1)
      | Graph_based | Conflict_directed ->
        (* this level's conf row is dead after this node, filter it in
           place *)
        let off = level * lw in
        Lset.keep_below conf off level lw;
        let target = Lset.max_elt conf off lw in
        if target < 0 then CFail (-1)
        else begin
          if target = level - 1 then begin
            stats.Stats.backtracks <- stats.Stats.backtracks + 1;
            if tr then
              Trace.instant ~cat:"solver" "backtrack"
                ~args:[ ("level", Trace.Int level) ]
          end
          else begin
            stats.Stats.backjumps <- stats.Stats.backjumps + 1;
            if tr then
              Trace.instant ~cat:"solver" "backjump"
                ~args:
                  [
                    ("level", Trace.Int level);
                    ("target", Trace.Int target);
                    ("distance", Trace.Int (level - target));
                  ]
          end;
          Lset.copy conf off carry 0 lw;
          Lset.remove carry 0 target;
          CFail target
        end
    in

    let rec search level =
      if level = n then CFound
      else begin
        if level > stats.Stats.max_depth then stats.Stats.max_depth <- level;
        let var = select_var () in
        level_of.(var) <- level;
        mark_assigned var;
        (* Under forward checking, values already pruned from [var]'s own
           domain were removed by earlier assignments; those levels share
           responsibility for any dead-end here. *)
        (match config.backward with
        | Graph_based -> conf_from_neighbors level var
        | Conflict_directed ->
          if fc then Lset.copy pruned_by (var * lw) conf (level * lw) lw
          else Lset.clear conf (level * lw) lw
        | Chronological -> ());
        let res = try_values var level (fill_candidates var level) 0 in
        mark_unassigned var;
        level_of.(var) <- -1;
        res
      end

    and try_values var level m k =
      if k >= m then dead_end level
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
        let pre_ok = fc || consistent_with_assigned var v level in
        if not pre_ok then try_values var level m (k + 1)
        else begin
          assignment.(var) <- v;
          let fc_ok = if fc then fc_assign var v level else true in
          if not fc_ok then begin
            assignment.(var) <- -1;
            undo_level level;
            try_values var level m (k + 1)
          end
          else
            match search (level + 1) with
            | CFound -> CFound
            | CFail target ->
              assignment.(var) <- -1;
              if fc then undo_level level;
              if target < level then CFail target
              else begin
                if cbj then
                  Lset.union_below carry 0 conf (level * lw) level lw;
                try_values var level m (k + 1)
              end
        end
      end
    in

    let outcome =
      try
        match
          Trace.with_span ~cat:"solver" "search"
            ~args:[ ("vars", Trace.Int n) ]
            (fun () -> search 0)
        with
        | CFound -> Solution (Array.copy assignment)
        | CFail _ -> Unsatisfiable
      with Abort -> Aborted
    in
    finish outcome

let solve ?config net = solve_compiled ?config (Network.compile net)

(* Merge one component's stats into the whole-network accumulator.
   [vars] maps component-local variable indices back to network indices;
   depth histograms add up because a component search never exceeds the
   whole-network depth. *)
let merge_component_stats stats ~n ~vars (s : Stats.t) =
  stats.Stats.nodes <- stats.Stats.nodes + s.Stats.nodes;
  stats.Stats.checks <- stats.Stats.checks + s.Stats.checks;
  stats.Stats.backtracks <- stats.Stats.backtracks + s.Stats.backtracks;
  stats.Stats.backjumps <- stats.Stats.backjumps + s.Stats.backjumps;
  stats.Stats.prunings <- stats.Stats.prunings + s.Stats.prunings;
  stats.Stats.learned <- stats.Stats.learned + s.Stats.learned;
  stats.Stats.forgotten <- stats.Stats.forgotten + s.Stats.forgotten;
  stats.Stats.restarts <- stats.Stats.restarts + s.Stats.restarts;
  stats.Stats.bounded <- stats.Stats.bounded + s.Stats.bounded;
  stats.Stats.incumbents <- stats.Stats.incumbents + s.Stats.incumbents;
  if s.Stats.max_depth > stats.Stats.max_depth then
    stats.Stats.max_depth <- s.Stats.max_depth;
  Array.iteri
    (fun d c ->
      if d < n then
        stats.Stats.nodes_by_depth.(d) <- stats.Stats.nodes_by_depth.(d) + c)
    s.Stats.nodes_by_depth;
  Array.iteri
    (fun lv c ->
      if lv < Array.length vars then
        stats.Stats.nodes_by_var.(vars.(lv)) <-
          stats.Stats.nodes_by_var.(vars.(lv)) + c)
    s.Stats.nodes_by_var

(* Component-wise search.  Variables in different connected components
   of the constraint graph share no constraint, so the network's
   solutions are exactly the products of per-component solutions:
   solving components independently is decision-equivalent to the
   whole-network search (same satisfiability; any merged assignment
   verifies), while dead-ends can no longer thrash across unrelated
   components and backjump distances stay within a component.  A
   single-component network takes the exact whole-network path, so the
   decomposition is free when there is nothing to split.

   With [domains > 1] the components are solved on a Domain pool.
   [Network.induced] only reads the immutable constraint store of the
   parent network, so the whole induce/compile/solve chain runs inside
   the workers.  The merge walks components in index order and stops at
   the first non-solution exactly like the serial loop, so outcomes and
   merged stats are identical to [domains = 1] whenever the budget does
   not bite (without [max_checks] they always are; later components'
   results are simply discarded past the first failure).  The check
   budget is shared through an atomic spent-counter: each component
   starts with what its predecessors have left, and the first budget
   exhaustion flips an abort flag that the sibling solves poll (the
   [cancel] hook above), so one exhausted Domain cancels the rest
   instead of letting every worker burn a full budget.

   The driver is generic in the per-component engine ([run]) so the
   conflict-directed schemes ({!Cdl}, {!Bnb}) reuse the exact
   decomposition, budget-sharing and merge logic. *)
let component_driver ?(domains = 1) ~max_checks ~run net =
  let comp = Network.compile net in
  let comps = Compiled.components comp in
  if Array.length comps <= 1 then
    run ~comp:0
      ~vars:(Array.init (Network.num_vars net) Fun.id)
      ~max_checks ~cancel:None net
  else begin
    let ncomps = Array.length comps in
    let domains = max 1 (min domains ncomps) in
    Trace.with_span ~cat:"solver" "solve-components"
      ~args:
        [ ("components", Trace.Int ncomps); ("domains", Trace.Int domains) ]
    @@ fun () ->
    let n = Compiled.num_vars comp in
    let t_wall = Clock.wall_s () and t_cpu = Clock.cpu_s () in
    let stats = Stats.create () in
    Stats.ensure_hists stats n;
    let assignment = Array.make n (-1) in
    (* [None] = never ran (siblings were cancelled before it started). *)
    let results = Array.make ncomps None in
    if domains = 1 then begin
      (* The check budget is global: each component consumes what the
         previous ones left over, mirroring the whole-network abort. *)
      let remaining = ref max_checks in
      let stop = ref false in
      for k = 0 to ncomps - 1 do
        if not !stop then begin
          let sub = Network.induced net comps.(k) in
          let r =
            run ~comp:k ~vars:comps.(k) ~max_checks:!remaining ~cancel:None sub
          in
          results.(k) <- Some r;
          (match !remaining with
          | Some m -> remaining := Some (max 0 (m - r.stats.Stats.checks))
          | None -> ());
          match r.outcome with
          | Solution _ -> ()
          | Unsatisfiable | Aborted -> stop := true
        end
      done
    end
    else begin
      let spent = Atomic.make 0 in
      let exhausted = Atomic.make false in
      let cancel () = Atomic.get exhausted in
      Mlo_support.Pool.parallel_iter ~domains ncomps (fun k ->
          if not (Atomic.get exhausted) then begin
            let budget =
              Option.map (fun m -> max 0 (m - Atomic.get spent)) max_checks
            in
            let sub = Network.induced net comps.(k) in
            let r =
              run ~comp:k ~vars:comps.(k) ~max_checks:budget
                ~cancel:(Some cancel) sub
            in
            results.(k) <- Some r;
            if max_checks <> None then
              ignore (Atomic.fetch_and_add spent r.stats.Stats.checks);
            match r.outcome with
            | Aborted -> Atomic.set exhausted true
            | Solution _ | Unsatisfiable -> ()
          end)
    end;
    (* Merge in component order up to (and including) the first
       non-solution — the serial stopping rule, applied after the fact. *)
    let failed = ref None in
    (try
       for k = 0 to ncomps - 1 do
         match results.(k) with
         | None ->
           failed := Some Aborted;
           raise Exit
         | Some r -> (
           merge_component_stats stats ~n ~vars:comps.(k) r.stats;
           match r.outcome with
           | Solution a ->
             Array.iteri (fun lv v -> assignment.(comps.(k).(lv)) <- v) a
           | (Unsatisfiable | Aborted) as o ->
             failed := Some o;
             raise Exit)
       done
     with Exit -> ());
    stats.Stats.elapsed_s <- Clock.wall_s () -. t_wall;
    stats.Stats.cpu_s <- Clock.cpu_s () -. t_cpu;
    let outcome =
      match !failed with
      | Some o -> o
      | None -> Solution (Array.copy assignment)
    in
    { outcome; stats }
  end

let solve_components ?(config = default_config) ?domains net =
  component_driver ?domains ~max_checks:config.max_checks
    ~run:(fun ~comp:_ ~vars:_ ~max_checks ~cancel sub ->
      let config = { config with max_checks } in
      solve_compiled ~config ?cancel (Network.compile sub))
    net

let solve_values ?config net =
  let r = solve ?config net in
  match r.outcome with
  | Solution a ->
    Some (Array.mapi (fun i v -> Network.value net i v) a, r)
  | Unsatisfiable | Aborted -> None

(* ------------------------------------------------------------------ *)
(* Reference implementation                                             *)
(* ------------------------------------------------------------------ *)

(* The original hashtable-probing engine, kept verbatim as the executable
   specification of the search: the property tests assert the compiled
   path above reproduces its outcomes and node/backtrack/backjump counts
   for every scheme.  Ignores [config.preprocess]; counts one check per
   value probe under forward checking (the historical accounting). *)
let solve_reference ?(config = default_config) net =
  let n = Network.num_vars net in
  let stats = Stats.create () in
  let rng = Rng.create config.seed in
  let fc = config.lookahead = Forward_checking in
  let assignment = Array.make n (-1) in
  let level_of = Array.make n (-1) in
  let var_at = Array.make n (-1) in
  let conf = Array.make n Int_set.empty in
  let domains =
    Array.init n (fun i -> Bitset.create_full (Network.domain_size net i))
  in
  let trail = Array.make n [] in
  let pruned_by = Array.make n Int_set.empty in

  let check i vi j vj =
    stats.Stats.checks <- stats.Stats.checks + 1;
    (match config.max_checks with
    | Some m when stats.Stats.checks > m -> raise Abort
    | Some _ | None -> ());
    Network.allowed net i vi j vj
  in

  let unassigned () =
    let rec go i acc = if i < 0 then acc else go (i - 1) (if level_of.(i) < 0 then i :: acc else acc) in
    go (n - 1) []
  in

  let assigned_neighbor_levels var =
    List.fold_left
      (fun acc j -> if level_of.(j) >= 0 then Int_set.add level_of.(j) acc else acc)
      Int_set.empty (Network.neighbors net var)
  in

  let degree_split var =
    List.fold_left
      (fun (to_unassigned, to_assigned) j ->
        if level_of.(j) < 0 then (to_unassigned + 1, to_assigned)
        else (to_unassigned, to_assigned + 1))
      (0, 0) (Network.neighbors net var)
  in

  let current_domain_size var =
    if fc then Bitset.count domains.(var) else Network.domain_size net var
  in

  (* Pick the maximum-score variable, lowest index on ties. *)
  let best_by score vars =
    match vars with
    | [] -> invalid_arg "Solver: no unassigned variable"
    | v0 :: rest ->
      let best = ref v0 and best_score = ref (score v0) in
      List.iter
        (fun v ->
          let s = score v in
          if Stdlib.compare s !best_score > 0 then begin
            best := v;
            best_score := s
          end)
        rest;
      !best
  in

  let select_var () =
    let vars = unassigned () in
    match config.var_policy with
    | Lexicographic_var -> List.hd vars
    | Random_var -> List.nth vars (Rng.int rng (List.length vars))
    | Most_constraining ->
      let score v =
        let to_unassigned, to_assigned = degree_split v in
        (to_unassigned, to_assigned, -current_domain_size v)
      in
      best_by score vars
    | Min_domain ->
      let score v =
        let to_unassigned, to_assigned = degree_split v in
        (-current_domain_size v, to_unassigned + to_assigned)
      in
      best_by score vars
  in

  (* Number of options [var = v] leaves open in uninstantiated neighbours'
     domains; heuristic table lookups are not counted as consistency
     checks. *)
  let promise var v =
    List.fold_left
      (fun acc j ->
        if level_of.(j) >= 0 then acc
        else if fc then
          Bitset.fold
            (fun w c -> if Network.allowed net var v j w then c + 1 else c)
            domains.(j) 0
          + acc
        else acc + Network.support_count net var v j)
      0 (Network.neighbors net var)
  in

  let candidate_values var =
    let avail =
      if fc then Bitset.to_list domains.(var)
      else List.init (Network.domain_size net var) Fun.id
    in
    match config.val_policy with
    | Lexicographic_val -> avail
    | Random_val ->
      let a = Array.of_list avail in
      Rng.shuffle rng a;
      Array.to_list a
    | Least_constraining ->
      let scored = List.map (fun v -> (promise var v, v)) avail in
      let sorted =
        List.stable_sort
          (fun (s1, v1) (s2, v2) ->
            let c = Int.compare s2 s1 in
            if c <> 0 then c else Int.compare v1 v2)
          scored
      in
      List.map snd sorted
  in

  (* Check [var = v] against instantiated neighbours in instantiation
     order; on conflict record the culprit level for conflict-directed
     jumping.  Under forward checking surviving domain values are already
     consistent with all instantiated variables, so this is skipped. *)
  let consistent_with_assigned var v level =
    let neighbors_by_level =
      List.filter (fun j -> level_of.(j) >= 0) (Network.neighbors net var)
      |> List.sort (fun a b -> Int.compare level_of.(a) level_of.(b))
    in
    let rec go = function
      | [] -> true
      | j :: rest ->
        if check var v j assignment.(j) then go rest
        else begin
          if config.backward = Conflict_directed then
            conf.(level) <- Int_set.add level_of.(j) conf.(level);
          false
        end
    in
    go neighbors_by_level
  in

  let prune level j w =
    Bitset.remove domains.(j) w;
    trail.(level) <- (j, w) :: trail.(level);
    pruned_by.(j) <- Int_set.add level pruned_by.(j);
    stats.Stats.prunings <- stats.Stats.prunings + 1
  in

  let undo_level level =
    List.iter (fun (j, w) -> Bitset.add domains.(j) w) trail.(level);
    List.iter
      (fun (j, _) -> pruned_by.(j) <- Int_set.remove level pruned_by.(j))
      trail.(level);
    trail.(level) <- []
  in

  (* Prune future neighbours against [var = v]; false on a domain wipeout
     (conflict levels of the wiped variable are merged into this level's
     conflict set). *)
  let fc_assign var v level =
    let wiped = ref false in
    List.iter
      (fun j ->
        if (not !wiped) && level_of.(j) < 0 then begin
          let dead =
            Bitset.fold
              (fun w acc -> if check var v j w then acc else w :: acc)
              domains.(j) []
          in
          List.iter (fun w -> prune level j w) dead;
          if Bitset.is_empty domains.(j) then begin
            wiped := true;
            if config.backward <> Chronological then
              conf.(level) <-
                Int_set.union conf.(level)
                  (Int_set.filter (fun l -> l < level) pruned_by.(j))
          end
        end)
      (Network.neighbors net var);
    not !wiped
  in

  let dead_end level =
    match config.backward with
    | Chronological ->
      stats.Stats.backtracks <- stats.Stats.backtracks + 1;
      Fail (level - 1, Int_set.empty)
    | Graph_based | Conflict_directed -> (
      let culprits = Int_set.filter (fun l -> l < level) conf.(level) in
      match Int_set.max_elt_opt culprits with
      | None -> Fail (-1, Int_set.empty)
      | Some target ->
        if target = level - 1 then
          stats.Stats.backtracks <- stats.Stats.backtracks + 1
        else stats.Stats.backjumps <- stats.Stats.backjumps + 1;
        Fail (target, Int_set.remove target culprits))
  in

  let rec search level =
    if level = n then Found
    else begin
      if level > stats.Stats.max_depth then stats.Stats.max_depth <- level;
      let var = select_var () in
      var_at.(level) <- var;
      level_of.(var) <- level;
      (* Under forward checking, values already pruned from [var]'s own
         domain were removed by earlier assignments; those levels share
         responsibility for any dead-end here. *)
      conf.(level) <-
        (match config.backward with
        | Graph_based -> assigned_neighbor_levels var
        | Conflict_directed -> if fc then pruned_by.(var) else Int_set.empty
        | Chronological -> Int_set.empty);
      let res = try_values var level (candidate_values var) in
      level_of.(var) <- -1;
      var_at.(level) <- -1;
      res
    end

  and try_values var level values =
    match values with
    | [] -> dead_end level
    | v :: rest ->
      stats.Stats.nodes <- stats.Stats.nodes + 1;
      let pre_ok = fc || consistent_with_assigned var v level in
      if not pre_ok then try_values var level rest
      else begin
        assignment.(var) <- v;
        let fc_ok = if fc then fc_assign var v level else true in
        if not fc_ok then begin
          assignment.(var) <- -1;
          undo_level level;
          try_values var level rest
        end
        else
          match search (level + 1) with
          | Found -> Found
          | Fail (target, merge) ->
            assignment.(var) <- -1;
            if fc then undo_level level;
            if target < level then Fail (target, merge)
            else begin
              conf.(level) <- Int_set.union conf.(level) merge;
              try_values var level rest
            end
      end
  in

  let t_wall = Clock.wall_s () and t_cpu = Clock.cpu_s () in
  let outcome =
    try
      match search 0 with
      | Found -> Solution (Array.copy assignment)
      | Fail _ -> Unsatisfiable
    with Abort -> Aborted
  in
  stats.Stats.elapsed_s <- Clock.wall_s () -. t_wall;
  stats.Stats.cpu_s <- Clock.cpu_s () -. t_cpu;
  (match outcome with
  | Solution a -> assert (Network.verify net a)
  | Unsatisfiable | Aborted -> ());
  { outcome; stats }
