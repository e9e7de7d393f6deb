(* The one search kernel: see solver.mli for the three modes.  Soundness
   notes for the learning modes:

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

type var_policy =
  | Lexicographic_var
  | Random_var
  | Most_constraining

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

type mode =
  | Systematic of config
  | Satisfy of { restarts : int; restart_base : int; learn_limit : int }
  | Minimize of { costs : float array array; slack : float; learn_limit : int }

type outcome = Solution of int array | Unsatisfiable | Aborted

type event =
  | Learned of { dead : int; lits : (int * int) array }
  | Incumbent of { assignment : int array }
  | Finished of outcome

type result = { outcome : outcome; stats : Stats.t }

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

exception Abort
exception Restart_now

(* What [search] returns when a solution leaf is reached: above every
   level, and the assignment is left in place on the way up.  Any other
   return is the level to resume at (-1: the whole tree is refuted).
   The conflict levels to merge at that level travel in a single carry
   buffer (only one failure unwinds at a time). *)
let found = max_int

(* The learning modes search with forward checking and conflict-directed
   backjumping; their variable and value orders are their own. *)
let learning_config =
  {
    default_config with
    backward = Conflict_directed;
    lookahead = Forward_checking;
  }

(* [run]'s helpers live at top level, so a run builds no closure for
   them: a tiny component's search allocates only what its mode uses. *)

(* The live domains a search starts from: the AC core when preprocessed,
   full domains otherwise (a fresh copy either way). *)
let fresh_domains comp reduced =
  match reduced with
  | Some d -> Array.map Bitset.copy d
  | None ->
    Array.init (Compiled.num_vars comp) (fun i ->
        Bitset.create_full (Compiled.domain_size comp i))

(* The most-constraining rule as a bucket queue (Matula and Beck's
   smallest-last structure, turned round).  The key is the most
   unassigned neighbours ([un_deg]), then the highest degree (at equal
   [un_deg], the most assigned neighbours), then the smallest domain,
   lowest index on ties.  Only [un_deg] moves while the domains hold
   still, so the rest is a rank fixed once per queue: row [d] of [rows]
   holds, by rank, the unassigned variables with [d] unassigned
   neighbours, and a pick is the lowest rank of the highest non-empty
   row.  An assignment moves each unassigned neighbour one row down, so
   a pick or an update costs O(degree), not O(n).  Under forward
   checking the live sizes break the ties of the top row instead. *)
module Selection = struct
  type t = {
    comp : Compiled.t;
    live : Bitset.t array; (* the domains whose sizes break ties; [||]: fixed *)
    un_deg : int array;
    var_of : int array; (* rank -> variable *)
    word : int array; (* per variable, the word of its rank in a row *)
    mask : int array; (* per variable, the bit of its rank in that word *)
    bit : int array; (* [mask], or 0 while the variable is assigned *)
    rows : int array; (* Lset rows, one per [un_deg] from 0 to the max degree *)
    lw : int;
    mutable top : int; (* no row above it has a member *)
  }

  (* Toggles [v]'s bit in row [row]. *)
  let flip q row v =
    let a = (row * q.lw) + q.word.(v) in
    q.rows.(a) <- q.rows.(a) lxor q.bit.(v)

  (* [dst] := [src] stably sorted by [key.(v)], which lies in
     [0, keys); loops, not closures, since a small component's search
     pays this once per run. *)
  let sort_into dst src key keys =
    let at = Array.make (keys + 1) 0 in
    for i = 0 to Array.length src - 1 do
      let k = key.(src.(i)) + 1 in
      at.(k) <- at.(k) + 1
    done;
    for k = 1 to keys do
      at.(k) <- at.(k) + at.(k - 1)
    done;
    for i = 0 to Array.length src - 1 do
      let v = src.(i) in
      dst.(at.(key.(v))) <- v;
      at.(key.(v)) <- at.(key.(v)) + 1
    done

  let create ?(live = false) comp domains =
    let n = Compiled.num_vars comp in
    let un_deg = Array.make n 0 and size = Array.make n 0 in
    let top = ref 0 and big = ref 0 in
    for v = 0 to n - 1 do
      un_deg.(v) <- Compiled.degree comp v;
      size.(v) <-
        (if Array.length domains = 0 then Compiled.domain_size comp v
         else Bitset.count domains.(v));
      top := Int.max !top un_deg.(v);
      big := Int.max !big size.(v)
    done;
    let top = !top in
    (* the rank order: degree descending, then size ascending, then
       index, by two stable sorts, the minor key first *)
    let by_size = Array.init n Fun.id and var_of = Array.make n 0 in
    sort_into by_size (Array.copy by_size) size (!big + 1);
    let lack = Array.map (fun d -> top - d) un_deg in
    sort_into var_of by_size lack (top + 1);
    (* rank [r] is bit [r mod Lset.bits] of word [r / Lset.bits] *)
    let word = Array.make n 0 and mask = Array.make n 0 in
    let w = ref 0 and b = ref 0 in
    for r = 0 to n - 1 do
      word.(var_of.(r)) <- !w;
      mask.(var_of.(r)) <- 1 lsl !b;
      if !b = Lset.bits - 1 then begin
        b := 0;
        incr w
      end
      else incr b
    done;
    let q =
      {
        comp;
        live = (if live then domains else [||]);
        un_deg;
        var_of;
        word;
        mask;
        bit = Array.copy mask;
        rows = Lset.make_mat (top + 1) n;
        lw = Lset.words n;
        top;
      }
    in
    for v = 0 to n - 1 do
      flip q un_deg.(v) v
    done;
    q

  (* Under live domains: the rest of the key over the top row's
     members of the highest degree, the first ones by rank. *)
  let best_live q row =
    let off = row * q.lw in
    let r = ref (Lset.min_elt q.rows off q.lw) in
    let best = ref q.var_of.(!r) in
    let deg = Compiled.degree q.comp !best
    and bsize = ref (Bitset.count q.live.(!best)) in
    r := Lset.next_elt q.rows off q.lw (!r + 1);
    while !r >= 0 && Compiled.degree q.comp q.var_of.(!r) = deg do
      let v = q.var_of.(!r) in
      let size = Bitset.count q.live.(v) in
      if size < !bsize || (size = !bsize && v < !best) then begin
        best := v;
        bsize := size
      end;
      r := Lset.next_elt q.rows off q.lw (!r + 1)
    done;
    !best

  let pick q =
    let t = ref q.top and r = ref (-1) in
    while !r < 0 && !t >= 0 do
      r := Lset.min_elt q.rows (!t * q.lw) q.lw;
      if !r < 0 then decr t
    done;
    if !r < 0 then begin
      q.top <- 0;
      -1
    end
    else begin
      q.top <- !t;
      if Array.length q.live = 0 then q.var_of.(!r) else best_live q !t
    end

  (* Moves each neighbour of [var] from row [un_deg] to row [un_deg +
     step], in Lset's word layout directly: no call per neighbour.  An
     assigned neighbour's [bit] is 0, so its flips leave the rows as
     they are (and the [top] it may raise stays an upper bound). *)
  let shift q var step =
    let nbrs = Compiled.neighbors q.comp var in
    let rows = q.rows and un_deg = q.un_deg and word = q.word and bit = q.bit in
    let lw = q.lw and top = ref q.top in
    for k = 0 to Array.length nbrs - 1 do
      let j = Array.unsafe_get nbrs k in
      let d = un_deg.(j) in
      un_deg.(j) <- d + step;
      let a = (d * lw) + word.(j) and m = bit.(j) in
      rows.(a) <- rows.(a) lxor m;
      rows.(a + (step * lw)) <- rows.(a + (step * lw)) lxor m;
      if d + step > !top then top := d + step
    done;
    q.top <- !top

  let assign q var =
    flip q q.un_deg.(var) var;
    q.bit.(var) <- 0;
    shift q var (-1)

  let unassign q var =
    shift q var 1;
    q.bit.(var) <- q.mask.(var);
    flip q q.un_deg.(var) var;
    if q.un_deg.(var) > q.top then q.top <- q.un_deg.(var)
end

(* Number of options [var = v] leaves open in uninstantiated neighbours'
   domains; heuristic table lookups are not counted as checks.  With
   full domains this is the precomputed support count; otherwise a
   word-parallel intersection popcount. *)
let promise comp ~full level_of domains var v =
  let nbrs = Compiled.neighbors comp var in
  let acc = ref 0 in
  if full then
    for k = 0 to Array.length nbrs - 1 do
      let j = Array.unsafe_get nbrs k in
      if level_of.(j) < 0 then acc := !acc + Compiled.support_count comp var v j
    done
  else
    for k = 0 to Array.length nbrs - 1 do
      let j = Array.unsafe_get nbrs k in
      if level_of.(j) < 0 then
        acc :=
          !acc
          + Bitset.inter_count domains.(j)
              (Compiled.row comp (Compiled.handle comp var j) v)
    done;
  !acc

(* VSIDS: keep the activities and their increment finite. *)
let rescale_activities vact qact inc =
  if !inc > 1e100 then begin
    Array.map_inplace (fun a -> a *. 1e-100) vact;
    Array.map_inplace (fun a -> a *. 1e-100) qact;
    inc := !inc *. 1e-100
  end

(* Count and trace what a nogood store dropped since [forgotten0]. *)
let note_forgotten (stats : Stats.t) ~tr store forgotten0 =
  let dropped = Nogood.forgotten store - forgotten0 in
  if dropped > 0 then begin
    stats.forgotten <- stats.forgotten + dropped;
    if tr then
      Trace.instant ~cat:"solver" "forget"
        ~args:[ ("dropped", Trace.Int dropped) ]
  end

(* The random policies draw from one stream per run; every other run
   holds this one and never draws from it. *)
let unused_rng = Rng.create 0

let run ?on_event ~max_checks mode comp =
  let n = Compiled.num_vars comp in
  let stats = Stats.create () in
  (* Tracing gate read once per solve: per-node events cost one local
     branch when disabled. *)
  let tr = Trace.enabled () in
  let t_wall = Clock.wall_s () in
  let finish outcome =
    stats.Stats.elapsed_s <- Clock.wall_s () -. t_wall;
    { outcome; stats }
  in
  (* A systematic config's optional AC-2001 preprocessing: shrink the
     domains the search (and, under forward checking, the pruning)
     starts from.  Propagation work is not counted in [stats.checks]. *)
  let reduced =
    match mode with
    | Systematic { preprocess = Arc_consistency; _ } ->
      Result.map Option.some (Ac2001.run comp)
    | Systematic { preprocess = No_preprocess; _ } | Satisfy _ | Minimize _ ->
      Ok None
  in
  match reduced with
  | Error _wiped -> finish Unsatisfiable
  | Ok _ when n = 0 -> finish (Solution [||])
  | Ok reduced ->
    let config =
      match mode with
      | Systematic c -> c
      | Satisfy _ | Minimize _ -> learning_config
    in
    let learn_limit =
      match mode with
      | Systematic _ -> None
      | Satisfy { learn_limit; _ } | Minimize { learn_limit; _ } ->
        Some learn_limit
    in
    let learning = learn_limit <> None in
    let vsids = match mode with Satisfy _ -> true | _ -> false in
    let minimize = match mode with Minimize _ -> true | _ -> false in
    let fc = config.lookahead = Forward_checking in
    let cbj = config.backward <> Chronological in
    (* Per-step instants of the systematic search; the learning modes
       report their dead ends as learned nogoods instead. *)
    let trace_steps = tr && not learning in
    let rng =
      if config.var_policy = Random_var || config.val_policy = Random_val then
        Rng.create config.seed
      else unused_rng
    in
    let assignment = Array.make n (-1) in
    let level_of = Array.make n (-1) in
    let var_at = Array.make n (-1) in
    (* Conflict sets and the backjump carry buffer exist only for the
       jumping strategies: [conf] is one level-set row per level, [lw]
       words each. *)
    let lw = Lset.words n in
    let conf = if cbj then Lset.make_mat n n else [||] in
    let carry = if cbj then Lset.make_mat 1 n else [||] in
    (* Live domains: a mutable copy under forward checking (with its undo
       trail and per-variable pruning blame), the read-only AC core
       otherwise, and none at all when neither shrinks them — the [full]
       fast path reads sizes and support counts off the compiled view. *)
    let domains =
      if fc then fresh_domains comp reduced
      else match reduced with Some d -> d | None -> [||]
    in
    let full = Array.length domains = 0 in
    let trail = if fc then Array.make n [] else [||] in
    let pruned_by = if fc then Lset.make_mat n n else [||] in
    let md = ref 1 in
    for i = 0 to n - 1 do
      if Compiled.domain_size comp i > !md then md := Compiled.domain_size comp i
    done;
    let md = !md in
    (* Per-level candidate buffers, flattened to one stride-[md] array:
       a level's value order must survive the recursive search below it,
       and every level above is done with its own, so a level-indexed
       slice removes all per-node allocation. *)
    let cand = Array.make (n * md) 0 in
    let keys = Array.make md 0.0 in

    (* Most-constraining: the bucket queue, kept in step at every
       (un)assignment; under forward checking the live sizes break its
       ties. *)
    let queue =
      if config.var_policy = Most_constraining then
        Some (Selection.create ~live:fc comp domains)
      else None
    in

    let store =
      match learn_limit with
      | Some limit -> Some (Nogood.create ~limit comp)
      | None -> None
    in
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

    (* Minimize: static full-domain minima (admissible for the live
       domains too: a minimum over a superset can only be smaller), the
       per-level bound prefixes, and the incumbent with its canonical
       cost as the pruning bound. *)
    let costs = match mode with Minimize m -> m.costs | _ -> [||] in
    let static_min =
      Array.map (fun row -> Array.fold_left Float.min infinity row) costs
    in
    let acc = if minimize then Array.make (n + 1) 0.0 else [||] in
    let rem =
      if minimize then
        Array.make (n + 1) (Array.fold_left ( +. ) 0.0 static_min)
      else [||]
    in
    let incumbent = ref None in
    let bound = ref infinity in

    let check_limit = match max_checks with Some m -> m | None -> max_int in
    let bump_check () =
      stats.Stats.checks <- stats.Stats.checks + 1;
      if stats.Stats.checks > check_limit then raise Abort
    in

    (* Dispatch on the policy once, so per-node selection builds no
       closure.  At [level], exactly [n - level] variables are
       unassigned. *)
    let select_var =
      match mode with
      | Systematic { var_policy = Lexicographic_var; _ } ->
        fun _ ->
          let i = ref 0 in
          while level_of.(!i) >= 0 do incr i done;
          !i
      | Systematic { var_policy = Random_var; _ } ->
        fun level ->
          let k = ref (Rng.int rng (n - level)) in
          let picked = ref (-1) in
          let i = ref 0 in
          while !picked < 0 do
            if level_of.(!i) < 0 then
              if !k = 0 then picked := !i else decr k;
            incr i
          done;
          !picked
      | Systematic { var_policy = Most_constraining; _ } ->
        let queue = Option.get queue in
        fun _ -> Selection.pick queue
      | Satisfy _ ->
        (* highest activity, ties by smaller current domain, then lower
           index *)
        fun _ ->
          let best = ref (-1) in
          let ba = ref 0.0 and bd = ref 0 in
          for v = 0 to n - 1 do
            if level_of.(v) < 0 then begin
              let a = vact.(v) in
              if !best < 0 || a >= !ba then begin
                let d = Bitset.count domains.(v) in
                if !best < 0 || a > !ba || d < !bd then begin
                  best := v;
                  ba := a;
                  bd := d
                end
              end
            end
          done;
          !best
      | Minimize _ ->
        (* smallest live domain, ties by higher degree then lower index:
           the optimality proof visits the whole bounded space, so the
           fail-first order pays twice *)
        fun _ ->
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

    (* Fill [cand] slice [level] with [var]'s live, unbanned values in
       the mode's order and return how many there are.  Keyed orders sort
       by ascending key, ties by lower value: minus the promise
       (least-constraining), minus the value activity (Satisfy) or the
       value's cost, so Minimize's greedy first descent doubles as its
       first incumbent. *)
    let fill_candidates var level =
      let off = level * md in
      let m =
        if full then begin
          let d = Compiled.domain_size comp var in
          for v = 0 to d - 1 do
            cand.(off + v) <- v
          done;
          d
        end
        else Bitset.fill_array domains.(var) cand off
      in
      let m =
        match store with
        | None -> m
        | Some s ->
          let kept = ref 0 in
          for k = 0 to m - 1 do
            let v = cand.(off + k) in
            if not (Nogood.banned s var v) then begin
              cand.(off + !kept) <- v;
              incr kept
            end
          done;
          !kept
      in
      (match mode with
      | Systematic { val_policy = Lexicographic_val; _ } -> ()
      | Systematic { val_policy = Random_val; _ } ->
        (* prefix Fisher–Yates: draw for draw what [Rng.shuffle] does on
           an array of length exactly [m] *)
        for i = m - 1 downto 1 do
          let j = Rng.int rng (i + 1) in
          let t = cand.(off + i) in
          cand.(off + i) <- cand.(off + j);
          cand.(off + j) <- t
        done
      | Systematic { val_policy = Least_constraining; _ }
      | Satisfy _ | Minimize _ ->
        (match mode with
        | Systematic _ ->
          for k = 0 to m - 1 do
            keys.(k) <-
              float_of_int
                (-promise comp ~full level_of domains var cand.(off + k))
          done
        | Satisfy _ ->
          for k = 0 to m - 1 do
            keys.(k) <- -.qact.((var * md) + cand.(off + k))
          done
        | Minimize _ ->
          for k = 0 to m - 1 do
            keys.(k) <- costs.(var).(cand.(off + k))
          done);
        (* in-place insertion sort: a total order, without tuple or
           closure allocation *)
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
        done);
      m
    in

    (* No lookahead: check [var = v] against instantiated neighbours in
       instantiation order; on conflict record the culprit level for
       conflict-directed jumping.  Under forward checking surviving
       domain values are already consistent with all instantiated
       variables, so this is skipped (and nothing is built for it). *)
    let consistent_with_assigned =
      if fc then fun _ _ _ -> true
      else
        let nbr_scratch = Array.make n 0 in
        fun var v level ->
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
          let ok = ref true and k = ref 0 in
          while !ok && !k < !cnt do
            let j = nbr_scratch.(!k) in
            bump_check ();
            if Compiled.allowed comp var v j assignment.(j) then incr k
            else begin
              if config.backward = Conflict_directed then
                Lset.add conf (level * lw) level_of.(j);
              ok := false
            end
          done;
          !ok
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
      stats.Stats.prunings <- stats.Stats.prunings + 1;
      if trace_steps then
        Trace.instant ~cat:"solver" "prune"
          ~args:
            [
              ("var", Trace.Int j);
              ("value", Trace.Int w);
              ("level", Trace.Int level);
            ]
    in

    let undo_level level =
      List.iter
        (fun (j, w) ->
          Bitset.add domains.(j) w;
          Lset.remove pruned_by (j * lw) level)
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
            if cbj then
              Lset.union_below pruned_by (j * lw) conf (level * lw) level lw
          end
        end
      done;
      not !wiped
    in

    (* Propagate the new assignment through the learned store; [false]
       means this value dies here (culprits merged into this level's
       conflict set, prunings undone by the caller). *)
    let ng_assign =
      match store with
      | None -> fun _ _ _ -> true
      | Some store ->
        let held y w = assignment.(y) = w in
        (* Nogood-forced pruning: remove the last non-held literal's
           value, blaming every held literal's level (see the soundness
           note at the top).  The store cannot see domains, so
           applicability is checked here. *)
        let prune id ~var:x ~value:w =
          if level_of.(x) >= 0 || not (Bitset.mem domains.(x) w) then false
          else begin
            at_var := x;
            prune w;
            Nogood.iter_lits store id (fun y u ->
                if assignment.(y) = u then
                  Lset.add pruned_by (x * lw) level_of.(y));
            Bitset.is_empty domains.(x)
          end
        in
        fun var v level ->
          bump_check ();
          at_level := level;
          (match Nogood.on_assign store ~var ~value:v ~held ~prune with
          | Nogood.Quiet -> true
          | Nogood.Wiped x ->
            Lset.union_below pruned_by (x * lw) conf (level * lw) level lw;
            false
          | Nogood.Violated id ->
            Nogood.iter_lits store id (fun y u ->
                if assignment.(y) = u && level_of.(y) < level then
                  Lset.add conf (level * lw) level_of.(y));
            false)
    in

    (* The bound test for the node at [level], whose assignment is in
       place and whose lookahead succeeded: extend the prefixes, then —
       once an incumbent exists — refute the node when its bound cannot
       strictly beat it, merging the cost conflict set into this level's
       row so the caller treats the value like a wipeout. *)
    let bound_prune =
      match mode with
      | Systematic _ | Satisfy _ -> fun _ -> false
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

    (* A complete consistent assignment.  Systematic and Satisfy stop
       here; Minimize records a strict improvement as the incumbent and
       fails back chronologically, blamed on every level, so the search
       keeps exhausting the space below the bound. *)
    let leaf =
      match mode with
      | Systematic _ | Satisfy _ -> fun () -> found
      | Minimize _ ->
        fun () ->
          let cost = cost_of ~costs assignment in
          if cost < !bound then begin
            bound := cost;
            incumbent := Some (Array.copy assignment);
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

    let lvars = if learning then Array.make n 0 else [||] in
    let lvals = if learning then Array.make n 0 else [||] in
    let llvls = if learning then Array.make n 0 else [||] in
    (* Where a conflict-directed dead end at [level] resumes, its
       conflict row already cut below the level: the deepest culprit, or
       in a learning mode the last level of the nogood the culprit
       assignments become (Satisfy also bumps every participant —
       conflict-side VSIDS). *)
    let jump_target =
      match store with
      | None -> fun _ level -> Lset.max_elt conf (level * lw) lw
      | Some store ->
        fun var level ->
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
            conf (level * lw) lw;
          if vsids then begin
            vact.(var) <- vact.(var) +. !inc;
            inc := !inc /. decay_rate;
            rescale_activities vact qact inc
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
            note_forgotten stats ~tr store forgotten0;
            if tr then
              Trace.instant ~cat:"solver" "learn"
                ~args:[ ("size", Trace.Int !cnt); ("level", Trace.Int level) ];
            incr conflicts;
            if !conflicts > !budget then raise Restart_now;
            llvls.(!cnt - 1)
          end
    in

    (* Every value of [var] failed at [level]: count the backward step,
       leave the conflict levels to merge at the target in [carry], and
       return the target. *)
    let dead_end var level =
      let off = level * lw in
      let target =
        if not cbj then level - 1
        else begin
          (* this level's conf row is dead after this node, filter it in
             place *)
          Lset.keep_below conf off level lw;
          jump_target var level
        end
      in
      (* a jump with no target refutes the tree; chronological
         backtracking counts its last step too *)
      if target >= 0 || not cbj then begin
        if target = level - 1 then begin
          stats.Stats.backtracks <- stats.Stats.backtracks + 1;
          if trace_steps then
            Trace.instant ~cat:"solver" "backtrack"
              ~args:[ ("level", Trace.Int level) ]
        end
        else begin
          stats.Stats.backjumps <- stats.Stats.backjumps + 1;
          if trace_steps then
            Trace.instant ~cat:"solver" "backjump"
              ~args:
                [
                  ("level", Trace.Int level);
                  ("target", Trace.Int target);
                  ("distance", Trace.Int (level - target));
                ]
        end;
        if cbj then begin
          Lset.copy conf off carry 0 lw;
          Lset.remove carry 0 target
        end
      end;
      target
    in

    let rec search level =
      if level = n then leaf ()
      else begin
        if level > stats.Stats.max_depth then stats.Stats.max_depth <- level;
        let var = select_var level in
        var_at.(level) <- var;
        level_of.(var) <- level;
        (match queue with Some q -> Selection.assign q var | None -> ());
        (* Under forward checking, values already pruned from [var]'s own
           domain were removed by earlier assignments; those levels share
           responsibility for any dead-end here. *)
        (match config.backward with
        | Graph_based ->
          (* the levels of var's instantiated neighbours *)
          let nbrs = Compiled.neighbors comp var in
          Lset.clear conf (level * lw) lw;
          for k = 0 to Array.length nbrs - 1 do
            let j = Array.unsafe_get nbrs k in
            if level_of.(j) >= 0 then Lset.add conf (level * lw) level_of.(j)
          done
        | Conflict_directed ->
          if fc then Lset.copy pruned_by (var * lw) conf (level * lw) lw
          else Lset.clear conf (level * lw) lw
        | Chronological -> ());
        let res = try_values var level (fill_candidates var level) 0 in
        (match queue with Some q -> Selection.unassign q var | None -> ());
        level_of.(var) <- -1;
        res
      end

    and try_values var level m k =
      if k >= m then dead_end var level
      else begin
        let v = cand.((level * md) + k) in
        stats.Stats.nodes <- stats.Stats.nodes + 1;
        if tr then
          Trace.instant ~cat:"solver" "decision"
            ~args:
              [
                ("var", Trace.Int var);
                ("value", Trace.Int v);
                ("level", Trace.Int level);
              ];
        if not (fc || consistent_with_assigned var v level) then
          try_values var level m (k + 1)
        else begin
          assignment.(var) <- v;
          if
            fc
            && not
                 (fc_assign var v level && ng_assign var v level
                 && not (bound_prune level))
          then begin
            assignment.(var) <- -1;
            undo_level level;
            try_values var level m (k + 1)
          end
          else
            let target = search (level + 1) in
            if target = found then found
            else begin
              assignment.(var) <- -1;
              if fc then undo_level level;
              if target < level then target
              else begin
                if cbj then
                  Lset.union_below carry 0 conf (level * lw) level lw;
                try_values var level m (k + 1)
              end
            end
        end
      end
    in

    (* Satisfy's Luby runs: run [i] is cut after its conflict budget and
       restarts from the root, keeping the learned store and the
       activities; the last run (and every other mode's only one) is
       unbounded. *)
    let rec runs i =
      budget :=
        (match mode with
        | Satisfy { restarts; restart_base; _ } when i < restarts ->
          restart_base * luby (i + 1)
        | Systematic _ | Satisfy _ | Minimize _ -> max_int);
      conflicts := 0;
      match search 0 with
      | target -> target
      | exception Restart_now ->
        let store = Option.get store in
        stats.Stats.restarts <- stats.Stats.restarts + 1;
        if tr then
          Trace.instant ~cat:"solver" "restart"
            ~args:
              [
                ("run", Trace.Int (i + 1));
                ("learned", Trace.Int (Nogood.size store));
              ];
        let forgotten0 = Nogood.forgotten store in
        Nogood.reduce store ~limit:(Option.get learn_limit);
        note_forgotten stats ~tr store forgotten0;
        Array.fill assignment 0 n (-1);
        Array.fill level_of 0 n (-1);
        Array.fill trail 0 n [];
        Lset.clear pruned_by 0 (n * lw);
        Array.blit (fresh_domains comp reduced) 0 domains 0 n;
        runs (i + 1)
    in

    (* An interrupted Minimize search still returns its best consistent
       assignment when it has one (anytime), flagged as cut so nothing
       downstream takes it for a proven optimum. *)
    let best_or otherwise =
      match !incumbent with Some a -> Solution a | None -> otherwise
    in
    let span =
      match mode with
      | Systematic _ -> "search"
      | Satisfy _ -> "cdl-search"
      | Minimize _ -> "bnb-search"
    in
    let outcome =
      try
        Trace.with_span ~cat:"solver" span
          ~args:[ ("vars", Trace.Int n) ]
          (fun () ->
            if runs 0 = found then Solution (Array.copy assignment)
            else best_or Unsatisfiable)
      with Abort ->
        if learning then stats.Stats.cut <- true;
        best_or Aborted
    in
    (* learning is pruning-only: a learning mode's solution is asserted,
       not filtered *)
    (match outcome with
    | Solution a when learning -> assert (Compiled.verify comp a)
    | Solution _ | Unsatisfiable | Aborted -> ());
    finish outcome

let solve_compiled ?(config = default_config) comp =
  run ~max_checks:config.max_checks (Systematic config) comp

let solve ?config net = solve_compiled ?config (Network.compile net)

(* Add one component's counters into the whole-network accumulator:
   the depth is the deepest any component reached, and a cut component
   cuts the run. *)
let merge_component_stats stats (s : Stats.t) =
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
  stats.Stats.cut <- stats.Stats.cut || s.Stats.cut;
  if s.Stats.max_depth > stats.Stats.max_depth then
    stats.Stats.max_depth <- s.Stats.max_depth

(* Component-wise search.  Variables in different connected components
   of the constraint graph share no constraint, so the network's
   solutions are exactly the products of per-component solutions:
   solving components independently is decision-equivalent to the
   whole-network search (same satisfiability; any merged assignment
   verifies), while dead-ends can no longer thrash across unrelated
   components and backjump distances stay within a component.  Each
   component runs on a view compiled from its own constraints, so it
   costs in proportion to its size.  A single-component network takes
   the exact whole-network path, so the decomposition is free when
   there is nothing to split.

   Components are solved in index order.  The check budget is global:
   each component gets what the earlier ones left, mirroring the
   whole-network abort, and the first component without a solution
   stops the run.  Each component's events go to [on_event] as they
   happen, then its [Finished]. *)
let component_driver ?on_event ~max_checks ~run net =
  let run_one ~comp ~vars ~max_checks view =
    match on_event with
    | None -> run ~on_event:None ~max_checks ~vars view
    | Some f ->
      let r = run ~on_event:(Some (f ~comp ~vars)) ~max_checks ~vars view in
      f ~comp ~vars (Finished r.outcome);
      r
  in
  let comps = Network.components net in
  if Array.length comps <= 1 then
    run_one ~comp:0
      ~vars:(Array.init (Network.num_vars net) Fun.id)
      ~max_checks (Network.compile net)
  else begin
    let ncomps = Array.length comps in
    Trace.with_span ~cat:"solver" "solve-components"
      ~args:[ ("components", Trace.Int ncomps) ]
    @@ fun () ->
    let t_wall = Clock.wall_s () in
    let stats = Stats.create () in
    let assignment = Array.make (Network.num_vars net) (-1) in
    let rec go k remaining =
      if k = ncomps then Solution assignment
      else begin
        let vars = comps.(k) in
        let r =
          run_one ~comp:k ~vars ~max_checks:remaining
            (Network.compile_vars net vars)
        in
        merge_component_stats stats r.stats;
        match r.outcome with
        | Solution a ->
          Array.iteri (fun lv v -> assignment.(vars.(lv)) <- v) a;
          go (k + 1)
            (Option.map (fun m -> max 0 (m - r.stats.Stats.checks)) remaining)
        | (Unsatisfiable | Aborted) as o -> o
      end
    in
    let outcome = go 0 max_checks in
    stats.Stats.elapsed_s <- Clock.wall_s () -. t_wall;
    { outcome; stats }
  end

let solve_components ?(config = default_config) net =
  component_driver ~max_checks:config.max_checks
    ~run:(fun ~on_event:_ ~max_checks ~vars:_ view ->
      solve_compiled ~config:{ config with max_checks } view)
    net

let solve_values ?config net =
  let r = solve ?config net in
  match r.outcome with
  | Solution a ->
    Some (Array.mapi (fun i v -> Network.value net i v) a, r)
  | Unsatisfiable | Aborted -> None
