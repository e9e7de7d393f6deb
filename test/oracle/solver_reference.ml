open Mlo_csp
open Solver

exception Abort

module Int_set = Set.Make (Int)

(* Outcome of exploring one level: either a full solution was found below,
   or the search must resume at [target] (-1 = no level left, the network
   is unsatisfiable), carrying conflict levels to merge there. *)
type step = Found | Fail of int * Int_set.t

let solve ?(config = default_config) net =
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
  let neighbors var = Array.to_list (Network.neighbors net var) in

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
      Int_set.empty (neighbors var)
  in

  let degree_split var =
    List.fold_left
      (fun (to_unassigned, to_assigned) j ->
        if level_of.(j) < 0 then (to_unassigned + 1, to_assigned)
        else (to_unassigned, to_assigned + 1))
      (0, 0) (neighbors var)
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
      0 (neighbors var)
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
      List.filter (fun j -> level_of.(j) >= 0) (neighbors var)
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
      (neighbors var);
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

  let t_wall = Clock.wall_s () in
  let outcome =
    try
      match search 0 with
      | Found -> Solution (Array.copy assignment)
      | Fail _ -> Unsatisfiable
    with Abort -> Aborted
  in
  stats.Stats.elapsed_s <- Clock.wall_s () -. t_wall;
  (match outcome with
  | Solution a -> assert (Network.verify net a)
  | Unsatisfiable | Aborted -> ());
  { outcome; stats; arc_deleted = [] }
