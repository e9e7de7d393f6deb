type config = { seed : int; max_steps : int; restarts : int }

let default_config = { seed = 0; max_steps = 10_000; restarts = 10 }

type outcome = Solution of int array | Stuck of int array * int

type result = { outcome : outcome; steps : int }

let conflicts net a =
  List.fold_left
    (fun acc (i, j) -> if Network.allowed net i a.(i) j a.(j) then acc else acc + 1)
    0
    (Network.constraint_pairs net)

(* Number of constraints involving [var] violated when it takes [v]. *)
let var_conflicts net a var v =
  Array.fold_left
    (fun acc j -> if Network.allowed net var v j a.(j) then acc else acc + 1)
    0 (Network.neighbors net var)

let solve ?(config = default_config) net =
  let n = Network.num_vars net in
  let rng = Rng.create config.seed in
  let steps = ref 0 in
  let best = ref None in
  let note a c =
    match !best with
    | Some (_, bc) when bc <= c -> ()
    | Some _ | None -> best := Some (Array.copy a, c)
  in
  let random_assignment () =
    Array.init n (fun i -> Rng.int rng (Network.domain_size net i))
  in
  let conflicted_vars a =
    List.filter
      (fun i -> var_conflicts net a i a.(i) > 0)
      (List.init n Fun.id)
  in
  let rec restart r =
    if r >= config.restarts then
      match !best with
      | Some (a, c) -> { outcome = Stuck (a, c); steps = !steps }
      | None -> { outcome = Stuck ([||], max_int); steps = !steps }
    else begin
      let a = random_assignment () in
      let rec improve k =
        let bad = conflicted_vars a in
        if bad = [] then Some (Array.copy a)
        else if k >= config.max_steps then begin
          note a (conflicts net a);
          None
        end
        else begin
          incr steps;
          let var = List.nth bad (Rng.int rng (List.length bad)) in
          (* min-conflict value, random tie-break *)
          let d = Network.domain_size net var in
          let scored =
            List.init d (fun v -> (var_conflicts net a var v, v))
          in
          let min_c = List.fold_left (fun m (c, _) -> min m c) max_int scored in
          let ties = List.filter (fun (c, _) -> c = min_c) scored in
          let _, v = List.nth ties (Rng.int rng (List.length ties)) in
          a.(var) <- v;
          improve (k + 1)
        end
      in
      match improve 0 with
      | Some a -> { outcome = Solution a; steps = !steps }
      | None -> restart (r + 1)
    end
  in
  let r = restart 0 in
  (match r.outcome with
  | Solution a -> assert (Network.verify net a)
  | Stuck _ -> ());
  r
