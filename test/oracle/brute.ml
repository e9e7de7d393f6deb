module Network = Mlo_csp.Network
module Weighted = Mlo_csp.Weighted

exception Done

let enumerate ?limit net f =
  let n = Network.num_vars net in
  let a = Array.make n (-1) in
  let found = ref 0 in
  let rec go i =
    if i = n then begin
      f (Array.copy a);
      incr found;
      match limit with Some l when !found >= l -> raise Done | Some _ | None -> ()
    end
    else
      for v = 0 to Network.domain_size net i - 1 do
        let ok =
          let rec chk j =
            j >= i || (Network.allowed net i v j a.(j) && chk (j + 1))
          in
          chk 0
        in
        if ok then begin
          a.(i) <- v;
          go (i + 1);
          a.(i) <- -1
        end
      done
  in
  (try go 0 with Done -> ());
  !found

let count_solutions ?limit net = enumerate ?limit net (fun _ -> ())

let all_solutions ?limit net =
  let acc = ref [] in
  ignore (enumerate ?limit net (fun a -> acc := a :: !acc));
  List.rev !acc

let first_solution net =
  match all_solutions ~limit:1 net with [] -> None | a :: _ -> Some a

let is_satisfiable net = count_solutions ~limit:1 net > 0

let weighted_optimum w =
  List.fold_left
    (fun acc a ->
      let x = Weighted.assignment_weight w a in
      match acc with
      | Some (_, bx) when bx >= x -> acc
      | Some _ | None -> Some (a, x))
    None
    (all_solutions (Weighted.network w))

let lower_bound ~costs ~assignment ~live =
  let total = ref 0.0 in
  Array.iteri
    (fun i row ->
      if assignment.(i) >= 0 then total := !total +. row.(assignment.(i))
      else begin
        let m = ref infinity in
        Array.iteri (fun v c -> if live i v && c < !m then m := c) row;
        total := !total +. !m
      end)
    costs;
  !total
