type 'a t = {
  net : 'a Network.t;
  weights : (int * int, float array array) Hashtbl.t; (* keyed (i, j), i < j *)
}

let create net = { net; weights = Hashtbl.create 32 }
let network t = t.net

let key i j = if i < j then (i, j) else (j, i)

let matrix t i j =
  let a, b = key i j in
  match Hashtbl.find_opt t.weights (a, b) with
  | Some m -> m
  | None ->
    let m =
      Array.init
        (Network.domain_size t.net a)
        (fun _ -> Array.make (Network.domain_size t.net b) 0.)
    in
    Hashtbl.replace t.weights (a, b) m;
    m

let set_weight t i vi j vj w =
  if i = j then invalid_arg "Weighted.set_weight: i = j";
  if w < 0. then invalid_arg "Weighted.set_weight: negative weight";
  if not (Network.constrained t.net i j) then
    invalid_arg "Weighted.set_weight: unconstrained variable pair";
  let m = matrix t i j in
  let l, r = if i < j then (vi, vj) else (vj, vi) in
  m.(l).(r) <- w

let weight t i vi j vj =
  let a, b = key i j in
  match Hashtbl.find_opt t.weights (a, b) with
  | None -> 0.
  | Some m ->
    let l, r = if i < j then (vi, vj) else (vj, vi) in
    m.(l).(r)

let add_weight t i vi j vj w =
  set_weight t i vi j vj (weight t i vi j vj +. w)

let assignment_weight t a =
  List.fold_left
    (fun acc (i, j) -> acc +. weight t i a.(i) j a.(j))
    0.
    (Network.constraint_pairs t.net)

type result = { best : (int array * float) option; nodes : int }

(* Admissible upper bound for the weight still collectable from the pairs
   not yet fully assigned: max over the compatible entries of each
   constraint matrix, with assigned sides fixed. *)
let solve ?max_nodes t =
  let net = t.net in
  let n = Network.num_vars net in
  let pairs = Network.constraint_pairs net in
  let a = Array.make n (-1) in
  let best = ref None in
  let best_w = ref neg_infinity in
  let nodes = ref 0 in
  let stop = ref false in
  let pair_bound (i, j) =
    let m =
      match Hashtbl.find_opt t.weights (i, j) with
      | Some m -> m
      | None -> [||]
    in
    let get vi vj =
      if Array.length m = 0 then 0. else m.(vi).(vj)
    in
    let candidates_i =
      if a.(i) >= 0 then [ a.(i) ]
      else List.init (Network.domain_size net i) Fun.id
    in
    let candidates_j =
      if a.(j) >= 0 then [ a.(j) ]
      else List.init (Network.domain_size net j) Fun.id
    in
    List.fold_left
      (fun acc vi ->
        List.fold_left
          (fun acc vj ->
            if Network.allowed net i vi j vj then max acc (get vi vj) else acc)
          acc candidates_j)
      0. candidates_i
  in
  let upper_bound () =
    List.fold_left (fun acc p -> acc +. pair_bound p) 0. pairs
  in
  let rec go i =
    if !stop then ()
    else if i = n then begin
      let w = assignment_weight t a in
      if w > !best_w then begin
        best_w := w;
        best := Some (Array.copy a, w)
      end
    end
    else begin
      incr nodes;
      (match max_nodes with
      | Some m when !nodes > m -> stop := true
      | Some _ | None -> ());
      if not !stop then
        for v = 0 to Network.domain_size net i - 1 do
          let consistent =
            let rec chk j =
              j >= i || (Network.allowed net i v j a.(j) && chk (j + 1))
            in
            chk 0
          in
          if consistent && not !stop then begin
            a.(i) <- v;
            if upper_bound () > !best_w then go (i + 1);
            a.(i) <- -1
          end
        done
    end
  in
  go 0;
  { best = !best; nodes = !nodes }
