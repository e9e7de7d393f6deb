module Network = Mlo_csp.Network
module Bitset = Mlo_csp.Bitset

let revise net domains i j =
  if not (Network.constrained net i j) then false
  else begin
    let removed = ref false in
    let dead =
      Bitset.fold
        (fun vi acc ->
          let supported =
            Bitset.fold
              (fun vj ok -> ok || Network.allowed net i vi j vj)
              domains.(j) false
          in
          if supported then acc else vi :: acc)
        domains.(i) []
    in
    List.iter
      (fun vi ->
        Bitset.remove domains.(i) vi;
        removed := true)
      dead;
    !removed
  end

let run net =
  let n = Network.num_vars net in
  let domains =
    Array.init n (fun i -> Bitset.create_full (Network.domain_size net i))
  in
  let queue = Queue.create () in
  List.iter
    (fun (i, j) ->
      Queue.add (i, j) queue;
      Queue.add (j, i) queue)
    (Network.constraint_pairs net);
  let wiped = ref None in
  while (not (Queue.is_empty queue)) && !wiped = None do
    let i, j = Queue.pop queue in
    if revise net domains i j then
      if Bitset.is_empty domains.(i) then wiped := Some i
      else
        List.iter
          (fun k -> if k <> j then Queue.add (k, i) queue)
          (Network.neighbors net i)
  done;
  match !wiped with Some i -> Error i | None -> Ok domains
