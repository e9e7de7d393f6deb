module Network = Mlo_csp.Network

let induced net vars =
  let n = Network.num_vars net in
  let pos = Array.make n (-1) in
  Array.iteri
    (fun k v ->
      if v < 0 || v >= n then invalid_arg "induced: variable out of range";
      if pos.(v) >= 0 then invalid_arg "induced: duplicate variable";
      pos.(v) <- k)
    vars;
  let sub =
    Network.create
      ~names:(Array.map (Network.name net) vars)
      ~domains:(Array.map (Network.domain net) vars)
  in
  List.iter
    (fun (i, j) ->
      if pos.(i) >= 0 && pos.(j) >= 0 then begin
        let pairs = ref [] in
        for vi = 0 to Network.domain_size net i - 1 do
          for vj = 0 to Network.domain_size net j - 1 do
            if Network.allowed net i vi j vj then pairs := (vi, vj) :: !pairs
          done
        done;
        Network.add_allowed sub pos.(i) pos.(j) !pairs
      end)
    (Network.constraint_pairs net);
  sub
