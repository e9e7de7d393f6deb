(* AC-2001/3.1 on the compiled network view.

   Classic AC-3 re-scans a whole neighbour domain on every revision;
   AC-2001 remembers, per (directed constraint, value), the last support
   it found and re-checks only that one bit.  When the last support dies,
   the replacement is the smallest member of (current neighbour domain
   intersect support row) — one word-parallel scan of the row.  Supports
   only ever shrink, so restarting from the smallest is correct and the
   per-arc work is amortized O(domain / word size).

   The fixpoint (the arc-consistency closure) is unique, so the result
   matches AC-3's exactly — property-tested in test_compiled.ml. *)

module Trace = Mlo_obs.Trace

let run comp =
  Trace.with_span ~cat:"solver" "ac2001"
    ~args:[ ("vars", Trace.Int (Compiled.num_vars comp)) ]
  @@ fun () ->
  let tr = Trace.enabled () in
  let n = Compiled.num_vars comp in
  let domains =
    Array.init n (fun i -> Bitset.create_full (Compiled.domain_size comp i))
  in
  (* last.(h).(vi): last support found for [i = vi] under directed handle
     [h], or -1 before the first find *)
  let last = Array.make (Compiled.num_handles comp) [||] in
  for i = 0 to n - 1 do
    Array.iter
      (fun j ->
        last.(Compiled.handle comp i j) <-
          Array.make (Compiled.domain_size comp i) (-1))
      (Compiled.neighbors comp i)
  done;
  let revise i j =
    let h = Compiled.handle comp i j in
    let lasth = last.(h) in
    let removed = ref false in
    Bitset.iter
      (fun vi ->
        let l = lasth.(vi) in
        if not (l >= 0 && Bitset.mem domains.(j) l) then
          match Bitset.inter_choose domains.(j) (Compiled.row comp h vi) with
          | Some w -> lasth.(vi) <- w
          | None ->
            Bitset.remove domains.(i) vi;
            removed := true)
      domains.(i);
    !removed
  in
  let queue = Queue.create () in
  for i = 0 to n - 1 do
    Array.iter (fun j -> if j > i then begin
        Queue.add (i, j) queue;
        Queue.add (j, i) queue
      end)
      (Compiled.neighbors comp i)
  done;
  let wiped = ref None in
  while (not (Queue.is_empty queue)) && !wiped = None do
    let i, j = Queue.pop queue in
    if revise i j then begin
      if tr then
        Trace.instant ~cat:"solver" "ac-revise"
          ~args:[ ("var", Trace.Int i); ("against", Trace.Int j) ];
      if Bitset.is_empty domains.(i) then wiped := Some i
      else
        Array.iter
          (fun k -> if k <> j then Queue.add (k, i) queue)
          (Compiled.neighbors comp i)
    end
  done;
  match !wiped with Some i -> Error i | None -> Ok domains

let removed comp doms =
  let dels = ref [] in
  for i = Array.length doms - 1 downto 0 do
    for v = Compiled.domain_size comp i - 1 downto 0 do
      if not (Bitset.mem doms.(i) v) then dels := (i, v) :: !dels
    done
  done;
  !dels

let deletions comp = Result.map (removed comp) (run comp)
