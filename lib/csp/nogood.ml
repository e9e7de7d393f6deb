(* Learned-nogood store: watched-value propagation, bounded forgetting.
   See nogood.mli for the scheme; soundness notes inline. *)

type ng = {
  vars : int array;
  vals : int array;
  mutable act : float;
  mutable alive : bool;
  mutable w1 : int;  (* watched literal, index into [vars]/[vals] *)
  mutable w2 : int;
}

type t = {
  md : int;  (* watch-index stride: max domain size *)
  limit : int;
  mutable ngs : ng array;  (* slots [0 .. n-1] used; may hold dead ngs *)
  mutable n : int;
  mutable live : int;
  mutable watch : int list array;  (* (var * md + value) -> watcher ids *)
  bans : Bitset.t array;  (* unit nogoods, one bitset per variable *)
  mutable inc : float;  (* activity bump increment (VSIDS-style) *)
  mutable n_learned : int;
  mutable n_forgotten : int;
}

type event = Quiet | Wiped of int | Violated of int

let dummy = { vars = [||]; vals = [||]; act = 0.; alive = false; w1 = 0; w2 = 0 }

let create ?(limit = 4000) c =
  let nv = Compiled.num_vars c in
  let md = ref 1 in
  for v = 0 to nv - 1 do
    md := max !md (Compiled.domain_size c v)
  done;
  {
    md = !md;
    limit = max 2 limit;
    ngs = Array.make 64 dummy;
    n = 0;
    live = 0;
    watch = Array.make (max 1 (nv * !md)) [];
    bans = Array.init nv (fun v -> Bitset.create_empty (max 1 (Compiled.domain_size c v)));
    inc = 1.0;
    n_learned = 0;
    n_forgotten = 0;
  }

let size t = t.live
let learned t = t.n_learned
let forgotten t = t.n_forgotten
let banned t var value = Bitset.mem t.bans.(var) value

let ban t ~var ~value =
  if not (Bitset.mem t.bans.(var) value) then begin
    Bitset.add t.bans.(var) value;
    t.n_learned <- t.n_learned + 1
  end

let iter_lits t id f =
  let g = t.ngs.(id) in
  for i = 0 to Array.length g.vars - 1 do
    f g.vars.(i) g.vals.(i)
  done

let rescale_if_needed t =
  if t.inc > 1e100 then begin
    for i = 0 to t.n - 1 do
      t.ngs.(i).act <- t.ngs.(i).act *. 1e-100
    done;
    t.inc <- t.inc *. 1e-100
  end

let decay t = t.inc <- t.inc /. 0.999

let unwatch_all t =
  Array.fill t.watch 0 (Array.length t.watch) []

let add_watch t id i =
  let g = t.ngs.(id) in
  let w = (g.vars.(i) * t.md) + g.vals.(i) in
  t.watch.(w) <- id :: t.watch.(w)

(* Compact the slot array (dropping dead nogoods) and rebuild every watch
   list from the surviving watches.  O(slots + watch array); restart
   boundaries only. *)
let rebuild t =
  unwatch_all t;
  let j = ref 0 in
  for i = 0 to t.n - 1 do
    let g = t.ngs.(i) in
    if g.alive then begin
      t.ngs.(!j) <- g;
      add_watch t !j g.w1;
      add_watch t !j g.w2;
      incr j
    end
  done;
  Array.fill t.ngs !j (t.n - !j) dummy;
  t.n <- !j;
  t.live <- !j

(* Forget down to [limit] live nogoods: largest literal count first (the
   count doubles as LBD — conflict sets carry one literal per level),
   ties by lowest activity; binaries only when nothing else is left. *)
let reduce t ~limit =
  let limit = max 0 limit in
  if t.live > limit then begin
    let order = Array.make t.live 0 in
    let j = ref 0 in
    for i = 0 to t.n - 1 do
      if t.ngs.(i).alive then begin
        order.(!j) <- i;
        incr j
      end
    done;
    let weight i =
      let g = t.ngs.(i) in
      (* binaries sort after everything bigger regardless of activity *)
      if Array.length g.vars <= 2 then (0, g.act) else (Array.length g.vars, g.act)
    in
    Array.sort
      (fun a b ->
        let sa, aa = weight a and sb, ab = weight b in
        if sa <> sb then compare sb sa else compare aa ab)
      order;
    let drop = t.live - limit in
    for k = 0 to drop - 1 do
      t.ngs.(order.(k)).alive <- false
    done;
    t.n_forgotten <- t.n_forgotten + drop;
    rebuild t
  end

let grow t =
  if t.n = Array.length t.ngs then begin
    let bigger = Array.make (2 * t.n) dummy in
    Array.blit t.ngs 0 bigger 0 t.n;
    t.ngs <- bigger
  end

let learn t ~n ~vars ~vals ~levels =
  if n <= 0 then invalid_arg "Nogood.learn: empty nogood";
  if n = 1 then ban t ~var:vars.(0) ~value:vals.(0)
  else begin
    (* Stay within the store bound: halve before overflowing so learning
       bursts between restarts do not thrash the reducer (but always
       leave room for the insert below, even at tiny limits). *)
    if t.live >= t.limit then
      reduce t ~limit:(min (t.limit - 1) (max 2 (t.limit / 2)));
    (* Watch the two deepest literals: the backjump that follows this
       conflict unassigns them first, restoring non-held watches. *)
    let w1 = ref 0 in
    for i = 1 to n - 1 do
      if levels.(i) > levels.(!w1) then w1 := i
    done;
    let w2 = ref (if !w1 = 0 then 1 else 0) in
    for i = 0 to n - 1 do
      if i <> !w1 && levels.(i) > levels.(!w2) then w2 := i
    done;
    grow t;
    let g =
      {
        vars = Array.sub vars 0 n;
        vals = Array.sub vals 0 n;
        act = t.inc;
        alive = true;
        w1 = !w1;
        w2 = !w2;
      }
    in
    let id = t.n in
    t.ngs.(id) <- g;
    t.n <- t.n + 1;
    t.live <- t.live + 1;
    add_watch t id !w1;
    add_watch t id !w2;
    t.n_learned <- t.n_learned + 1
  end

let on_assign t ~var ~value ~held ~prune =
  let wi = (var * t.md) + value in
  let firing = t.watch.(wi) in
  let keep = ref [] in
  let event = ref Quiet in
  List.iter
    (fun id ->
      let g = t.ngs.(id) in
      if g.alive then begin
        (* Which watch fired?  (A moved watch leaves no stale entry, but a
           dead-then-compacted store can alias ids; be defensive.) *)
        let fired =
          if g.vars.(g.w1) = var && g.vals.(g.w1) = value then 1
          else if g.vars.(g.w2) = var && g.vals.(g.w2) = value then 2
          else 0
        in
        if fired = 0 then () (* stale entry: drop *)
        else begin
          let ow1 = g.w1 and ow2 = g.w2 in
          let other = if fired = 1 then ow2 else ow1 in
          (* try to move the fired watch to another non-held literal *)
          let len = Array.length g.vars in
          let r = ref (-1) in
          let i = ref 0 in
          while !r < 0 && !i < len do
            if !i <> ow1 && !i <> ow2 && not (held g.vars.(!i) g.vals.(!i))
            then r := !i;
            incr i
          done;
          if !r >= 0 then begin
            if fired = 1 then g.w1 <- !r else g.w2 <- !r;
            add_watch t id !r
            (* not kept on this literal's list *)
          end
          else begin
            keep := id :: !keep;
            if held g.vars.(other) g.vals.(other) then begin
              (* every literal held: the holders' levels are a conflict *)
              g.act <- g.act +. t.inc;
              rescale_if_needed t;
              match !event with Violated _ -> () | _ -> event := Violated id
            end
            else begin
              (* all but [other] held: force its value out.  The engine's
                 callback skips assigned variables and already-pruned
                 values, blames the held literals' levels, and reports a
                 wipeout. *)
              g.act <- g.act +. t.inc;
              rescale_if_needed t;
              if prune id ~var:g.vars.(other) ~value:g.vals.(other) then
                match !event with
                | Quiet -> event := Wiped g.vars.(other)
                | _ -> ()
            end
          end
        end
      end)
    firing;
  t.watch.(wi) <- !keep;
  !event
