(* One constraint between [a < b], stored once in the form the solver
   reads: [fwd.(va)] is the support row of [a = va] over [b]'s domain,
   [bwd.(vb)] that of [b = vb] over [a]'s, and [fcnt]/[bcnt] their
   popcounts.  A compiled view borrows these arrays as its two handles. *)
type con = {
  fwd : Bitset.row array;
  bwd : Bitset.row array;
  fcnt : int array;
  bcnt : int array;
}

module Itbl = Hashtbl.Make (Int)

type 'a t = {
  names : string array;
  domains : 'a array array;
  cons : con Itbl.t; (* the constraint [a < b] is keyed [a * n + b] *)
  adj : int array array; (* [i]'s neighbours, ascending, in the first *)
  deg : int array; (* [deg.(i)] cells of [adj.(i)] *)
  mutable compiled : Compiled.t option; (* memoized dense view *)
}

let create ~names ~domains =
  if Array.length names <> Array.length domains then
    invalid_arg "Network.create: names/domains length mismatch";
  Array.iter
    (fun d -> if Array.length d = 0 then invalid_arg "Network.create: empty domain")
    domains;
  {
    names = Array.copy names;
    domains = Array.map Array.copy domains;
    cons = Itbl.create 64;
    adj = Array.make (Array.length names) [||];
    deg = Array.make (Array.length names) 0;
    compiled = None;
  }

let num_vars t = Array.length t.names
let name t i = t.names.(i)
let domain t i = Array.copy t.domains.(i)
let domain_size t i = Array.length t.domains.(i)
let value t i v = t.domains.(i).(v)

let total_domain_size t =
  Array.fold_left (fun acc d -> acc + Array.length d) 0 t.domains

(* [n] variables: the key of the constraint between [i] and [j], and
   back from a key to its variables [a < b] *)
let key t i j = if i < j then (i * num_vars t) + j else (j * num_vars t) + i
let first t k = k / num_vars t
let second t k = k mod num_vars t

let check_var t i =
  if i < 0 || i >= num_vars t then invalid_arg "Network: variable out of range"

(* Puts [j] into [i]'s neighbour row, which stays ascending: the larger
   neighbours move up one cell, and a full row is copied into one twice
   its size. *)
let add_neighbor t i j =
  let d = t.deg.(i) in
  if d = Array.length t.adj.(i) then begin
    let row = Array.make (max 4 (2 * d)) 0 in
    Array.blit t.adj.(i) 0 row 0 d;
    t.adj.(i) <- row
  end;
  let row = t.adj.(i) and p = ref d in
  while !p > 0 && row.(!p - 1) > j do
    row.(!p) <- row.(!p - 1);
    decr p
  done;
  row.(!p) <- j;
  t.deg.(i) <- d + 1

(* Allows [a = va] with [b = vb], counting a pair already allowed only
   once. *)
let allow c va vb =
  if not (Bitset.row_mem c.fwd.(va) vb) then begin
    Bitset.row_add c.fwd.(va) vb;
    Bitset.row_add c.bwd.(vb) va;
    c.fcnt.(va) <- c.fcnt.(va) + 1;
    c.bcnt.(vb) <- c.bcnt.(vb) + 1
  end

(* The constraint between [a < b], to be written: created allowing
   nothing if absent, and the memoized view dropped.  Each writer checks
   its whole write before it calls this, so a rejected write changes
   nothing and creates no constraint. *)
let con t a b =
  t.compiled <- None;
  let k = key t a b in
  match Itbl.find_opt t.cons k with
  | Some c -> c
  | None ->
    let la = domain_size t a and lb = domain_size t b in
    let c =
      {
        fwd = Array.init la (fun _ -> Bitset.row_make lb);
        bwd = Array.init lb (fun _ -> Bitset.row_make la);
        fcnt = Array.make la 0;
        bcnt = Array.make lb 0;
      }
    in
    Itbl.replace t.cons k c;
    add_neighbor t a b;
    add_neighbor t b a;
    c

let check_pair fn t i j =
  check_var t i;
  check_var t j;
  if i = j then invalid_arg (fn ^ ": i = j")

let add_allowed t i j pairs =
  check_pair "Network.add_allowed" t i j;
  let di = domain_size t i and dj = domain_size t j in
  let inside (vi, vj) = vi >= 0 && vi < di && vj >= 0 && vj < dj in
  if not (List.for_all inside pairs) then
    invalid_arg "Network.add_allowed: value out of range";
  let c = if i < j then con t i j else con t j i in
  List.iter (fun (vi, vj) -> if i < j then allow c vi vj else allow c vj vi) pairs

(* Whether [vs.(k ..)] all index a domain of size [d]. *)
let rec in_range d vs k =
  k = Array.length vs || (vs.(k) >= 0 && vs.(k) < d && in_range d vs (k + 1))

let allow_product t i vis j vjs =
  check_pair "Network.allow_product" t i j;
  if not (in_range (domain_size t i) vis 0 && in_range (domain_size t j) vjs 0)
  then invalid_arg "Network.allow_product: value out of range";
  let c = if i < j then con t i j else con t j i in
  for x = 0 to Array.length vis - 1 do
    for y = 0 to Array.length vjs - 1 do
      if i < j then allow c vis.(x) vjs.(y) else allow c vjs.(y) vis.(x)
    done
  done

let constrained t i j = i <> j && Itbl.mem t.cons (key t i j)

let allowed t i vi j vj =
  match Itbl.find_opt t.cons (key t i j) with
  | None -> true
  | Some c ->
    let rows = if i < j then c.fwd else c.bwd in
    vi >= 0 && vi < Array.length rows && vj >= 0 && vj < domain_size t j
    && Bitset.row_mem rows.(vi) vj

let support_count t i vi j =
  if i < 0 || i >= num_vars t || j < 0 || j >= num_vars t then
    invalid_arg "Network.support_count: variable out of range";
  if i = j then invalid_arg "Network.support_count: i = j";
  if vi < 0 || vi >= domain_size t i then
    invalid_arg "Network.support_count: value out of range";
  match Itbl.find_opt t.cons (key t i j) with
  | None -> domain_size t j
  | Some c -> if i < j then c.fcnt.(vi) else c.bcnt.(vi)

let supports t i j =
  match Itbl.find_opt t.cons (key t i j) with
  | None -> invalid_arg "Network.supports: unconstrained pair"
  | Some c -> if i < j then c.fwd else c.bwd

let neighbors t i =
  check_var t i;
  Array.sub t.adj.(i) 0 t.deg.(i)

let degree t i =
  check_var t i;
  t.deg.(i)

let num_constraints t = Itbl.length t.cons

(* Keys ascending, i.e. constraints in (a, b) order. *)
let keys t = List.sort Int.compare (Itbl.fold (fun k _ acc -> k :: acc) t.cons [])
let constraint_pairs t = List.map (fun k -> (first t k, second t k)) (keys t)

let check_assignment_shape t a partial =
  if Array.length a <> num_vars t then
    invalid_arg "Network: assignment length differs from variable count";
  Array.iteri
    (fun i v ->
      if v >= Array.length t.domains.(i) || (v < 0 && not (partial && v = -1))
      then invalid_arg "Network: value index out of range")
    a

let consistent_with t a partial =
  check_assignment_shape t a partial;
  Itbl.fold
    (fun k c ok ->
      let i = first t k and j = second t k in
      ok && (a.(i) = -1 || a.(j) = -1 || Bitset.row_mem c.fwd.(a.(i)) a.(j)))
    t.cons true

let verify t a = consistent_with t a false
let consistent_partial t a = consistent_with t a true

(* Hand the constraints among [vars] to a Compiled view: local
   neighbour arrays, the handle matrix and, per kept constraint, its
   two stored row arrays and counts, borrowed rather than copied.
   O(|vars|^2 + sum of the kept endpoints' degrees), whatever the size
   of the network. *)
let compile_vars t vars =
  let n = Array.length vars in
  Array.iteri
    (fun a v ->
      check_var t v;
      if a > 0 && vars.(a - 1) >= v then
        invalid_arg "Network.compile_vars: variables not strictly ascending")
    vars;
  (* [vars]'s index of variable [v] within [lo, hi), or -1 *)
  let rec local v lo hi =
    let mid = (lo + hi) / 2 in
    if lo >= hi then -1
    else if vars.(mid) < v then local v (mid + 1) hi
    else if vars.(mid) > v then local v lo mid
    else mid
  in
  let dom_size = Array.map (fun v -> Array.length t.domains.(v)) vars in
  let neighbors =
    Array.map
      (fun v ->
        let row = t.adj.(v) and d = t.deg.(v) in
        let nb = Array.make d 0 and kept = ref 0 in
        for k = 0 to d - 1 do
          let b = local row.(k) 0 n in
          if b >= 0 then begin
            nb.(!kept) <- b;
            incr kept
          end
        done;
        if !kept = d then nb else Array.sub nb 0 !kept)
      vars
  in
  (* each kept constraint is in both its endpoints' lists *)
  let handles = Array.fold_left (fun acc nb -> acc + Array.length nb) 0 neighbors in
  let handle = Array.make (n * n) (-1) in
  let rows = Array.make handles [||] and supcnt = Array.make handles [||] in
  let next = ref 0 in
  for a = 0 to n - 1 do
    Array.iter
      (fun b ->
        if a < b then begin
          let c = Itbl.find t.cons (key t vars.(a) vars.(b)) in
          let hab = !next and hba = !next + 1 in
          next := !next + 2;
          handle.((a * n) + b) <- hab;
          handle.((b * n) + a) <- hba;
          rows.(hab) <- c.fwd;
          rows.(hba) <- c.bwd;
          supcnt.(hab) <- c.fcnt;
          supcnt.(hba) <- c.bcnt
        end)
      neighbors.(a)
  done;
  Compiled.make ~dom_size ~neighbors ~handle ~rows ~supcnt

(* The all-variables case, memoized until the next write. *)
let compile t =
  match t.compiled with
  | Some c -> c
  | None ->
    let c = compile_vars t (Array.init (num_vars t) Fun.id) in
    t.compiled <- Some c;
    c

(* Connected components by breadth-first search over the neighbour
   rows, in order of their smallest variable, members ascending;
   unconstrained variables are singletons. *)
let components t =
  let n = num_vars t in
  let seen = Array.make n false and queue = Array.make n 0 in
  let visit tail j =
    if seen.(j) then tail else (seen.(j) <- true; queue.(tail) <- j; tail + 1)
  in
  let rec sweep head tail =
    if head = tail then tail
    else begin
      let v = queue.(head) and tail = ref tail in
      for k = 0 to t.deg.(v) - 1 do
        tail := visit !tail t.adj.(v).(k)
      done;
      sweep (head + 1) !tail
    end
  in
  let out = ref [] in
  for v = 0 to n - 1 do
    if not seen.(v) then begin
      let members = Array.sub queue 0 (sweep 0 (visit 0 v)) in
      Array.sort Int.compare members;
      out := members :: !out
    end
  done;
  Array.of_list (List.rev !out)

(* Value-level restriction: keep only the flagged values of every
   domain (order preserved) and re-index the constraints.  A constraint
   whose allowed pairs are all dropped survives empty (allows
   nothing).  Sound preprocessing —
   e.g. dominance pruning in Mlo_netgen — removes only values whose
   remaining supports are covered by a kept value, so satisfiability is
   unchanged. *)
let restrict_domains t keep =
  if Array.length keep <> num_vars t then
    invalid_arg "Network.restrict_domains: mask length differs from variables";
  let maps =
    Array.mapi
      (fun i k ->
        if Array.length k <> Array.length t.domains.(i) then
          invalid_arg "Network.restrict_domains: mask/domain length mismatch";
        let idx = ref [] in
        Array.iteri (fun v b -> if b then idx := v :: !idx) k;
        let idx = Array.of_list (List.rev !idx) in
        if Array.length idx = 0 then
          invalid_arg "Network.restrict_domains: mask empties a domain";
        idx)
      keep
  in
  let sub =
    create ~names:t.names
      ~domains:
        (Array.mapi (fun i idx -> Array.map (fun v -> t.domains.(i).(v)) idx) maps)
  in
  Itbl.iter
    (fun k c ->
      let i = first t k and j = second t k in
      let pairs = ref [] in
      Array.iteri
        (fun ni vi ->
          Array.iteri
            (fun nj vj ->
              if Bitset.row_mem c.fwd.(vi) vj then pairs := (ni, nj) :: !pairs)
            maps.(j))
        maps.(i);
      add_allowed sub i j !pairs)
    t.cons;
  sub

let pp pp_value ppf t =
  Format.fprintf ppf "@[<v>network: %d variables, %d constraints@," (num_vars t)
    (num_constraints t);
  Array.iteri
    (fun i n ->
      Format.fprintf ppf "  %s: {" n;
      Array.iteri
        (fun v x ->
          if v > 0 then Format.fprintf ppf ", ";
          pp_value ppf x)
        t.domains.(i);
      Format.fprintf ppf "}@,")
    t.names;
  List.iter
    (fun k ->
      Format.fprintf ppf "  S(%s,%s): %d pairs@," t.names.(first t k)
        t.names.(second t k)
        (Array.fold_left ( + ) 0 (Itbl.find t.cons k).fcnt))
    (keys t);
  Format.fprintf ppf "@]"
