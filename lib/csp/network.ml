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

type 'a t = {
  names : string array;
  domains : 'a array array;
  cons : (int * int, con) Hashtbl.t; (* keyed (a, b) with a < b *)
  neighbors : int list array; (* kept sorted ascending *)
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
    cons = Hashtbl.create 64;
    neighbors = Array.make (Array.length names) [];
    compiled = None;
  }

let num_vars t = Array.length t.names
let name t i = t.names.(i)
let domain t i = Array.copy t.domains.(i)
let domain_size t i = Array.length t.domains.(i)
let value t i v = t.domains.(i).(v)

let total_domain_size t =
  Array.fold_left (fun acc d -> acc + Array.length d) 0 t.domains

let key i j = if i < j then (i, j) else (j, i)

let check_var t i =
  if i < 0 || i >= num_vars t then invalid_arg "Network: variable out of range"

let insert_sorted x l =
  let rec go = function
    | [] -> [ x ]
    | y :: ys as l' -> if x < y then x :: l' else if x = y then l' else y :: go ys
  in
  go l

(* Top-level loops, so a call (one per pair when [Build] streams them)
   allocates no closure. *)
let rec in_range di dj = function
  | [] -> true
  | (vi, vj) :: rest -> vi >= 0 && vi < di && vj >= 0 && vj < dj && in_range di dj rest

(* Allows each pair, [a]'s value first when [forward], counting a pair
   already allowed only once. *)
let rec allow c forward = function
  | [] -> ()
  | (vi, vj) :: rest ->
    let va = if forward then vi else vj and vb = if forward then vj else vi in
    if not (Bitset.row_mem c.fwd.(va) vb) then begin
      Bitset.row_add c.fwd.(va) vb;
      Bitset.row_add c.bwd.(vb) va;
      c.fcnt.(va) <- c.fcnt.(va) + 1;
      c.bcnt.(vb) <- c.bcnt.(vb) + 1
    end;
    allow c forward rest

let add_allowed t i j pairs =
  check_var t i;
  check_var t j;
  if i = j then invalid_arg "Network.add_allowed: i = j";
  (* checked before anything is written: a rejected call adds no pair
     and creates no constraint, which would allow nothing *)
  if not (in_range (domain_size t i) (domain_size t j) pairs) then
    invalid_arg "Network.add_allowed: value out of range";
  t.compiled <- None;
  let a, b = key i j in
  let la = domain_size t a and lb = domain_size t b in
  let c =
    match Hashtbl.find_opt t.cons (a, b) with
    | Some c -> c
    | None ->
      let c =
        {
          fwd = Array.init la (fun _ -> Bitset.row_make lb);
          bwd = Array.init lb (fun _ -> Bitset.row_make la);
          fcnt = Array.make la 0;
          bcnt = Array.make lb 0;
        }
      in
      Hashtbl.replace t.cons (a, b) c;
      t.neighbors.(a) <- insert_sorted b t.neighbors.(a);
      t.neighbors.(b) <- insert_sorted a t.neighbors.(b);
      c
  in
  allow c (i < j) pairs

let constrained t i j = i <> j && Hashtbl.mem t.cons (key i j)

let allowed t i vi j vj =
  match Hashtbl.find_opt t.cons (key i j) with
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
  match Hashtbl.find_opt t.cons (key i j) with
  | None -> domain_size t j
  | Some c -> if i < j then c.fcnt.(vi) else c.bcnt.(vi)

let supports t i j =
  match Hashtbl.find_opt t.cons (key i j) with
  | None -> invalid_arg "Network.supports: unconstrained pair"
  | Some c -> if i < j then c.fwd else c.bwd

let neighbors t i =
  check_var t i;
  t.neighbors.(i)

let degree t i = List.length (neighbors t i)
let num_constraints t = Hashtbl.length t.cons

let constraint_pairs t =
  Hashtbl.fold (fun k _ acc -> k :: acc) t.cons []
  |> List.sort Stdlib.compare

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
  Hashtbl.fold
    (fun (i, j) c ok ->
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
        List.map (fun j -> local j 0 n) t.neighbors.(v)
        |> List.filter (fun b -> b >= 0)
        |> Array.of_list)
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
          let c = Hashtbl.find t.cons (vars.(a), vars.(b)) in
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

(* The all-variables case, memoized until the next [add_allowed]. *)
let compile t =
  match t.compiled with
  | Some c -> c
  | None ->
    let c = compile_vars t (Array.init (num_vars t) Fun.id) in
    t.compiled <- Some c;
    c

(* Connected components by breadth-first search over the neighbour
   lists, in order of their smallest variable, members ascending;
   unconstrained variables are singletons. *)
let components t =
  let n = num_vars t in
  let seen = Array.make n false and queue = Array.make n 0 in
  let visit tail j =
    if seen.(j) then tail else (seen.(j) <- true; queue.(tail) <- j; tail + 1)
  in
  let rec sweep head tail =
    if head = tail then tail
    else sweep (head + 1) (List.fold_left visit tail t.neighbors.(queue.(head)))
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
  Hashtbl.iter
    (fun (i, j) c ->
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
    (fun (i, j) ->
      Format.fprintf ppf "  S(%s,%s): %d pairs@," t.names.(i) t.names.(j)
        (Array.fold_left ( + ) 0 (Hashtbl.find t.cons (i, j)).fcnt))
    (constraint_pairs t);
  Format.fprintf ppf "@]"
