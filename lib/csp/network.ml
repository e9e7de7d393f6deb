type 'a t = {
  names : string array;
  domains : 'a array array;
  cons : (int * int, Relation.t) Hashtbl.t; (* keyed (i, j) with i < j *)
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

let add_allowed t i j pairs =
  check_var t i;
  check_var t j;
  if i = j then invalid_arg "Network.add_allowed: i = j";
  t.compiled <- None;
  let a, b = key i j in
  let rel =
    match Hashtbl.find_opt t.cons (a, b) with
    | Some r -> r
    | None ->
      let r =
        Relation.create
          ~left:(Array.length t.domains.(a))
          ~right:(Array.length t.domains.(b))
      in
      Hashtbl.replace t.cons (a, b) r;
      t.neighbors.(a) <- insert_sorted b t.neighbors.(a);
      t.neighbors.(b) <- insert_sorted a t.neighbors.(b);
      r
  in
  List.iter
    (fun (vi, vj) ->
      let l, r = if i < j then (vi, vj) else (vj, vi) in
      Relation.add rel l r)
    pairs

let constrained t i j = i <> j && Hashtbl.mem t.cons (key i j)

let allowed t i vi j vj =
  match Hashtbl.find_opt t.cons (key i j) with
  | None -> true
  | Some rel -> if i < j then Relation.mem rel vi vj else Relation.mem rel vj vi

let support_count t i vi j =
  match Hashtbl.find_opt t.cons (key i j) with
  | None -> domain_size t j
  | Some rel ->
    if i < j then Relation.left_support rel vi else Relation.right_support rel vi

let relation t i j =
  match Hashtbl.find_opt t.cons (key i j) with
  | None -> None
  | Some rel -> if i < j then Some rel else Some (Relation.transpose rel)

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
    (fun (i, j) rel ok ->
      ok
      && (a.(i) = -1 || a.(j) = -1 || Relation.mem rel a.(i) a.(j)))
    t.cons true

let verify t a = consistent_with t a false
let consistent_partial t a = consistent_with t a true

let map_values f t =
  let cons = Hashtbl.create (Hashtbl.length t.cons) in
  Hashtbl.iter (fun k rel -> Hashtbl.replace cons k (Relation.copy rel)) t.cons;
  {
    names = Array.copy t.names;
    domains = Array.map (Array.map f) t.domains;
    cons;
    neighbors = Array.copy t.neighbors;
    compiled = None;
  }

(* Lower the constraints among [vars] into the dense Compiled view: both
   constraint orientations, support rows as int-word bitsets, support
   popcounts, neighbour arrays.  O(|vars|^2 + sum of |dom i| * |dom j|
   over the kept constraints), whatever the size of the network. *)
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
          let rel = Hashtbl.find t.cons (vars.(a), vars.(b)) in
          let hab = !next and hba = !next + 1 in
          next := !next + 2;
          handle.((a * n) + b) <- hab;
          handle.((b * n) + a) <- hba;
          let la = dom_size.(a) and lb = dom_size.(b) in
          let rab = Array.init la (fun _ -> Bitset.row_make lb) in
          let rba = Array.init lb (fun _ -> Bitset.row_make la) in
          for va = 0 to la - 1 do
            for vb = 0 to lb - 1 do
              if Relation.mem rel va vb then begin
                Bitset.row_add rab.(va) vb;
                Bitset.row_add rba.(vb) va
              end
            done
          done;
          rows.(hab) <- rab;
          rows.(hba) <- rba;
          supcnt.(hab) <- Array.init la (Relation.left_support rel);
          supcnt.(hba) <- Array.init lb (Relation.right_support rel)
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
   domain (order preserved) and re-index the relations.  A constraint
   whose allowed pairs are all dropped survives as an empty relation
   (allows nothing).  Sound preprocessing —
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
  let inv =
    Array.mapi
      (fun i idx ->
        let m = Array.make (Array.length t.domains.(i)) (-1) in
        Array.iteri (fun nv ov -> m.(ov) <- nv) idx;
        m)
      maps
  in
  Hashtbl.iter
    (fun (i, j) rel ->
      let pairs = ref [] in
      for vi = 0 to Array.length t.domains.(i) - 1 do
        for vj = 0 to Array.length t.domains.(j) - 1 do
          if inv.(i).(vi) >= 0 && inv.(j).(vj) >= 0 && Relation.mem rel vi vj
          then pairs := (inv.(i).(vi), inv.(j).(vj)) :: !pairs
        done
      done;
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
      match Hashtbl.find_opt t.cons (i, j) with
      | None -> ()
      | Some rel ->
        Format.fprintf ppf "  S(%s,%s): %d pairs@," t.names.(i) t.names.(j)
          (Relation.pair_count rel))
    (constraint_pairs t);
  Format.fprintf ppf "@]"
