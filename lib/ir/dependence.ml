module Intvec = Mlo_linalg.Intvec
module Intmat = Mlo_linalg.Intmat
module P = Presburger

type direction = Lt | Eq | Gt
type dep = Distance of Intvec.t | Direction of direction array

let direction_char = function Lt -> '<' | Eq -> '=' | Gt -> '>'

let pp_dep ppf d =
  let inner =
    match d with
    | Distance v -> Array.to_list (Array.map string_of_int v)
    | Direction v ->
        Array.to_list (Array.map (fun x -> String.make 1 (direction_char x)) v)
  in
  Format.fprintf ppf "(%s)" (String.concat ", " inner)

let lex_sign v =
  match Intvec.first_nonzero v with
  | None -> 0
  | Some i -> if v.(i) > 0 then 1 else -1

(* ------------------------------------------------------------------ *)
(* The conflict system for a reference pair: variables x_0..x_{d-1} are
   the source iteration I, x_d..x_{2d-1} the sink iteration I'; both
   range over the nest's bounds and the accessed elements coincide:
   F1.I + o1 = F2.I' + o2, one equality per array dimension. *)

let conflict_system nest a1 a2 =
  let loops = Loop_nest.loops nest in
  let d = Array.length loops in
  let nvars = 2 * d in
  let cstrs = ref [] in
  Array.iteri
    (fun j l ->
      let lo = l.Loop_nest.lo and hi = Intvec.(l.Loop_nest.hi -! 1) in
      cstrs :=
        P.between ~nvars j ~lo ~hi
        @ P.between ~nvars (d + j) ~lo ~hi
        @ !cstrs)
    loops;
  let m1 = Access.matrix a1 and m2 = Access.matrix a2 in
  let o1 = Access.offset a1 and o2 = Access.offset a2 in
  for r = 0 to Intmat.rows m1 - 1 do
    let c = Array.make nvars 0 in
    for j = 0 to d - 1 do
      c.(j) <- m1.(r).(j);
      c.(d + j) <- Intvec.(0 -! m2.(r).(j))
    done;
    cstrs := P.eq c Intvec.(o1.(r) -! o2.(r)) :: !cstrs
  done;
  P.make ~nvars !cstrs

(* delta_j = x_{d+j} - x_j, the level-j dependence distance. *)
let delta_coeffs nvars d j =
  let c = Array.make nvars 0 in
  c.(d + j) <- 1;
  c.(j) <- -1;
  c

let dir_cstr nvars d j = function
  | Lt -> P.geq (delta_coeffs nvars d j) (-1) (* delta_j >= 1 *)
  | Eq -> P.eq (delta_coeffs nvars d j) 0
  | Gt ->
      let c = delta_coeffs nvars d j in
      P.geq (Array.map (fun x -> -x) c) (-1) (* delta_j <= -1 *)

let flip_dir = function Lt -> Gt | Gt -> Lt | Eq -> Eq

(* Enumerate the Banerjee direction hierarchy: refine each level's [*]
   into Lt/Eq/Gt, pruning infeasible prefixes ([refine st level dir] is
   the child state, or [None] when the prefix has no realized distance).
   A feasible leaf whose first non-Eq level is Gt is the mirror of a
   forward dependence (sink precedes source in program order); it is
   flipped so every reported dep is lexicographically forward.  Leaves
   whose per-level distance range ([range st level dir], the exact
   extrema) is a single point collapse to an exact [Distance]. *)
let walk_directions d ~refine ~range root =
  let found = ref [] in
  let emit dep = if not (List.mem dep !found) then found := dep :: !found in
  let leaf st dirs =
    if not (List.for_all (fun x -> x = Eq) dirs) then begin
      let flipped =
        match List.find_opt (fun x -> x <> Eq) dirs with
        | Some Gt -> true
        | _ -> false
      in
      let ranges =
        List.mapi
          (fun j dir -> match dir with Eq -> (0, 0) | _ -> range st j dir)
          dirs
      in
      if List.for_all (fun (a, b) -> a = b) ranges then
        let v = Array.of_list (List.map fst ranges) in
        emit (Distance (if flipped then Array.map (fun x -> -x) v else v))
      else
        let dirs = Array.of_list dirs in
        emit (Direction (if flipped then Array.map flip_dir dirs else dirs))
    end
  in
  let rec go level st dirs =
    if level = d then leaf st (List.rev dirs)
    else
      List.iter
        (fun dir ->
          match refine st level dir with
          | Some st' -> go (level + 1) st' (dir :: dirs)
          | None -> ())
        [ Lt; Eq; Gt ]
  in
  go 0 root [];
  List.rev !found

(* The general path: every node of the tree is an Omega-test query. *)
let omega_pair_deps nest a1 a2 =
  let loops = Loop_nest.loops nest in
  let d = Array.length loops in
  let nvars = 2 * d in
  let base = conflict_system nest a1 a2 in
  if not (P.feasible base) then []
  else
    walk_directions d base
      ~refine:(fun sys level dir ->
        let sys' = P.add sys [ dir_cstr nvars d level dir ] in
        if P.feasible sys' then Some sys' else None)
      ~range:(fun sys j _ ->
        let l = loops.(j) in
        let span = Intvec.(l.Loop_nest.hi -! 1 -! l.Loop_nest.lo) in
        match
          P.range sys ~coeffs:(delta_coeffs nvars d j) ~lo:(-span) ~hi:span
        with
        | Some r -> r
        | None -> assert false (* the leaf is feasible *))

(* ------------------------------------------------------------------ *)
(* Closed form for uniform pairs.  When both references share the
   access matrix F, the conflict system only constrains the distance
   delta = I' - I: F.delta = o1 - o2, and each level can realize any
   |delta_j| <= hi_j - 1 - lo_j (place I_j at lo_j or hi_j - 1).  If F
   minus its zero columns has full column rank, delta is unique on the
   levels F mentions and free over its whole span on the others, so the
   realized set is a box and the direction tree needs no solver.  Every
   other pair (non-uniform, rank-deficient, or with a coefficient that
   could overflow machine arithmetic) takes [omega_pair_deps]. *)

let guard = 1 lsl 30
let small x = x > -guard && x < guard

(* The unique solution of an echelon system with [k] pivots, or [None]
   when it is inconsistent or not integral. *)
let back_substitute a k =
  let rows = Array.length a in
  let x = Array.make k 0 in
  let rec go q =
    q < 0
    ||
    let row = a.(q) in
    let rhs = ref row.(k) in
    for q' = q + 1 to k - 1 do
      rhs := Intvec.(!rhs -! (row.(q') *! x.(q')))
    done;
    !rhs mod row.(q) = 0
    && begin
         x.(q) <- !rhs / row.(q);
         go (q - 1)
       end
  in
  let consistent = ref true in
  for r = k to rows - 1 do
    if a.(r).(k) <> 0 then consistent := false
  done;
  if !consistent && go (k - 1) then Some x else None

(* The realized distance set of a uniform pair: [Some (Some box)] with
   [box.(j)] the inclusive range of delta_j, [Some None] when no
   iteration pair conflicts, [None] when the closed form does not
   apply. *)
let uniform_box nest a1 a2 =
  let f = Access.matrix a1 in
  let o1 = Access.offset a1 and o2 = Access.offset a2 in
  if
    not
      (Intmat.equal f (Access.matrix a2)
      && Array.for_all (Array.for_all small) f
      && Array.for_all small o1 && Array.for_all small o2
      && Array.for_all2 (fun x y -> small (x - y)) o1 o2)
  then None
  else
    let loops = Loop_nest.loops nest in
    let cols =
      List.init (Array.length loops) Fun.id
      |> List.filter (fun j -> Array.exists (fun row -> row.(j) <> 0) f)
      |> Array.of_list
    in
    let k = Array.length cols in
    (* the augmented system [F_K | o1 - o2] over the levels F mentions *)
    let a =
      Array.mapi
        (fun r row ->
          Array.init (k + 1) (fun q ->
              if q < k then row.(cols.(q)) else o1.(r) - o2.(r)))
        f
    in
    match
      if Intmat.echelon ~cols:k a < k then raise Exit;
      ( back_substitute a k,
        Array.map
          (fun l -> Intvec.(l.Loop_nest.hi -! 1 -! l.Loop_nest.lo))
          loops )
    with
    | exception (Exit | Intvec.Overflow) ->
        None (* rank-deficient or too large *)
    | None, _ -> Some None
    | Some x, span ->
        let box = Array.map (fun s -> (-s, s)) span in
        let inside = ref true in
        Array.iteri
          (fun q j ->
            if x.(q) < -span.(j) || x.(q) > span.(j) then inside := false
            else box.(j) <- (x.(q), x.(q)))
          cols;
        Some (if !inside then Some box else None)

let closed_form_deps box =
  walk_directions (Array.length box) ()
    ~refine:(fun () j dir ->
      let lo, hi = box.(j) in
      let ok =
        match dir with
        | Lt -> hi >= 1
        | Eq -> lo <= 0 && hi >= 0
        | Gt -> lo <= -1
      in
      if ok then Some () else None)
    ~range:(fun () j dir ->
      let lo, hi = box.(j) in
      match dir with
      | Lt -> (max lo 1, hi)
      | Gt -> (lo, min hi (-1))
      | Eq -> (0, 0))

type method_ = Closed_form | Omega

let method_label = function Closed_form -> "closed-form" | Omega -> "omega"

let pair_method nest a1 a2 =
  match uniform_box nest a1 a2 with Some _ -> Closed_form | None -> Omega

let pair_deps_for nest a1 a2 =
  match uniform_box nest a1 a2 with
  | Some None -> []
  | Some (Some box) -> closed_form_deps box
  | None -> omega_pair_deps nest a1 a2

let pair_deps nest =
  let accs = Loop_nest.accesses nest in
  let n = Array.length accs in
  let out = ref [] in
  for i = n - 1 downto 0 do
    for j = n - 1 downto i do
      let a1 = accs.(i) and a2 = accs.(j) in
      if
        String.equal (Access.array_name a1) (Access.array_name a2)
        && (Access.is_write a1 || Access.is_write a2)
        && not (i = j && not (Access.is_write a1))
      then out := (i, j, pair_deps_for nest a1 a2) :: !out
    done
  done;
  !out

let deps nest =
  List.concat_map (fun (i, j, ds) -> List.map (fun d -> (i, j, d)) ds)
    (pair_deps nest)

(* ------------------------------------------------------------------ *)
(* Permutation legality. *)

let is_identity perm =
  let ok = ref true in
  Array.iteri (fun i x -> if i <> x then ok := false) perm;
  !ok

let dep_legal perm = function
  | Distance dv ->
      lex_sign (Array.init (Array.length perm) (fun p -> dv.(perm.(p)))) >= 0
  | Direction dirs ->
      let n = Array.length perm in
      let rec scan p =
        p >= n
        ||
        match dirs.(perm.(p)) with
        | Lt -> true
        | Gt -> false
        | Eq -> scan (p + 1)
      in
      scan 0

(* [List.for_all (dep_legal perm)] without a closure per order *)
let rec all_forward perm = function
  | [] -> true
  | d :: ds -> dep_legal perm d && all_forward perm ds

let order_legal ds perm = is_identity perm || all_forward perm ds

let dep_list nest = List.concat_map (fun (_, _, ds) -> ds) (pair_deps nest)

let legal_permutation nest perm = order_legal (dep_list nest) perm

let legal_orders nest =
  List.filter (order_legal (dep_list nest)) (Loop_nest.orders nest)

let legal_permutations nest =
  List.map (fun p -> (p, Loop_nest.permute nest p)) (legal_orders nest)
