module Intvec = Mlo_linalg.Intvec

type loop = { var : string; lo : int; hi : int }

type t = { name : string; loops : loop array; accesses : Access.t array }

let make ~name loops accesses =
  if loops = [] then invalid_arg "Loop_nest.make: no loops";
  if accesses = [] then invalid_arg "Loop_nest.make: no accesses";
  List.iter
    (fun l -> if l.hi <= l.lo then invalid_arg "Loop_nest.make: empty loop")
    loops;
  let vars = List.map (fun l -> l.var) loops in
  if List.length (List.sort_uniq String.compare vars) <> List.length vars then
    invalid_arg "Loop_nest.make: duplicate loop variable names";
  let d = List.length loops in
  (* every legal loop order is enumerated (d! of them), so the depth is
     capped where that stays cheap *)
  if d > 6 then
    invalid_arg
      (Printf.sprintf "Loop_nest.make: %d loops exceed the maximum depth of 6"
         d);
  List.iter
    (fun a ->
      if Access.depth a <> d then
        invalid_arg "Loop_nest.make: access depth differs from nest depth")
    accesses;
  { name; loops = Array.of_list loops; accesses = Array.of_list accesses }

let name t = t.name
let depth t = Array.length t.loops
let loops t = Array.copy t.loops
let accesses t = Array.copy t.accesses
let var_names t = Array.map (fun l -> l.var) t.loops

let trip_count t =
  Array.fold_left (fun acc l -> acc * (l.hi - l.lo)) 1 t.loops

let arrays_touched t =
  let seen = Hashtbl.create 8 in
  let order = ref [] in
  Array.iter
    (fun a ->
      let n = Access.array_name a in
      if not (Hashtbl.mem seen n) then begin
        Hashtbl.add seen n ();
        order := n :: !order
      end)
    t.accesses;
  List.rev !order

let iter t f =
  let d = depth t in
  let iv = Array.make d 0 in
  let rec go level =
    if level = d then f iv
    else begin
      let l = t.loops.(level) in
      for x = l.lo to l.hi - 1 do
        iv.(level) <- x;
        go (level + 1)
      done
    end
  in
  go 0

let innermost_step t = Intvec.unit (depth t) (depth t - 1)

let permute t perm =
  let d = depth t in
  if Array.length perm <> d then
    invalid_arg "Loop_nest.permute: wrong permutation length";
  let seen = Array.make d false in
  Array.iter
    (fun q ->
      if q < 0 || q >= d || seen.(q) then
        invalid_arg "Loop_nest.permute: not a permutation";
      seen.(q) <- true)
    perm;
  {
    t with
    loops = Array.init d (fun p -> t.loops.(perm.(p)));
    accesses = Array.map (Access.permute perm) t.accesses;
  }

let interchange t =
  if depth t <> 2 then invalid_arg "Loop_nest.interchange: depth must be 2";
  permute t [| 1; 0 |]

(* All permutations of 0..d-1 in a stable order with the identity first. *)
let all_perms d =
  let rec insert x = function
    | [] -> [ [ x ] ]
    | y :: ys as l -> (x :: l) :: List.map (fun z -> y :: z) (insert x ys)
  in
  let rec perms = function
    | [] -> [ [] ]
    | x :: xs -> List.concat_map (insert x) (perms xs)
  in
  let ps = perms (List.init d Fun.id) in
  let arr = List.map Array.of_list ps in
  let is_id p = Array.for_all2 ( = ) p (Array.init d Fun.id) in
  let id, rest = List.partition is_id arr in
  id @ rest

let orders t = all_perms (depth t)

let permutations t = List.map (fun p -> (p, permute t p)) (orders t)

let equal a b =
  String.equal a.name b.name
  && a.loops = b.loops
  && Array.length a.accesses = Array.length b.accesses
  && Array.for_all2 Access.equal a.accesses b.accesses

let pp ppf t =
  let names = var_names t in
  Format.fprintf ppf "@[<v>";
  Array.iteri
    (fun level l ->
      Format.fprintf ppf "%sfor (%s = %d; %s < %d; %s++)@,"
        (String.make (2 * level) ' ')
        l.var l.lo l.var l.hi l.var)
    t.loops;
  let indent = String.make (2 * depth t) ' ' in
  Array.iter
    (fun a ->
      Format.fprintf ppf "%s%s %a;@," indent
        (match Access.kind a with Access.Read -> "load " | Access.Write -> "store")
        (Access.pp names) a)
    t.accesses;
  Format.fprintf ppf "@]"
