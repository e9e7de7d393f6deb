module Intmat = Mlo_linalg.Intmat
module Access = Mlo_ir.Access
module Loop_nest = Mlo_ir.Loop_nest
module Program = Mlo_ir.Program
module Dependence = Mlo_ir.Dependence
module Trace = Mlo_obs.Trace

type access = { array : string; columns : Mlo_linalg.Intvec.t array }

type nest = {
  orders : int array list;
  touched : string array;
  accesses : access array;
  inners : int list;
  demands : Layout.t option array array;
}

type t = nest array

let innermost order = order.(Array.length order - 1)

(* The layout demanded by one array's references [deltas] (their steps
   along the innermost loop, body order): the first of their distinct
   preferred layouts with the highest summed score. *)
let demand layout_of deltas =
  let uniq =
    List.fold_left
      (fun acc d ->
        match layout_of d with
        | Some l when not (List.exists (Layout.equal l) acc) -> l :: acc
        | Some _ | None -> acc)
      [] deltas
    |> List.rev
  in
  match uniq with
  | [] -> None
  | first :: rest ->
    let score l =
      List.fold_left (fun s d -> s + Locality.delta_score l d) 0 deltas
    in
    let best, _ =
      List.fold_left
        (fun (bl, bs) l ->
          let s = score l in
          if s > bs then (l, s) else (bl, bs))
        (first, score first) rest
    in
    Some best

let summarize_nest layout_of nest =
  let d = Loop_nest.depth nest in
  let accesses =
    Array.map
      (fun a ->
        let m = Access.matrix a in
        { array = Access.array_name a; columns = Array.init d (Intmat.col m) })
      (Loop_nest.accesses nest)
  in
  let touched = Array.of_list (Loop_nest.arrays_touched nest) in
  let orders = Dependence.legal_orders nest in
  let inners =
    List.fold_left
      (fun acc o ->
        let k = innermost o in
        if List.mem k acc then acc else k :: acc)
      [] orders
    |> List.rev
  in
  let refs =
    Array.map
      (fun name ->
        List.filter
          (fun a -> String.equal a.array name)
          (Array.to_list accesses))
      touched
  in
  let demands = Array.make d [||] in
  List.iter
    (fun k ->
      demands.(k) <-
        Array.map
          (fun accs -> demand layout_of (List.map (fun a -> a.columns.(k)) accs))
          refs)
    inners;
  { orders; touched; accesses; inners; demands }

(* Programs repeat few innermost steps (nine distinct ones in each paper
   program), and each [layout_from_delta] is an integer nullspace plus a
   rank check, so one summary memoizes it for all its nests. *)
let summarize prog =
  let nests = Program.nests prog in
  Trace.with_span ~cat:"layout" "nest-summary"
    ~args:[ ("program", Trace.Str (Program.name prog)) ]
  @@ fun () ->
  let memo = Hashtbl.create 64 in
  let layout_of delta =
    match Hashtbl.find_opt memo delta with
    | Some l -> l
    | None ->
      let l = Locality.layout_from_delta delta in
      Hashtbl.add memo delta l;
      l
  in
  let s = Array.map (summarize_nest layout_of) nests in
  if Trace.enabled () then begin
    let count f = Array.fold_left (fun acc n -> acc + List.length (f n)) 0 s in
    Trace.counter ~cat:"layout" "nest-summary"
      [
        ("nests", float_of_int (Array.length s));
        ("legal_orders", float_of_int (count (fun n -> n.orders)));
        ("innermost_loops", float_of_int (count (fun n -> n.inners)));
      ]
  end;
  s

let of_program = Program.memo summarize

let nest s i = s.(i)

let demands_for n order =
  let dem = n.demands.(innermost order) in
  List.filter_map
    (fun t -> Option.map (fun l -> (n.touched.(t), l)) dem.(t))
    (List.init (Array.length n.touched) Fun.id)

let score n lookup k =
  Array.fold_left
    (fun acc a ->
      match lookup a.array with
      | None -> acc
      | Some l -> acc + Locality.delta_score l a.columns.(k))
    0 n.accesses

let best_order n lookup =
  let scores = Array.make (Array.length n.demands) 0 in
  List.iter (fun k -> scores.(k) <- score n lookup k) n.inners;
  match n.orders with
  | [] -> invalid_arg "Nest_summary.best_order: no legal order"
  | first :: rest ->
    let best, _ =
      List.fold_left
        (fun (bo, bs) o ->
          let s = scores.(innermost o) in
          if s > bs then (o, s) else (bo, bs))
        (first, scores.(innermost first))
        rest
    in
    best
