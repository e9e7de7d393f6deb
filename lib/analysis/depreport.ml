module Dependence = Mlo_ir.Dependence
module Loop_nest = Mlo_ir.Loop_nest
module Access = Mlo_ir.Access
module Program = Mlo_ir.Program
module Nest_summary = Mlo_layout.Nest_summary
module Presburger = Mlo_ir.Presburger
module Trace = Mlo_obs.Trace
module Json = Mlo_obs.Json

type pair_report = {
  src : int;
  dst : int;
  src_ref : string;
  dst_ref : string;
  src_write : bool;
  dst_write : bool;
  deps : Dependence.dep list;
  decided_by : Dependence.method_;
}

type nest_report = {
  nest : string;
  depth : int;
  pairs : pair_report list;
  legal_orders : int;
  total_orders : int;
}

type t = {
  program : string;
  nests : nest_report list;
  closed_form_pairs : int;
  checks : int;
  eliminations : int;
  splits : int;
  max_split_depth : int;
}

let access_str nest a =
  Format.asprintf "%a" (Access.pp (Loop_nest.var_names nest)) a

let nest_report nest legal =
  let accs = Loop_nest.accesses nest in
  let pairs =
    List.map
      (fun (i, j, deps) ->
        let a1 = accs.(i) and a2 = accs.(j) in
        {
          src = i;
          dst = j;
          src_ref = access_str nest a1;
          dst_ref = access_str nest a2;
          src_write = Access.is_write a1;
          dst_write = Access.is_write a2;
          deps;
          decided_by = Dependence.pair_method nest a1 a2;
        })
      (Dependence.pair_deps nest)
  in
  {
    nest = Loop_nest.name nest;
    depth = Loop_nest.depth nest;
    pairs;
    legal_orders = List.length legal;
    total_orders = List.length (Loop_nest.orders nest);
  }

let run prog =
  Trace.with_span ~cat:"analysis" "deps:analyze" @@ fun () ->
  (* the legal orders come from the program's nest summary, derived
     before the effort window so each pair's dependences count once *)
  let summary = Nest_summary.of_program prog in
  let before = Presburger.stats () in
  let nests =
    Array.to_list
      (Array.mapi
         (fun i nest ->
           nest_report nest (Nest_summary.nest summary i).Nest_summary.orders)
         (Program.nests prog))
  in
  let after = Presburger.stats () in
  let checks = after.Presburger.checks - before.Presburger.checks
  and eliminations =
    after.Presburger.eliminations - before.Presburger.eliminations
  and splits = after.Presburger.splits - before.Presburger.splits
  and max_split_depth = after.Presburger.max_split_depth in
  Trace.counter ~cat:"analysis" "presburger"
    [
      ("checks", float_of_int checks);
      ("eliminations", float_of_int eliminations);
      ("splits", float_of_int splits);
    ];
  let closed_form_pairs =
    List.concat_map (fun nr -> nr.pairs) nests
    |> List.filter (fun pr -> pr.decided_by = Dependence.Closed_form)
    |> List.length
  in
  {
    program = Program.name prog;
    nests;
    closed_form_pairs;
    checks;
    eliminations;
    splits;
    max_split_depth;
  }

let pinned nr = nr.legal_orders = 1 && nr.total_orders > 1

let pair_count t =
  List.fold_left (fun acc nr -> acc + List.length nr.pairs) 0 t.nests

let pp ppf t =
  Format.fprintf ppf "@[<v>program %s@," t.program;
  List.iter
    (fun nr ->
      Format.fprintf ppf "@,nest %s (depth %d): %d/%d loop orders legal%s@,"
        nr.nest nr.depth nr.legal_orders nr.total_orders
        (if pinned nr then " (pinned)" else "");
      if nr.pairs = [] then Format.fprintf ppf "  no conflicting pairs@,"
      else
        List.iter
          (fun pr ->
            let kind w = if w then "write" else "read" in
            let by = Dependence.method_label pr.decided_by in
            if pr.deps = [] then
              Format.fprintf ppf "  %s (%s) / %s (%s): independent [%s]@,"
                pr.src_ref (kind pr.src_write) pr.dst_ref (kind pr.dst_write) by
            else
              Format.fprintf ppf "  %s (%s) -> %s (%s): %a [%s]@," pr.src_ref
                (kind pr.src_write) pr.dst_ref (kind pr.dst_write)
                (Format.pp_print_list
                   ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
                   Dependence.pp_dep)
                pr.deps by)
          nr.pairs)
    t.nests;
  Format.fprintf ppf
    "@,closed-form: %d of %d pairs@,\
     presburger: %d checks, %d eliminations, %d splits (depth <= %d)@]"
    t.closed_form_pairs (pair_count t) t.checks t.eliminations t.splits
    t.max_split_depth

let dep_json = function
  | Dependence.Distance d ->
      Json.Obj
        [
          ("kind", Json.Str "distance");
          ( "vector",
            Json.Arr
              (Array.to_list
                 (Array.map (fun c -> Json.Num (float_of_int c)) d)) );
        ]
  | Dependence.Direction dirs ->
      Json.Obj
        [
          ("kind", Json.Str "direction");
          ( "dirs",
            Json.Arr
              (Array.to_list
                 (Array.map
                    (fun d ->
                      Json.Str (String.make 1 (Dependence.direction_char d)))
                    dirs)) );
        ]

let pair_json pr =
  Json.Obj
    [
      ("src", Json.Num (float_of_int pr.src));
      ("dst", Json.Num (float_of_int pr.dst));
      ("src_ref", Json.Str pr.src_ref);
      ("dst_ref", Json.Str pr.dst_ref);
      ("src_write", Json.Bool pr.src_write);
      ("dst_write", Json.Bool pr.dst_write);
      ("independent", Json.Bool (pr.deps = []));
      ("method", Json.Str (Dependence.method_label pr.decided_by));
      ("deps", Json.Arr (List.map dep_json pr.deps));
    ]

let nest_json nr =
  Json.Obj
    [
      ("nest", Json.Str nr.nest);
      ("depth", Json.Num (float_of_int nr.depth));
      ("pairs", Json.Arr (List.map pair_json nr.pairs));
      ("legal_orders", Json.Num (float_of_int nr.legal_orders));
      ("total_orders", Json.Num (float_of_int nr.total_orders));
      ("pinned", Json.Bool (pinned nr));
    ]

let to_json t =
  Json.Obj
    [
      ("program", Json.Str t.program);
      ("nests", Json.Arr (List.map nest_json t.nests));
      ("closed_form_pairs", Json.Num (float_of_int t.closed_form_pairs));
      ( "presburger",
        Json.Obj
          [
            ("checks", Json.Num (float_of_int t.checks));
            ("eliminations", Json.Num (float_of_int t.eliminations));
            ("splits", Json.Num (float_of_int t.splits));
            ("max_split_depth", Json.Num (float_of_int t.max_split_depth));
          ] );
    ]
