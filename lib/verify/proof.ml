module Json = Mlo_obs.Json
module Network = Mlo_csp.Network
module Solver = Mlo_csp.Solver

let schema = "memlayout-proof/1"

type del_reason = Dominated of int | Arc_inconsistent

type step =
  | Del of { var : int; value : int; reason : del_reason }
  | Comp of { id : int; vars : int array }
  | Ng of { comp : int; dead : int; lits : (int * int) array }
  | Inc of { comp : int; lits : (int * int) array; cost : float }

type verdict =
  | Sat of int array
  | Unsat
  | Optimal of { cost : float; assignment : int array }
  | Aborted

type header = {
  workload : string;
  scheme : string;
  objective : string option;
  pruned : bool;
  slack : float;
  names : string array;
  domain_sizes : int array;
  digest : string;
}

type t = { header : header; steps : step list; verdict : verdict option }

(* ---- digest ------------------------------------------------------- *)

let digest net =
  let h = ref 0xcbf29ce484222325L in
  let prime = 0x100000001b3L in
  let byte b = h := Int64.mul (Int64.logxor !h (Int64.of_int (b land 0xff))) prime in
  let str s =
    String.iter (fun c -> byte (Char.code c)) s;
    byte 0
  in
  let int i =
    str (string_of_int i)
  in
  let n = Network.num_vars net in
  int n;
  for i = 0 to n - 1 do
    str (Network.name net i);
    int (Network.domain_size net i)
  done;
  List.iter
    (fun (i, j) ->
      int i;
      int j;
      (* the allowed-pair bitmap, row by row off the stored supports,
         packed 8 value pairs per hashed byte *)
      let rows = Network.supports net i j in
      let acc = ref 0 and fill = ref 0 in
      let bit b =
        acc := (!acc lsl 1) lor (if b then 1 else 0);
        incr fill;
        if !fill = 8 then begin
          byte !acc;
          acc := 0;
          fill := 0
        end
      in
      for vi = 0 to Network.domain_size net i - 1 do
        for vj = 0 to Network.domain_size net j - 1 do
          bit (Mlo_csp.Bitset.row_mem rows.(vi) vj)
        done
      done;
      if !fill > 0 then byte (!acc lsl (8 - !fill)))
    (Network.constraint_pairs net);
  Printf.sprintf "%016Lx" !h

(* ---- writing ------------------------------------------------------ *)

let header ~workload ~scheme ~objective ~pruned ~slack net =
  let n = Network.num_vars net in
  let names = Array.init n (Network.name net) in
  let domain_sizes = Array.init n (Network.domain_size net) in
  { workload; scheme; objective; pruned; slack; names; domain_sizes;
    digest = digest net }

(* Per component: its variable map, its events newest first, and how its
   search ended.  The engines replay events serially, one thread. *)
type recorder =
  (int, int array * Solver.event list ref * Solver.outcome option ref) Hashtbl.t

let recorder () : recorder = Hashtbl.create 8

let record (r : recorder) ~comp ~vars ev =
  let _, events, finished =
    match Hashtbl.find_opt r comp with
    | Some slot -> slot
    | None ->
      let slot = (vars, ref [], ref None) in
      Hashtbl.add r comp slot;
      slot
  in
  match ev with
  | Solver.Finished o -> finished := Some o
  | Solver.Learned _ | Solver.Incumbent _ -> events := ev :: !events

(* The original index of value [v] of [i] in the solved network. *)
let original survivors i v =
  match survivors with Some s -> s.(i).(v) | None -> v

let certificate header ~dels ~survivors ~costs (r : recorder)
    (result : Solver.result) =
  let orig = original survivors in
  let cost c lits = Array.fold_left (fun acc (x, v) -> acc +. c.(x).(v)) 0.0 lits in
  let pairs a = Array.mapi (fun i v -> (i, v)) a in
  match result.Solver.outcome with
  | Solver.Solution a when result.Solver.stats.Mlo_csp.Stats.cut ->
    (* an interrupted search proves nothing beyond its assignment *)
    { header; steps = dels; verdict = Some (Sat (Array.mapi orig a)) }
  | outcome ->
    let unsat = outcome = Solver.Unsatisfiable in
    let comp_steps k =
      let vars, events, finished = Hashtbl.find r k in
      let global = Array.map (fun (x, v) -> (vars.(x), orig vars.(x) v)) in
      let step = function
        | Solver.Learned { dead; lits } ->
          Some (Ng { comp = k; dead = vars.(dead); lits = global lits })
        | Solver.Incumbent { assignment } when not unsat ->
          Option.map
            (fun c ->
              let lits = global (pairs assignment) in
              Inc { comp = k; lits; cost = cost c lits })
            costs
        | Solver.Incumbent _ | Solver.Finished _ -> None
      in
      if unsat && !finished <> Some Solver.Unsatisfiable then []
      else Comp { id = k; vars = Array.copy vars } :: List.filter_map step (List.rev !events)
    in
    let verdict =
      match (outcome, costs) with
      | Solver.Unsatisfiable, _ -> Unsat
      | Solver.Aborted, _ -> Aborted
      | Solver.Solution a, None -> Sat (Array.mapi orig a)
      | Solver.Solution a, Some c ->
        let ga = Array.mapi orig a in
        Optimal { cost = cost c (pairs ga); assignment = ga }
    in
    let ids = List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) r []) in
    { header; steps = dels @ List.concat_map comp_steps ids; verdict = Some verdict }

(* ---- serialization ------------------------------------------------ *)

let num i = Json.Num (float_of_int i)
let int_arr a = Json.Arr (Array.to_list a |> List.map num)
let lits_arr lits =
  Json.Arr (Array.to_list lits |> List.map (fun (x, v) -> Json.Arr [ num x; num v ]))

let header_json h =
  Json.Obj
    [
      ("t", Json.Str "header");
      ("schema", Json.Str schema);
      ("workload", Json.Str h.workload);
      ("scheme", Json.Str h.scheme);
      ("objective", (match h.objective with None -> Json.Null | Some o -> Json.Str o));
      ("pruned", Json.Bool h.pruned);
      ("slack", Json.Num h.slack);
      ("vars", Json.Arr (Array.to_list h.names |> List.map (fun s -> Json.Str s)));
      ("domains", int_arr h.domain_sizes);
      ("digest", Json.Str h.digest);
    ]

let step_json = function
  | Del { var; value; reason = Dominated by } ->
      Json.Obj
        [ ("t", Json.Str "del"); ("var", num var); ("value", num value);
          ("why", Json.Str "dominated"); ("by", num by) ]
  | Del { var; value; reason = Arc_inconsistent } ->
      Json.Obj
        [ ("t", Json.Str "del"); ("var", num var); ("value", num value);
          ("why", Json.Str "ac") ]
  | Comp { id; vars } ->
      Json.Obj [ ("t", Json.Str "comp"); ("id", num id); ("vars", int_arr vars) ]
  | Ng { comp; dead; lits } ->
      Json.Obj
        [ ("t", Json.Str "ng"); ("comp", num comp); ("dead", num dead);
          ("lits", lits_arr lits) ]
  | Inc { comp; lits; cost } ->
      Json.Obj
        [ ("t", Json.Str "inc"); ("comp", num comp); ("lits", lits_arr lits);
          ("cost", Json.Num cost) ]

let verdict_json = function
  | Sat a -> Json.Obj [ ("t", Json.Str "verdict"); ("v", Json.Str "sat"); ("assignment", int_arr a) ]
  | Unsat -> Json.Obj [ ("t", Json.Str "verdict"); ("v", Json.Str "unsat") ]
  | Optimal { cost; assignment } ->
      Json.Obj
        [ ("t", Json.Str "verdict"); ("v", Json.Str "optimal");
          ("cost", Json.Num cost); ("assignment", int_arr assignment) ]
  | Aborted -> Json.Obj [ ("t", Json.Str "verdict"); ("v", Json.Str "aborted") ]

let to_lines t =
  (Json.to_string (header_json t.header)
  :: List.map (fun s -> Json.to_string (step_json s)) t.steps)
  @ match t.verdict with None -> [] | Some v -> [ Json.to_string (verdict_json v) ]

let write path t =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      List.iter
        (fun line ->
          output_string oc line;
          output_char oc '\n')
        (to_lines t))

(* ---- parsing ------------------------------------------------------ *)

let ( let* ) = Result.bind

let field name j =
  match Json.member name j with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing field %S" name)

let as_int j =
  match Json.to_float j with
  | Some f when Float.is_integer f -> Ok (int_of_float f)
  | _ -> Error "expected an integer"

let int_field name j =
  let* v = field name j in
  as_int v

let str_field name j =
  let* v = field name j in
  match Json.to_str v with Some s -> Ok s | None -> Error (Printf.sprintf "field %S: expected a string" name)

let float_field name j =
  let* v = field name j in
  match Json.to_float v with Some f -> Ok f | None -> Error (Printf.sprintf "field %S: expected a number" name)

let int_array_field name j =
  let* v = field name j in
  match Json.to_list v with
  | None -> Error (Printf.sprintf "field %S: expected an array" name)
  | Some l ->
      let rec go acc = function
        | [] -> Ok (Array.of_list (List.rev acc))
        | x :: rest -> (
            match as_int x with Ok i -> go (i :: acc) rest | Error e -> Error e)
      in
      go [] l

let lits_field name j =
  let* v = field name j in
  match Json.to_list v with
  | None -> Error (Printf.sprintf "field %S: expected an array" name)
  | Some l ->
      let rec go acc = function
        | [] -> Ok (Array.of_list (List.rev acc))
        | Json.Arr [ x; v ] :: rest -> (
            match (as_int x, as_int v) with
            | Ok x, Ok v -> go ((x, v) :: acc) rest
            | _ -> Error "literal: expected [var,value]")
        | _ -> Error "literal: expected [var,value]"
      in
      go [] l

let parse_header j =
  let* s = str_field "schema" j in
  if s <> schema then Error (Printf.sprintf "unsupported proof schema %S" s)
  else
    let* workload = str_field "workload" j in
    let* scheme = str_field "scheme" j in
    let* obj = field "objective" j in
    let objective = Json.to_str obj in
    let* pruned =
      let* p = field "pruned" j in
      match p with Json.Bool b -> Ok b | _ -> Error "field \"pruned\": expected a bool"
    in
    let* slack = float_field "slack" j in
    let* vars = field "vars" j in
    let* names =
      match Json.to_list vars with
      | None -> Error "field \"vars\": expected an array"
      | Some l ->
          let rec go acc = function
            | [] -> Ok (Array.of_list (List.rev acc))
            | x :: rest -> (
                match Json.to_str x with
                | Some s -> go (s :: acc) rest
                | None -> Error "field \"vars\": expected strings")
          in
          go [] l
    in
    let* domain_sizes = int_array_field "domains" j in
    let* digest = str_field "digest" j in
    Ok { workload; scheme; objective; pruned; slack; names; domain_sizes; digest }

let parse_step j =
  let* t = str_field "t" j in
  match t with
  | "del" ->
      let* var = int_field "var" j in
      let* value = int_field "value" j in
      let* why = str_field "why" j in
      let* reason =
        match why with
        | "dominated" ->
            let* by = int_field "by" j in
            Ok (Dominated by)
        | "ac" -> Ok Arc_inconsistent
        | w -> Error (Printf.sprintf "unknown deletion reason %S" w)
      in
      Ok (Del { var; value; reason })
  | "comp" ->
      let* id = int_field "id" j in
      let* vars = int_array_field "vars" j in
      Ok (Comp { id; vars })
  | "ng" ->
      let* comp = int_field "comp" j in
      let* dead = int_field "dead" j in
      let* lits = lits_field "lits" j in
      Ok (Ng { comp; dead; lits })
  | "inc" ->
      let* comp = int_field "comp" j in
      let* lits = lits_field "lits" j in
      let* cost = float_field "cost" j in
      Ok (Inc { comp; lits; cost })
  | k -> Error (Printf.sprintf "unknown step kind %S" k)

let parse_verdict j =
  let* v = str_field "v" j in
  match v with
  | "sat" ->
      let* a = int_array_field "assignment" j in
      Ok (Sat a)
  | "unsat" -> Ok Unsat
  | "optimal" ->
      let* cost = float_field "cost" j in
      let* assignment = int_array_field "assignment" j in
      Ok (Optimal { cost; assignment })
  | "aborted" -> Ok Aborted
  | v -> Error (Printf.sprintf "unknown verdict %S" v)

let of_lines lines =
  let lines =
    List.filteri (fun _ l -> String.trim l <> "") lines
  in
  match lines with
  | [] -> Error "empty proof"
  | first :: rest -> (
      let parse_line no line k =
        match Json.parse line with
        | Error e -> Error (Printf.sprintf "line %d: %s" no e)
        | Ok j -> (
            match k j with
            | Error e -> Error (Printf.sprintf "line %d: %s" no e)
            | Ok v -> Ok v)
      in
      let* header =
        parse_line 1
          first
          (fun j ->
            let* t = str_field "t" j in
            if t <> "header" then Error "first line must be the proof header"
            else parse_header j)
      in
      let rec go no acc verdict = function
        | [] -> Ok { header; steps = List.rev acc; verdict }
        | line :: rest -> (
            match verdict with
            | Some _ -> Error (Printf.sprintf "line %d: content after the verdict" no)
            | None ->
                let* item =
                  parse_line no line (fun j ->
                      let* t = str_field "t" j in
                      if t = "verdict" then
                        let* v = parse_verdict j in
                        Ok (`Verdict v)
                      else
                        let* s = parse_step j in
                        Ok (`Step s))
                in
                (match item with
                | `Verdict v -> go (no + 1) acc (Some v) rest
                | `Step s -> go (no + 1) (s :: acc) None rest))
      in
      go 2 [] None rest)

let read path =
  match
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let lines = ref [] in
        (try
           while true do
             lines := input_line ic :: !lines
           done
         with End_of_file -> ());
        List.rev !lines)
  with
  | exception Sys_error e -> Error e
  | lines -> of_lines lines
