module Network = Mlo_csp.Network
module Ac2001 = Mlo_csp.Ac2001
module Schemes = Mlo_csp.Schemes
module Trace = Mlo_obs.Trace
module Json = Mlo_obs.Json

type report = {
  vars : int;
  constraints : int;
  total_domain : int;
  max_degree : int;
  components : int array array;
  order : int array;
  width : int;
  induced_width : int;
  backtrack_free : bool;
  arc_inconsistent : (int * int) list;
  redundant : (int * int) list;
  wiped : int option;
  unsat_core : (int * int) list option;
  core_verified : bool option;
}

let positions net order =
  let n = Network.num_vars net in
  if Array.length order <> n then
    invalid_arg "Netcheck: order length differs from variable count";
  let pos = Array.make n (-1) in
  Array.iteri
    (fun k v ->
      if v < 0 || v >= n || pos.(v) >= 0 then
        invalid_arg "Netcheck: order is not a permutation";
      pos.(v) <- k)
    order;
  pos

let width_along net order =
  let pos = positions net order in
  let w = ref 0 in
  Array.iter
    (fun v ->
      let earlier =
        Array.fold_left
          (fun acc j -> if pos.(j) < pos.(v) then acc + 1 else acc)
          0 (Network.neighbors net v)
      in
      if earlier > !w then w := earlier)
    order;
  !w

(* Simulate adaptive consistency's elimination in reverse order: each
   variable's earlier neighbours ("parents") are connected pairwise
   before moving on, and the induced width is the largest parent set
   seen.  Adjacency grows with fill-in, so it is kept as mutable sets. *)
let induced_width_along net order =
  let n = Network.num_vars net in
  let pos = positions net order in
  let module IS = Set.Make (Int) in
  let adj =
    Array.init n (fun v ->
        Array.fold_left (Fun.flip IS.add) IS.empty (Network.neighbors net v))
  in
  let w = ref 0 in
  for k = n - 1 downto 0 do
    let v = order.(k) in
    let parents = IS.filter (fun j -> pos.(j) < k) adj.(v) in
    let card = IS.cardinal parents in
    if card > !w then w := card;
    IS.iter
      (fun a ->
        IS.iter
          (fun b ->
            if a <> b then begin
              adj.(a) <- IS.add b adj.(a);
              adj.(b) <- IS.add a adj.(b)
            end)
          parents)
      parents
  done;
  !w

(* -- arc consistency probes ------------------------------------------ *)

let wipes net =
  match Ac2001.run (Network.compile net) with
  | Error i -> Some i
  | Ok _ -> None

(* Rebuild the network keeping only the given constrained pairs. *)
let with_constraints net pairs =
  let n = Network.num_vars net in
  let names = Array.init n (Network.name net) in
  let domains = Array.init n (Network.domain net) in
  let sub = Network.create ~names ~domains in
  List.iter
    (fun (i, j) ->
      let ps = ref [] in
      for vi = 0 to Network.domain_size net i - 1 do
        for vj = 0 to Network.domain_size net j - 1 do
          if Network.allowed net i vi j vj then ps := (vi, vj) :: !ps
        done
      done;
      Network.add_allowed sub i j !ps)
    pairs;
  sub

let unsat_core net =
  match wipes net with
  | None -> None
  | Some _ ->
    (* Deletion-based minimization: drop each constraint in turn and
       keep the drop whenever propagation still wipes without it.  The
       survivors form an irreducible core. *)
    let all = Network.constraint_pairs net in
    let kept = ref all in
    List.iter
      (fun c ->
        let trial = List.filter (fun c' -> c' <> c) !kept in
        match wipes (with_constraints net trial) with
        | Some _ -> kept := trial
        | None -> ())
      all;
    let wiped_var =
      match wipes (with_constraints net !kept) with
      | Some i -> i
      | None -> assert false (* the full set wipes and drops preserved it *)
    in
    Some (!kept, wiped_var)

let redundant_pairs net =
  List.filter
    (fun (i, j) ->
      let dj = Network.domain_size net j in
      let complete = ref true in
      for vi = 0 to Network.domain_size net i - 1 do
        if Network.support_count net i vi j <> dj then complete := false
      done;
      !complete)
    (Network.constraint_pairs net)

let analyze net =
  let pass name f = Trace.with_span ~cat:"analysis" ("netcheck:" ^ name) f in
  let n = Network.num_vars net in
  let components = pass "components" (fun () -> Network.components net) in
  Trace.counter ~cat:"analysis" "components"
    [ ("count", float_of_int (Array.length components)) ];
  let order =
    pass "order" (fun () -> Schemes.most_constraining_order net)
  in
  let width, induced_width =
    pass "width" (fun () ->
        (width_along net order, induced_width_along net order))
  in
  let arc_inconsistent, wiped =
    match
      pass "arc-consistency" (fun () -> Ac2001.deletions (Network.compile net))
    with
    | Ok dels -> (dels, None)
    | Error i -> ([], Some i)
  in
  let unsat_core =
    match wiped with
    | None -> None
    | Some _ -> pass "unsat-core" (fun () -> Option.map fst (unsat_core net))
  in
  let core_verified =
    (* independent confirmation: the certificate checker's own
       propagation core, restricted to exactly the core's constraints,
       must reproduce the wipe-out *)
    Option.map
      (fun core ->
        pass "core-verify" (fun () ->
            Mlo_verify.Checker.refutes ~only:core net))
      unsat_core
  in
  let redundant = pass "redundant" (fun () -> redundant_pairs net) in
  let max_degree = ref 0 in
  for i = 0 to n - 1 do
    if Network.degree net i > !max_degree then max_degree := Network.degree net i
  done;
  {
    vars = n;
    constraints = Network.num_constraints net;
    total_domain = Network.total_domain_size net;
    max_degree = !max_degree;
    components;
    order;
    width;
    induced_width;
    backtrack_free = width <= 1 && wiped = None;
    arc_inconsistent;
    redundant;
    wiped;
    unsat_core;
    core_verified;
  }

(* -- rendering -------------------------------------------------------- *)

let pair_str ~name (i, j) = Printf.sprintf "%s-%s" (name i) (name j)

let diagnostics ~name r =
  let diags = ref [] in
  let add d = diags := d :: !diags in
  (match r.wiped with
  | Some i ->
    add
      (Diagnostic.make Diagnostic.Error ~code:"domain-wipeout"
         ~subject:(name i)
         (Printf.sprintf
            "variable %s has no arc-consistent value: the network is \
             unsatisfiable"
            (name i)));
    (match r.unsat_core with
    | Some core ->
      add
        (Diagnostic.make Diagnostic.Error ~code:"unsat-core"
           ~subject:(match r.wiped with Some i -> name i | None -> "")
           (Printf.sprintf "minimal unsat core (%d constraints): %s%s"
              (List.length core)
              (String.concat ", " (List.map (pair_str ~name) core))
              (match r.core_verified with
              | Some true -> " (independently verified)"
              | Some false -> " (VERIFICATION FAILED)"
              | None -> "")))
    | None -> ())
  | None -> ());
  if Array.length r.components > 1 then
    add
      (Diagnostic.make Diagnostic.Info ~code:"components" ~subject:"network"
         (Printf.sprintf
            "constraint graph splits into %d independent subnetworks \
             (component-wise search applies)"
            (Array.length r.components)));
  if r.backtrack_free then
    add
      (Diagnostic.make Diagnostic.Info ~code:"backtrack-free"
         ~subject:"network"
         (Printf.sprintf
            "width %d < 2 along the most-constraining order: with \
             arc-consistency preprocessing the search is backtrack-free \
             (Freuder)"
            r.width));
  (let by_var = Hashtbl.create 8 in
   List.iter
     (fun (i, _) ->
       Hashtbl.replace by_var i (1 + Option.value ~default:0 (Hashtbl.find_opt by_var i)))
     r.arc_inconsistent;
   Hashtbl.fold (fun i c acc -> (i, c) :: acc) by_var []
   |> List.sort compare
   |> List.iter (fun (i, c) ->
          add
            (Diagnostic.make Diagnostic.Info ~code:"arc-inconsistent"
               ~subject:(name i)
               (Printf.sprintf
                  "%d value(s) of %s are arc-inconsistent: AC-2001 removes \
                   them before search"
                  c (name i)))));
  List.iter
    (fun p ->
      add
        (Diagnostic.make Diagnostic.Info ~code:"redundant-constraint"
           ~subject:(pair_str ~name p)
           (Printf.sprintf
              "constraint %s allows every value pair: it never prunes"
              (pair_str ~name p))))
    r.redundant;
  Diagnostic.sort (List.rev !diags)

let pp ~name ppf r =
  Format.fprintf ppf
    "@[<v>network: %d variables, %d constraints, total domain %d, max degree \
     %d@,"
    r.vars r.constraints r.total_domain r.max_degree;
  Format.fprintf ppf "components: %d@," (Array.length r.components);
  Array.iteri
    (fun k c ->
      Format.fprintf ppf "  #%d (%d): %s@," k (Array.length c)
        (String.concat " " (Array.to_list (Array.map name c))))
    r.components;
  Format.fprintf ppf
    "width: %d, induced width: %d (most-constraining order)@," r.width
    r.induced_width;
  Format.fprintf ppf "backtrack-free: %b@," r.backtrack_free;
  Format.fprintf ppf "arc-inconsistent values: %d, redundant constraints: %d@,"
    (List.length r.arc_inconsistent)
    (List.length r.redundant);
  (match r.wiped with
  | Some i -> Format.fprintf ppf "wiped: %s (unsatisfiable)@," (name i)
  | None -> ());
  List.iter
    (fun d -> Format.fprintf ppf "%a@," Diagnostic.pp d)
    (diagnostics ~name r);
  Format.fprintf ppf "@]"

let to_json ~name r =
  let num i = Json.Num (float_of_int i) in
  Json.Obj
    [
      ("vars", num r.vars);
      ("constraints", num r.constraints);
      ("total_domain", num r.total_domain);
      ("max_degree", num r.max_degree);
      ( "components",
        Json.Arr
          (Array.to_list
             (Array.map
                (fun c ->
                  Json.Arr
                    (Array.to_list (Array.map (fun v -> Json.Str (name v)) c)))
                r.components)) );
      ( "order",
        Json.Arr (Array.to_list (Array.map (fun v -> Json.Str (name v)) r.order))
      );
      ("width", num r.width);
      ("induced_width", num r.induced_width);
      ("backtrack_free", Json.Bool r.backtrack_free);
      ( "arc_inconsistent",
        Json.Arr
          (List.map
             (fun (i, v) ->
               Json.Obj [ ("var", Json.Str (name i)); ("value", num v) ])
             r.arc_inconsistent) );
      ( "redundant",
        Json.Arr
          (List.map (fun p -> Json.Str (pair_str ~name p)) r.redundant) );
      ( "wiped",
        match r.wiped with Some i -> Json.Str (name i) | None -> Json.Null );
      ( "unsat_core",
        match r.unsat_core with
        | Some core ->
          Json.Arr (List.map (fun p -> Json.Str (pair_str ~name p)) core)
        | None -> Json.Null );
      ( "core_verified",
        match r.core_verified with
        | Some b -> Json.Bool b
        | None -> Json.Null );
      ("diagnostics", Json.Arr (List.map Diagnostic.to_json (diagnostics ~name r)));
    ]
