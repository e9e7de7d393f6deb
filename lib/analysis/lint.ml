module Program = Mlo_ir.Program
module Loop_nest = Mlo_ir.Loop_nest
module Access = Mlo_ir.Access
module Affine = Mlo_ir.Affine
module Array_info = Mlo_ir.Array_info
module Dependence = Mlo_ir.Dependence
module Nullspace = Mlo_linalg.Nullspace
module Intvec = Mlo_linalg.Intvec
module Trace = Mlo_obs.Trace
module Json = Mlo_obs.Json

type t = {
  program : string;
  arrays : int;
  nests : int;
  accesses : int;
  diagnostics : Diagnostic.t list;
}

let access_str nest a = Format.asprintf "%a" (Access.pp (Loop_nest.var_names nest)) a

(* Exact interval of an affine expression over the nest's iteration
   space: bounds are constants and the expression is affine, so the
   extremes are attained at per-loop endpoints chosen by coefficient
   sign ([lo] inclusive, [hi] exclusive).  The arithmetic is checked: an
   end that does not fit an [int] raises [Intvec.Overflow]. *)
let interval nest e =
  let loops = Loop_nest.loops nest in
  let lo = ref e.Affine.const and hi = ref e.Affine.const in
  Array.iteri
    (fun j (l : Loop_nest.loop) ->
      let c = Affine.coeff e j in
      if c > 0 then begin
        lo := Intvec.(!lo +! (c *! l.Loop_nest.lo));
        hi := Intvec.(!hi +! (c *! (l.Loop_nest.hi - 1)))
      end
      else if c < 0 then begin
        lo := Intvec.(!lo +! (c *! (l.Loop_nest.hi - 1)));
        hi := Intvec.(!hi +! (c *! l.Loop_nest.lo))
      end)
    loops;
  (!lo, !hi)

(* -- bounds: prove every access in-bounds or name the escape ---------- *)

let bounds_pass prog =
  let diags = ref [] in
  Array.iter
    (fun nest ->
      Array.iter
        (fun a ->
          let info = Program.find_array prog (Access.array_name a) in
          Array.iteri
            (fun r e ->
              let lo, hi = interval nest e in
              let extent = Array_info.extent info r in
              if lo < 0 || hi >= extent then
                diags :=
                  Diagnostic.make Diagnostic.Error ~code:"out-of-bounds"
                    ~subject:
                      (Printf.sprintf "%s/%s" (Loop_nest.name nest)
                         (Access.array_name a))
                    (Format.asprintf
                       "nest %s: %s dimension %d spans [%d, %d] outside [0, \
                        %d)"
                       (Loop_nest.name nest) (access_str nest a) r lo hi extent)
                  :: !diags)
            a.Access.indices)
        (Loop_nest.accesses nest))
    (Program.nests prog);
  !diags

(* -- liveness: dead, never-written, never-read arrays ----------------- *)

let liveness_pass prog =
  let arrays = Program.arrays prog in
  let n = Array.length arrays in
  let reads = Array.make n false and writes = Array.make n false in
  Array.iter
    (fun nest ->
      Array.iter
        (fun a ->
          let i = Program.array_index prog (Access.array_name a) in
          if Access.is_write a then writes.(i) <- true else reads.(i) <- true)
        (Loop_nest.accesses nest))
    (Program.nests prog);
  let diags = ref [] in
  Array.iteri
    (fun i info ->
      let name = Array_info.name info in
      match (reads.(i), writes.(i)) with
      | false, false ->
        diags :=
          Diagnostic.make Diagnostic.Warning ~code:"dead-array" ~subject:name
            (Printf.sprintf
               "array %s (%d bytes) is declared but referenced by no nest"
               name
               (Array_info.size_bytes info))
          :: !diags
      | true, false ->
        diags :=
          Diagnostic.make Diagnostic.Info ~code:"never-written" ~subject:name
            (Printf.sprintf
               "array %s is read but never written: values come from outside \
                the nests (input array)"
               name)
          :: !diags
      | false, true ->
        diags :=
          Diagnostic.make Diagnostic.Info ~code:"never-read" ~subject:name
            (Printf.sprintf
               "array %s is written but never read back (output array)" name)
          :: !diags
      | true, true -> ())
    arrays;
  !diags

(* -- injectivity: singular access matrices ---------------------------- *)

let injectivity_pass prog =
  let diags = ref [] in
  Array.iter
    (fun nest ->
      Array.iter
        (fun a ->
          match Nullspace.basis (Access.matrix a) with
          | [] -> ()
          | k :: _ ->
            diags :=
              Diagnostic.make Diagnostic.Info ~code:"singular-access"
                ~subject:
                  (Printf.sprintf "%s/%s" (Loop_nest.name nest)
                     (Access.array_name a))
                (Format.asprintf
                   "nest %s: access matrix of %s is singular; iterations \
                    along %a touch the same element (temporal reuse)"
                   (Loop_nest.name nest) (access_str nest a) Intvec.pp k)
              :: !diags)
        (Loop_nest.accesses nest))
    (Program.nests prog);
  !diags

(* -- pinning: nests whose dependences reject every alternative order -- *)

let pinning_pass prog =
  let diags = ref [] in
  Array.iter
    (fun nest ->
      if Loop_nest.depth nest >= 2 then
        let ds = Dependence.deps nest in
        if ds <> [] then begin
          let alternatives =
            match Loop_nest.orders nest with
            | _identity :: rest -> rest
            | [] -> []
          in
          let admits =
            Dependence.order_legal (List.map (fun (_, _, d) -> d) ds)
          in
          if alternatives <> [] && not (List.exists admits alternatives) then begin
            (* Pinned: exactly the source order is legal.  Name the
               dependence that blocks some alternative. *)
            let blocking =
              List.find_opt
                (fun (_, _, d) ->
                  List.exists
                    (fun p -> not (Dependence.dep_legal p d))
                    alternatives)
                ds
            in
            match blocking with
            | None -> ()
            | Some (i, j, d) ->
              let accs = Loop_nest.accesses nest in
              let kind a = if Access.is_write a then "write" else "read" in
              diags :=
                Diagnostic.make Diagnostic.Info ~code:"pinned-order"
                  ~subject:(Loop_nest.name nest)
                  (Format.asprintf
                     "nest %s is pinned to its source loop order: the \
                      dependence between %s (%s) and %s (%s) with %s %a \
                      blocks every alternative"
                     (Loop_nest.name nest)
                     (access_str nest accs.(i))
                     (kind accs.(i))
                     (access_str nest accs.(j))
                     (kind accs.(j))
                     (match d with
                     | Dependence.Distance _ -> "distance"
                     | Dependence.Direction _ -> "direction")
                     Dependence.pp_dep d)
                :: !diags
          end
        end)
    (Program.nests prog);
  !diags

let run prog =
  let pass name f =
    Trace.with_span ~cat:"analysis" ("lint:" ^ name) (fun () -> f prog)
  in
  let diagnostics =
    Diagnostic.sort
      (pass "bounds" bounds_pass
      @ pass "liveness" liveness_pass
      @ pass "injectivity" injectivity_pass
      @ pass "pinning" pinning_pass)
  in
  let accesses =
    Array.fold_left
      (fun acc nest -> acc + Array.length (Loop_nest.accesses nest))
      0 (Program.nests prog)
  in
  {
    program = Program.name prog;
    arrays = Array.length (Program.arrays prog);
    nests = Array.length (Program.nests prog);
    accesses;
    diagnostics;
  }

let clean t = not (List.exists Diagnostic.is_error t.diagnostics)

let pp ppf t =
  Format.fprintf ppf "@[<v>lint %s: %d arrays, %d nests, %d accesses@," t.program
    t.arrays t.nests t.accesses;
  if t.diagnostics = [] then Format.fprintf ppf "  clean@,"
  else
    List.iter
      (fun d -> Format.fprintf ppf "  %a@," Diagnostic.pp d)
      t.diagnostics;
  Format.fprintf ppf "  %d error(s), %d warning(s), %d note(s)@]"
    (Diagnostic.count Diagnostic.Error t.diagnostics)
    (Diagnostic.count Diagnostic.Warning t.diagnostics)
    (Diagnostic.count Diagnostic.Info t.diagnostics)

let to_json t =
  Json.Obj
    [
      ("program", Json.Str t.program);
      ("arrays", Json.Num (float_of_int t.arrays));
      ("nests", Json.Num (float_of_int t.nests));
      ("accesses", Json.Num (float_of_int t.accesses));
      ("diagnostics", Json.Arr (List.map Diagnostic.to_json t.diagnostics));
    ]
