(* End-to-end request benchmark.

   One client issues whole optimization requests back to back (a closed
   loop, serial solves) and checks every answer.  Each op parses its
   program from .mlo source rendered at set-up, so it pays what a CLI
   process pays.  Workloads run in blocks (one op per program, in a
   seeded order); each block starts from a compacted heap, and rounds
   interleave the workloads with a rotating start so slow spells on a
   shared machine hit them alike.  The traced replay issues the same
   requests one layer call at a time under spans owned by this harness
   ({!Stage}).

   Modes (see README.md):
     e2e.exe [--seed S] [--out FILE] [--traced TRACE.json] [--smoke]
     e2e.exe --workload NAME --seconds N [--trace 0|1] [--seed S]
     e2e.exe --compare BASE.json NEW.json *)

module Json = Mlo_obs.Json
module Clock = Mlo_csp.Clock
module Network = Mlo_csp.Network
module W = Workload

let schema = "memlayout-e2e/1"

(* ------------------------------------------------------------------ *)
(* Statistics                                                           *)
(* ------------------------------------------------------------------ *)

let percentile q xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let lo = int_of_float pos in
    let hi = min (lo + 1) (n - 1) in
    let frac = pos -. float_of_int lo in
    (a.(lo) *. (1. -. frac)) +. (a.(hi) *. frac)

let median = percentile 0.5

let mean = function
  | [] -> nan
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let ms ns = float_of_int ns /. 1e6
let mb words = words *. float_of_int (Sys.word_size / 8) /. 1e6

(* ------------------------------------------------------------------ *)
(* Per-workload run state                                               *)
(* ------------------------------------------------------------------ *)

(* [epoch] and [at] count the calibrations taken before the sample. *)
type sample = { ns : int; words : float; epoch : int }

type traced = { span_ns : int; op : Stage.op; parsed_bytes : int; at : int }

type state = {
  w : W.t;
  programs : W.program array;
  setup_s : (float * int) list;  (** seconds, epoch *)
  rng : Random.State.t;
  untraced : sample list array;  (** per program, newest first *)
  traced : traced list array;
  first : W.answer option array;  (** first answer per program *)
  mutable attempted : int;
  mutable failed : int;
  mutable errors : string list;
}

(* A fixed allocation-heavy kernel that uses no repository code, timed
   before every set-up and every round and once at the end.  The shared
   machine's speed drifts by about 10% over minutes, and this kernel
   drifts with it, so every reported time is scaled by [calib_ref_ms]
   over the mean of the two calibrations around it: milliseconds at
   the speed where the kernel takes 5 ms.  Everything it allocates dies
   young, so its time does not depend on how much the run keeps live;
   it starts after a full major collection, so it pays for no major
   work the ops before it left. *)
let calibs = ref []
let ncalibs = ref 0
let calib_ref_ms = 5.0

let calib () =
  Gc.full_major ();
  let t0 = Clock.wall_ns () in
  let acc = ref 0 in
  for i = 1 to 2_000 do
    let l = List.init 64 (fun j -> j * i land 1023) in
    acc := !acc + List.fold_left ( + ) 0 (List.sort compare l)
  done;
  ignore (Sys.opaque_identity !acc);
  calibs := ms (Clock.wall_ns () - t0) :: !calibs;
  incr ncalibs

(* The scale of a time taken at [epoch], once the run has ended. *)
let scaler () =
  let c = Array.of_list (List.rev !calibs) in
  fun epoch ->
    let around =
      if epoch < Array.length c then (c.(epoch - 1) +. c.(epoch)) /. 2. else c.(epoch - 1)
    in
    calib_ref_ms /. around

let init ~seed ~setups (w : W.t) =
  let setup () =
    calib ();
    let t0 = Clock.wall_ns () in
    let programs = W.setup w.W.kind ~seed in
    (programs, (float_of_int (Clock.wall_ns () - t0) /. 1e9, !ncalibs))
  in
  let runs = List.init setups (fun _ -> setup ()) in
  let programs = fst (List.hd runs) in
  let n = Array.length programs in
  {
    w;
    programs;
    setup_s = List.map snd runs;
    rng = Random.State.make [| seed; Hashtbl.hash w.W.name |];
    untraced = Array.make n [];
    traced = Array.make n [];
    first = Array.make n None;
    attempted = 0;
    failed = 0;
    errors = [];
  }

let judge st i answer =
  st.attempted <- st.attempted + 1;
  let verdict =
    match answer with
    | Error e -> Some (st.programs.(i).W.label ^ ": raised " ^ e)
    | Ok a ->
      if st.first.(i) = None then st.first.(i) <- Some a;
      W.check_answer st.w.W.kind st.programs.(i) a
  in
  match verdict with
  | None -> ()
  | Some e ->
    st.failed <- st.failed + 1;
    if List.length st.errors < 5 then st.errors <- e :: st.errors

let untraced_op st i =
  let p = st.programs.(i) in
  let w0 = Stage.words () in
  let t0 = Clock.wall_ns () in
  let answer =
    match W.run st.w.W.kind p with
    | a -> Ok a
    | exception e -> Error (Printexc.to_string e)
  in
  let t1 = Clock.wall_ns () in
  let words = Stage.words () -. w0 in
  (answer, { ns = t1 - t0; words; epoch = !ncalibs })

let traced_op st i =
  let p = st.programs.(i) in
  match
    Stage.with_op ~workload:st.w.W.name ~program:p.W.label (fun op ->
        W.replay st.w.W.kind p op)
  with
  | (answer, prog), op, span_ns ->
    W.deps op prog;
    let parsed_bytes =
      String.length p.W.source
      + (match answer.W.cycles with Some _ -> String.length p.W.sim_source | None -> 0)
    in
    (Ok answer, Some { span_ns; op; parsed_bytes; at = !ncalibs })
  | exception e -> (Error (Printexc.to_string e), None)

let order st =
  let a = Array.init (Array.length st.programs) Fun.id in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st.rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* One op per program, from a compacted heap. *)
let block ?(record = true) st ~traced =
  Gc.compact ();
  Array.iter
    (fun i ->
      if traced then begin
        let answer, t = traced_op st i in
        if record then begin
          judge st i answer;
          Option.iter (fun t -> st.traced.(i) <- t :: st.traced.(i)) t
        end
      end
      else begin
        let answer, s = untraced_op st i in
        if record then begin
          judge st i answer;
          st.untraced.(i) <- s :: st.untraced.(i)
        end
      end)
    (order st)

type stop = Ops | Deadline of int | Rounds of int

(* Warm-up (untimed), then rounds of one block per live workload with a
   rotating start, each preceded by the calibration kernel. *)
let schedule states ~warmup ~traced ~stop =
  if warmup then
    List.iter
      (fun st ->
        block ~record:false st ~traced:false;
        if traced then block ~record:false st ~traced:true)
      states;
  let deadline =
    match stop with
    | Deadline s -> Clock.wall_ns () + (s * 1_000_000_000)
    | Ops | Rounds _ -> max_int
  in
  let live st =
    match stop with
    | Ops -> List.length st.untraced.(0) < st.w.W.ops / Array.length st.programs
    | Deadline _ | Rounds _ -> true
  in
  let rec round r =
    let states = List.filter live states in
    let finished =
      states = []
      ||
      match stop with
      | Rounds k -> r >= k
      | Deadline _ -> r > 0 && Clock.wall_ns () >= deadline
      | Ops -> false
    in
    if not finished then begin
      calib ();
      let k = r mod List.length states in
      let rotated = List.filteri (fun i _ -> i >= k) states @ List.filteri (fun i _ -> i < k) states in
      List.iter
        (fun st ->
          block st ~traced:false;
          if traced then block st ~traced:true)
        rotated;
      round (r + 1)
    end
  in
  round 0;
  calib ()

(* ------------------------------------------------------------------ *)
(* Metrics                                                              *)
(* ------------------------------------------------------------------ *)

type metric = { name : string; value : float; unit_ : string }

(* Mean over the workload's programs of a per-program figure, so every
   program weighs the same whatever its op count. *)
let over_programs st f =
  mean (List.filter_map f (Array.to_list (Array.mapi (fun i _ -> i) st.programs)))

let per_program_latency ?(scale = fun _ -> 1.0) st q =
  over_programs st (fun i ->
      match st.untraced.(i) with
      | [] -> None
      | xs -> Some (percentile q (List.map (fun s -> ms s.ns *. scale s.epoch) xs)))

let qualities st =
  Array.to_list st.programs
  |> List.mapi (fun i p ->
         match st.first.(i) with
         | Some { W.layouts = Some layouts; _ } -> Some (W.quality p layouts)
         | _ -> None)
  |> List.filter_map Fun.id

(* Times are scaled by [scale] (see {!calib}). *)
let end_to_end st ~scale =
  let q = qualities st in
  let sum f = List.fold_left (fun acc x -> acc +. f x) 0.0 q in
  [
    {
      name = "setup_s";
      value = median (List.map (fun (s, e) -> s *. scale e) st.setup_s);
      unit_ = "s";
    };
    { name = "latency_ms.p50"; value = per_program_latency ~scale st 0.5; unit_ = "ms" };
    {
      name = "alloc_mb_per_op";
      value =
        over_programs st (fun i ->
            match st.untraced.(i) with
            | [] -> None
            | xs -> Some (mb (mean (List.map (fun s -> s.words) xs))));
      unit_ = "MB";
    };
    {
      name = "est_misses_ratio";
      value = sum (fun x -> x.W.est_misses) /. sum (fun x -> x.W.est_misses_default);
      unit_ = "ratio";
    };
    {
      name = "sim_cycles_ratio";
      value =
        sum (fun x -> float_of_int x.W.sim_cycles)
        /. sum (fun x -> float_of_int x.W.sim_cycles_original);
      unit_ = "ratio";
    };
  ]

let per_layer st ~scale =
  let traced f =
    over_programs st (fun i ->
        match st.traced.(i) with [] -> None | ts -> Some (f ts))
  in
  let stage_times s = List.map (fun t -> ms t.op.Stage.ns.(Stage.index s) *. scale t.at) in
  let stage_ms s = traced (fun ts -> median (stage_times s ts)) in
  let stage_mean_ms s = traced (fun ts -> mean (stage_times s ts)) in
  let times =
    List.concat_map
      (fun s ->
        [
          { name = Stage.name s ^ "_ms"; value = stage_ms s; unit_ = "ms" };
          {
            name = Stage.name s ^ "_alloc_mb";
            value =
              traced (fun ts ->
                  mb (mean (List.map (fun t -> t.op.Stage.stage_words.(Stage.index s)) ts)));
            unit_ = "MB";
          };
        ])
      Stage.all
  in
  let counts =
    List.map
      (fun c ->
        {
          name = Stage.counter_name c;
          value =
            traced (fun ts ->
                mean
                  (List.map
                     (fun t -> float_of_int t.op.Stage.counts.(Stage.counter_index c))
                     ts));
          unit_ = "count";
        })
      Stage.counters
  in
  let parse_rate =
    traced (fun ts ->
        let kb = mean (List.map (fun t -> float_of_int t.parsed_bytes /. 1e3) ts) in
        kb /. (median (stage_times Stage.Parse ts) /. 1e3))
  in
  let untraced_mean =
    over_programs st (fun i ->
        match st.untraced.(i) with
        | [] -> None
        | xs -> Some (mean (List.map (fun s -> ms s.ns *. scale s.epoch) xs)))
  in
  let in_op = List.filter (fun s -> s <> Stage.Deps) Stage.all in
  let covered = List.fold_left (fun acc s -> acc +. stage_mean_ms s) 0.0 in_op in
  let traced_p50 =
    traced (fun ts -> median (List.map (fun t -> ms t.span_ns *. scale t.at) ts))
  in
  times @ counts
  @ [
      { name = "lang.parse_kb_s"; value = parse_rate; unit_ = "kB/s" };
      {
        name = "core.unaccounted_pct";
        value = 100. *. (1. -. (covered /. untraced_mean));
        unit_ = "%";
      };
      {
        name = "trace.overhead_pct";
        value = 100. *. ((traced_p50 /. per_program_latency ~scale st 0.5) -. 1.);
        unit_ = "%";
      };
    ]

(* ------------------------------------------------------------------ *)
(* Goldens                                                              *)
(* ------------------------------------------------------------------ *)

let read_json path =
  match Json.parse_file path with
  | Ok j -> j
  | Error e ->
    Printf.eprintf "e2e: cannot read %s: %s\n" path e;
    exit 2

(* [at j ["a"; "b"]] is [j.a.b], if there. *)
let rec at j = function
  | [] -> Some j
  | k :: ks -> Option.bind (Json.member k j) (fun x -> at x ks)

let verdict (a : W.answer) = if a.W.layouts = None then "unsat" else "sat"

(* Compares the seed-0 answers with the hand-written goldens; every
   mismatch fails the run. *)
let check_goldens expected st =
  Array.iteri
    (fun i p ->
      let golden = at expected [ "workloads"; st.w.W.name; p.W.label ] in
      let fail what =
        st.failed <- st.failed + 1;
        st.errors <- Printf.sprintf "%s: golden %s differs" p.W.label what :: st.errors
      in
      let num key = Option.bind golden (fun g -> Option.bind (at g [ key ]) Json.to_float) in
      let expect key actual =
        match (num key, actual) with
        | None, _ -> ()
        | Some e, Some a when Float.abs (e -. a) <= 1e-9 *. Float.max 1.0 (Float.abs e) -> ()
        | Some _, _ -> fail key
      in
      match (golden, st.first.(i)) with
      | None, _ -> fail "entry (missing)"
      | Some _, None -> fail "answer (no op ran)"
      | Some g, Some a ->
        if Option.bind (at g [ "verdict" ]) Json.to_str <> Some (verdict a) then
          fail "verdict";
        expect "domain_values" (Some (float_of_int (Network.total_domain_size p.W.net)));
        expect "checks" (Option.map float_of_int a.W.checks);
        expect "objective" a.W.objective;
        expect "sim_cycles" (Option.map float_of_int a.W.cycles))
    st.programs

(* ------------------------------------------------------------------ *)
(* Output                                                               *)
(* ------------------------------------------------------------------ *)

let metric_json ms =
  Json.Obj
    (List.map
       (fun m -> (m.name, Json.Obj [ ("value", Json.Num m.value); ("unit", Json.Str m.unit_) ]))
       ms)

let print_rows title rows =
  match rows with
  | [] -> ()
  | (_, first) :: _ ->
    Printf.printf "%s\n  %-16s" title "workload";
    List.iter (fun m -> Printf.printf " %22s" (Printf.sprintf "%s [%s]" m.name m.unit_)) first;
    print_newline ();
    List.iter
      (fun (name, ms) ->
        Printf.printf "  %-16s" name;
        List.iter (fun m -> Printf.printf " %22.6g" m.value) ms;
        print_newline ())
      rows

(* Per-layer metrics, one row per metric and a column per workload. *)
let print_layers rows =
  match rows with
  | [] -> ()
  | (_, first) :: _ ->
    Printf.printf "per layer (traced replay)\n  %-36s" "metric [unit]";
    List.iter (fun (name, _) -> Printf.printf " %16s" name) rows;
    print_newline ();
    List.iteri
      (fun k m ->
        Printf.printf "  %-36s" (Printf.sprintf "%s [%s]" m.name m.unit_);
        List.iter (fun (_, ms) -> Printf.printf " %16.6g" (List.nth ms k).value) rows;
        print_newline ())
      first

let print_programs st =
  Array.iteri
    (fun i p ->
      let xs = List.map (fun s -> ms s.ns) st.untraced.(i) in
      Printf.printf "  %-16s %-14s n=%-4d wall p50=%9.3f ms  p90=%9.3f ms\n" st.w.W.name p.W.label
        (List.length xs) (median xs) (percentile 0.9 xs))
    st.programs

let program_json st i p =
  let xs = List.map (fun s -> ms s.ns) st.untraced.(i) in
  let opt f = function Some x -> f x | None -> Json.Null in
  let a = st.first.(i) in
  Json.Obj
    [
      ("samples", Json.Num (float_of_int (List.length xs)));
      ("p50_ms", Json.Num (median xs));
      ("p90_ms", Json.Num (percentile 0.9 xs));
      ("verdict", opt (fun a -> Json.Str (verdict a)) a);
      ("domain_values", Json.Num (float_of_int (Network.total_domain_size p.W.net)));
      ("checks", opt (fun a -> opt (fun c -> Json.Num (float_of_int c)) a.W.checks) a);
      ("objective", opt (fun a -> opt (fun c -> Json.Num c) a.W.objective) a);
      ("sim_cycles", opt (fun a -> opt (fun c -> Json.Num (float_of_int c)) a.W.cycles) a);
    ]

let result_json ~seed ~mode rows =
  let calibs = !calibs in
  Json.Obj
    [
      ("schema", Json.Str schema);
      ("seed", Json.Num (float_of_int seed));
      ("mode", Json.Str mode);
      ( "calib_ms",
        Json.Obj
          [
            ("p50", Json.Num (median calibs));
            ( "iqr_frac",
              Json.Num ((percentile 0.75 calibs -. percentile 0.25 calibs) /. median calibs) );
            ("samples", Json.Num (float_of_int (List.length calibs)));
          ] );
      ("speed_factor", Json.Num (calib_ref_ms /. median calibs));
      ( "workloads",
        Json.Obj
          (List.map
             (fun (st, e2e, layers) ->
               ( st.w.W.name,
                 Json.Obj
                   ([
                      ("attempted", Json.Num (float_of_int st.attempted));
                      ("failed", Json.Num (float_of_int st.failed));
                      ( "failed_frac",
                        Json.Num (float_of_int st.failed /. float_of_int (max 1 st.attempted)) );
                      ("wall_latency_ms.p50", Json.Num (per_program_latency st 0.5));
                      ("wall_latency_ms.p90", Json.Num (per_program_latency st 0.9));
                      ("metrics", metric_json e2e);
                    ]
                   @ (match layers with [] -> [] | l -> [ ("per_layer", metric_json l) ])
                   @ [
                       ( "programs",
                         Json.Obj
                           (Array.to_list
                              (Array.mapi (fun i p -> (p.W.label, program_json st i p)) st.programs))
                       );
                     ]) ))
             rows) );
    ]

let report_errors states =
  List.iter
    (fun st ->
      List.iter (fun e -> Printf.eprintf "e2e: %s: %s\n" st.w.W.name e) (List.rev st.errors))
    states

(* ------------------------------------------------------------------ *)
(* Compare                                                              *)
(* ------------------------------------------------------------------ *)

type bound = { better_lower : bool; bound : float }

let bounds benchmark =
  let j = read_json benchmark in
  match Option.bind (at j [ "end_to_end" ]) Json.to_list with
  | None ->
    Printf.eprintf "e2e: %s has no end_to_end list\n" benchmark;
    exit 2
  | Some ms ->
    List.filter_map
      (fun m ->
        match
          ( Option.bind (at m [ "name" ]) Json.to_str,
            Option.bind (at m [ "better" ]) Json.to_str,
            Option.bind (at m [ "bound" ]) Json.to_float )
        with
        | Some n, Some b, Some x -> Some (n, { better_lower = b = "lower"; bound = x })
        | _ -> None)
      ms

let compare_runs ~benchmark base_file new_file =
  let bounds = bounds benchmark in
  let base = read_json base_file and next = read_json new_file in
  let calib j = Option.bind (at j [ "calib_ms"; "p50" ]) Json.to_float in
  let value j w m = Option.bind (at j [ "workloads"; w; "metrics"; m; "value" ]) Json.to_float in
  Printf.printf "  %-16s %-18s %14s %14s %8s %7s\n" "workload" "metric" "base" "new" "ratio" "bound";
  let worse = ref 0 in
  List.iter
    (fun (w : W.t) ->
      List.iter
        (fun (m, b) ->
          match (value base w.W.name m, value next w.W.name m) with
          | Some x, Some y ->
            let bad = if b.better_lower then y > x *. (1. +. b.bound) else y < x *. (1. -. b.bound) in
            if bad then incr worse;
            Printf.printf "  %-16s %-18s %14.6g %14.6g %8.4f %6.0f%%%s\n" w.W.name m x y (y /. x)
              (100. *. b.bound)
              (if bad then "  WORSE" else "")
          | _ -> ())
        bounds)
    W.all;
  (match (calib base, calib next) with
  | Some x, Some y ->
    Printf.printf "  calib_ms (run health, not a metric): base %.4g new %.4g ratio %.4f\n" x y (y /. x)
  | _ -> ());
  if !worse > 0 then begin
    Printf.printf "%d (metric, workload) pairs worse than their bound\n" !worse;
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Main                                                                 *)
(* ------------------------------------------------------------------ *)

type opts = {
  mutable seed : int;
  mutable out : string option;
  mutable traced_file : string option;
  mutable smoke : bool;
  mutable workload : string option;
  mutable seconds : int;
  mutable trace : bool;
  mutable benchmark : string;
  mutable expected : string;
}

let usage () =
  prerr_endline
    "usage: e2e [--seed S] [--out FILE] [--traced TRACE.json] [--smoke]\n\
    \       e2e --workload NAME --seconds N [--trace 0|1] [--seed S]\n\
    \       e2e --compare BASE.json NEW.json\n\
     options: --benchmark FILE (default BENCHMARK.json), --expected FILE\n\
    \         (default bench/e2e/expected_seed0.json)";
  exit 2

let parse_args () =
  let o =
    {
      seed = 0;
      out = None;
      traced_file = None;
      smoke = false;
      workload = None;
      seconds = 20;
      trace = false;
      benchmark = "BENCHMARK.json";
      expected = "bench/e2e/expected_seed0.json";
    }
  in
  let int s = match int_of_string_opt s with Some n -> n | None -> usage () in
  let rec go = function
    | [] -> `Run o
    | "--compare" :: base :: next :: rest ->
      ignore (go rest);
      `Compare (base, next, o)
    | "--seed" :: s :: rest -> o.seed <- int s; go rest
    | "--out" :: f :: rest -> o.out <- Some f; go rest
    | "--traced" :: f :: rest -> o.traced_file <- Some f; go rest
    | "--smoke" :: rest -> o.smoke <- true; go rest
    | "--workload" :: w :: rest -> o.workload <- Some w; go rest
    | "--seconds" :: s :: rest -> o.seconds <- max 1 (int s); go rest
    | "--trace" :: ("0" | "1" as t) :: rest -> o.trace <- t = "1"; go rest
    | "--benchmark" :: f :: rest -> o.benchmark <- f; go rest
    | "--expected" :: f :: rest -> o.expected <- f; go rest
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv))

(* Every metric BENCHMARK.json names must be in the result. *)
let missing_metrics benchmark result =
  let j = read_json benchmark in
  let names key =
    Option.value ~default:[] (Option.bind (at j [ key ]) Json.to_list)
    |> List.filter_map (fun m -> Option.bind (at m [ "name" ]) Json.to_str)
  in
  List.concat_map
    (fun (w : W.t) ->
      List.concat_map
        (fun (section, key) ->
          List.filter_map
            (fun n ->
              if at result [ "workloads"; w.W.name; section; n ] = None then
                Some (w.W.name ^ "/" ^ n)
              else None)
            (names key))
        [ ("metrics", "end_to_end"); ("per_layer", "per_layer") ])
    W.all

let main o =
  let cpu0 = Sys.time () in
  let workloads =
    match o.workload with
    | None -> W.all
    | Some name -> (
      match W.find name with
      | Some w -> [ w ]
      | None ->
        Printf.eprintf "e2e: unknown workload '%s' (valid: %s)\n" name
          (String.concat ", " (List.map (fun (w : W.t) -> w.W.name) W.all));
        exit 2)
  in
  let seed = if o.smoke then 0 else o.seed in
  let traced = o.smoke || o.trace || o.traced_file <> None in
  if o.traced_file <> None then Stage.start_trace ();
  let states =
    List.map (fun w -> init ~seed ~setups:(if o.smoke then 1 else 5) w) workloads
  in
  let stop =
    if o.smoke then Rounds 1
    else if o.workload <> None then Deadline o.seconds
    else Ops
  in
  schedule states ~warmup:(not o.smoke) ~traced ~stop;
  let scale = scaler () in
  let want_e2e = not (o.workload <> None && o.trace) in
  let rows =
    List.map
      (fun st ->
        ( st,
          (if want_e2e then end_to_end st ~scale else []),
          if traced then per_layer st ~scale else [] ))
      states
  in
  let golden = seed = 0 && (o.smoke || Sys.file_exists o.expected) in
  if golden then begin
    let expected = read_json o.expected in
    List.iter (check_goldens expected) states
  end;
  if not o.smoke then begin
    List.iter print_programs states;
    print_rows "end to end"
      (List.filter_map (fun (st, e, _) -> if e = [] then None else Some (st.w.W.name, e)) rows);
    print_layers
      (List.filter_map (fun (st, _, l) -> if l = [] then None else Some (st.w.W.name, l)) rows);
    Printf.printf
      "calib_ms (run health, not a metric): p50 %.4g over %d samples; end-to-end \
       and per-layer times are scaled to a %.1f ms calibration\n"
      (median !calibs) (List.length !calibs) calib_ref_ms
  end;
  let mode = if o.smoke then "smoke" else if o.workload <> None then "timed" else "full" in
  let result = result_json ~seed ~mode rows in
  let out =
    match o.out with
    | Some f -> Some f
    | None -> if o.smoke || o.workload <> None then None else Some "e2e-result.json"
  in
  Option.iter
    (fun f ->
      let oc = open_out f in
      output_string oc (Json.to_string result);
      output_char oc '\n';
      close_out oc;
      Printf.printf "wrote %s\n" f)
    out;
  Option.iter
    (fun f ->
      Stage.write_trace f;
      Printf.printf "wrote trace %s\n" f)
    o.traced_file;
  report_errors states;
  let attempted = List.fold_left (fun acc st -> acc + st.attempted) 0 states in
  let failed = List.fold_left (fun acc st -> acc + st.failed) 0 states in
  let smoke_ok =
    if not o.smoke then true
    else begin
      let missing = missing_metrics o.benchmark result in
      List.iter (fun m -> Printf.eprintf "e2e: smoke: metric %s missing from the result\n" m) missing;
      (* CPU time, speed-scaled like every other time, so that a busy
         spell on a shared machine does not fail the check *)
      let cpu = (Sys.time () -. cpu0) *. calib_ref_ms /. median !calibs in
      if cpu >= 15.0 then Printf.eprintf "e2e: smoke: took %.1f s, over 15 s\n" cpu;
      Printf.printf "e2e smoke: %d ops, %d failed, goldens %s, %d metrics missing, %.1f s\n"
        attempted failed (if golden then "checked" else "skipped") (List.length missing) cpu;
      missing = [] && cpu < 15.0
    end
  in
  let correct = failed = 0 && smoke_ok in
  (match o.workload with
  | None -> ()
  | Some _ ->
    let metrics = List.concat_map (fun (_, e, l) -> if o.trace then l else e) rows in
    print_endline
      (Json.to_string
         (Json.Obj
            [
              ("correct", Json.Bool correct);
              ("attempted", Json.Num (float_of_int attempted));
              ("failed", Json.Num (float_of_int failed));
              ("metrics", metric_json metrics);
            ])));
  if not correct then exit 1

let () =
  match parse_args () with
  | `Compare (base, next, o) -> compare_runs ~benchmark:o.benchmark base next
  | `Run o -> (
    try main o
    with Failure msg ->
      Printf.eprintf "e2e: %s\n" msg;
      exit 2)
