(* Per-stage spans recorded by the benchmark around its own calls into
   each layer's public functions.  The library is not instrumented: the
   traced replay issues a request one layer call at a time and brackets
   every call here, accumulating wall time, allocation and effort
   counts per stage for the op.  Spans are buffered in memory as Chrome
   trace_event JSON and written out when the run ends. *)

module Clock = Mlo_csp.Clock

type t =
  | Parse
  | Deps
  | Build
  | Profile
  | Prune
  | Compile
  | Search
  | Unsat_core
  | Restructure
  | Digest
  | Check
  | Simulate

let all =
  [
    Parse;
    Deps;
    Build;
    Profile;
    Prune;
    Compile;
    Search;
    Unsat_core;
    Restructure;
    Digest;
    Check;
    Simulate;
  ]

let name = function
  | Parse -> "lang.parse"
  | Deps -> "ir.deps"
  | Build -> "netgen.build"
  | Profile -> "analysis.profile"
  | Prune -> "netgen.prune"
  | Compile -> "csp.compile"
  | Search -> "csp.search"
  | Unsat_core -> "analysis.unsat_core"
  | Restructure -> "netgen.restructure"
  | Digest -> "verify.digest"
  | Check -> "verify.check"
  | Simulate -> "cachesim.simulate"

(* Exact effort counts, read from the layers' own results. *)
type counter =
  | Presburger_checks
  | Legal_orders
  | Domain_values
  | Profile_queries
  | Prune_removed
  | Checks
  | Nodes
  | Backjumps
  | Learned
  | Bounded
  | Proof_steps
  | Accesses

let counters =
  [
    Presburger_checks;
    Legal_orders;
    Domain_values;
    Profile_queries;
    Prune_removed;
    Checks;
    Nodes;
    Backjumps;
    Learned;
    Bounded;
    Proof_steps;
    Accesses;
  ]

let counter_name = function
  | Presburger_checks -> "ir.deps.presburger_checks"
  | Legal_orders -> "ir.deps.legal_orders"
  | Domain_values -> "netgen.build.domain_values"
  | Profile_queries -> "analysis.profile.queries"
  | Prune_removed -> "netgen.prune.removed"
  | Checks -> "csp.search.checks"
  | Nodes -> "csp.search.nodes"
  | Backjumps -> "csp.search.backjumps"
  | Learned -> "csp.search.learned"
  | Bounded -> "csp.search.bounded"
  | Proof_steps -> "verify.steps"
  | Accesses -> "cachesim.accesses"

let rec position x i = function
  | [] -> invalid_arg "Stage.position"
  | y :: rest -> if y = x then i else position x (i + 1) rest

let index st = position st 0 all
let counter_index c = position c 0 counters

(* Words allocated so far by this domain: the minor-heap count is exact
   at any point, and direct major allocations are the major words that
   were not promoted from the minor heap. *)
let words () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

(* One traced op: per-stage time and allocation, per-counter counts. *)
type op = {
  id : int;
  ns : int array;
  stage_words : float array;
  counts : int array;
}

(* The in-memory trace: Chrome trace_event objects, comma-separated. *)
let events : Buffer.t option ref = ref None
let next_id = ref 0

let start_trace () = events := Some (Buffer.create 65536)

let emit ~ph ~cat ~name ~args =
  match !events with
  | None -> ()
  | Some b ->
    if Buffer.length b > 0 then Buffer.add_string b ",\n";
    Printf.bprintf b
      "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"%c\",\"ts\":%.3f,\"pid\":1,\"tid\":1,\"args\":{%s}}"
      name cat ph
      (float_of_int (Clock.wall_ns ()) /. 1000.)
      args

let write_trace path =
  match !events with
  | None -> ()
  | Some b ->
    let oc = open_out path in
    output_string oc "[\n";
    Buffer.output_buffer oc b;
    output_string oc "\n]\n";
    close_out oc

let op_args id = Printf.sprintf "\"op\":%d" id

let stage op st f =
  let i = index st in
  let args = op_args op.id in
  emit ~ph:'B' ~cat:"stage" ~name:(name st) ~args;
  let w0 = words () in
  let t0 = Clock.wall_ns () in
  let finish () =
    let t1 = Clock.wall_ns () in
    op.stage_words.(i) <- op.stage_words.(i) +. (words () -. w0);
    op.ns.(i) <- op.ns.(i) + (t1 - t0);
    emit ~ph:'E' ~cat:"stage" ~name:(name st) ~args
  in
  match f () with
  | r ->
    finish ();
    r
  | exception e ->
    finish ();
    raise e

(* A stage the op never reaches is still read off the clock — two
   back-to-back reads, a few tens of nanoseconds — so every per-stage
   time is a measurement; it emits no span. *)
let skip op st =
  let t0 = Clock.wall_ns () in
  let t1 = Clock.wall_ns () in
  op.ns.(index st) <- op.ns.(index st) + (t1 - t0)

let count op c n = op.counts.(counter_index c) <- op.counts.(counter_index c) + n

(* [with_op ~workload ~program f] runs [f op] inside one op span and
   returns its result with the record and the span's duration. *)
let with_op ~workload ~program f =
  let id = !next_id in
  incr next_id;
  let op =
    {
      id;
      ns = Array.make (List.length all) 0;
      stage_words = Array.make (List.length all) 0.0;
      counts = Array.make (List.length counters) 0;
    }
  in
  let args = Printf.sprintf "%s,\"program\":\"%s\"" (op_args id) program in
  emit ~ph:'B' ~cat:"op" ~name:workload ~args;
  let t0 = Clock.wall_ns () in
  let r = f op in
  let t1 = Clock.wall_ns () in
  emit ~ph:'E' ~cat:"op" ~name:workload ~args;
  (r, op, t1 - t0)
