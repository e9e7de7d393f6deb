type arg = Str of string | Int of int | Float of float | Bool of bool

(* clock_gettime(CLOCK_MONOTONIC) in nanoseconds; Mlo_csp.Clock binds
   the same stub. *)
external now_ns : unit -> int = "mlo_obs_monotonic_ns" [@@noalloc]

(* [on] is the one-branch disabled-path gate.  The buffer and the
   first-event flag are shared across domains and only touched with
   [lock] held; [on] itself is a plain ref, so a caller that emits from
   several domains must start and stop the trace while no other domain
   is emitting. *)
let on = ref false
let lock = Mutex.create ()
let buf = Buffer.create 4096
let first = ref true

let enabled () = !on

let start () =
  Mutex.lock lock;
  Buffer.clear buf;
  first := true;
  on := true;
  Mutex.unlock lock

let stop () =
  Mutex.lock lock;
  on := false;
  Buffer.clear buf;
  first := true;
  Mutex.unlock lock

let dump () =
  Mutex.lock lock;
  let body = Buffer.contents buf in
  Mutex.unlock lock;
  "[" ^ body ^ "]"

let write path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc (dump ());
      output_char oc '\n')

(* ------------------------------------------------------------------ *)
(* Event emission                                                       *)
(* ------------------------------------------------------------------ *)

let add_arg b (k, v) =
  Buffer.add_char b '"';
  Buffer.add_string b (Json.escape k);
  Buffer.add_string b "\":";
  match v with
  | Str s ->
    Buffer.add_char b '"';
    Buffer.add_string b (Json.escape s);
    Buffer.add_char b '"'
  | Int i -> Buffer.add_string b (string_of_int i)
  | Float f -> Buffer.add_string b (Printf.sprintf "%.17g" f)
  | Bool bo -> Buffer.add_string b (if bo then "true" else "false")

(* Renders one event object into the shared buffer.  [extra] appends
   phase-specific fields (instant scope, counter args). *)
let emit ?args ~ph ~cat name extra =
  let ts_us = float_of_int (now_ns ()) /. 1e3 in
  let tid = (Domain.self () :> int) in
  Mutex.lock lock;
  if !on then begin
    if !first then first := false else Buffer.add_char buf ',';
    Buffer.add_string buf
      (Printf.sprintf "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"%s\",\"ts\":%.3f,\"pid\":1,\"tid\":%d"
         (Json.escape name) (Json.escape cat) ph ts_us tid);
    (match args with
    | None | Some [] -> ()
    | Some args ->
      Buffer.add_string buf ",\"args\":{";
      List.iteri
        (fun i a ->
          if i > 0 then Buffer.add_char buf ',';
          add_arg buf a)
        args);
    (match args with None | Some [] -> () | Some _ -> Buffer.add_char buf '}');
    Buffer.add_string buf extra;
    Buffer.add_char buf '}'
  end;
  Mutex.unlock lock

let instant ?args ~cat name =
  if !on then emit ?args ~ph:"i" ~cat name ",\"s\":\"t\""

let span_begin ?args ~cat name = emit ?args ~ph:"B" ~cat name ""
let span_end ~cat name = emit ~ph:"E" ~cat name ""

let with_span ?args ~cat name f =
  if not !on then f ()
  else begin
    span_begin ?args ~cat name;
    Fun.protect ~finally:(fun () -> span_end ~cat name) f
  end

let counter ~cat name series =
  if !on then begin
    let b = Buffer.create 64 in
    Buffer.add_string b ",\"args\":{";
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char b ',';
        Buffer.add_char b '"';
        Buffer.add_string b (Json.escape k);
        Buffer.add_string b "\":";
        Buffer.add_string b (Printf.sprintf "%.17g" v))
      series;
    Buffer.add_char b '}';
    emit ~ph:"C" ~cat name (Buffer.contents b)
  end
