(** Structured tracing in Chrome [trace_event] JSON format.

    One global, process-wide trace buffer.  When tracing is disabled
    (the default) every emission function returns after a single branch
    — no allocation, no clock read, no lock — so instrumented hot paths
    stay instrumented in production builds.  When enabled, events are
    rendered straight into a shared buffer under a mutex, so a caller
    that runs the library on several {!Domain}s can emit concurrently;
    each event records its domain id as [tid].

    The output loads in [chrome://tracing] and Perfetto: a JSON array of
    event objects, spans as ["ph":"B"]/["ph":"E"] pairs, instant events
    as ["ph":"i"], counters as ["ph":"C"], timestamps in microseconds
    from the monotonic clock.  {!Trace_summary} rolls a file back up
    into per-phase/per-event totals. *)

type arg = Str of string | Int of int | Float of float | Bool of bool
(** Argument payload attached to an event (shown by the viewers). *)

val enabled : unit -> bool
(** The one-branch gate: callers building non-trivial argument lists
    should test this first (the emission functions also check it). *)

val start : unit -> unit
(** Enable tracing into a fresh buffer (clears any previous events). *)

val stop : unit -> unit
(** Disable tracing and drop the buffer. *)

val dump : unit -> string
(** The events so far as a complete JSON array (tracing may still be
    enabled; the buffer is not cleared). *)

val write : string -> unit
(** [write path] saves {!dump} to a file. *)

val with_span : ?args:(string * arg) list -> cat:string -> string -> (unit -> 'a) -> 'a
(** [with_span ~cat name f] brackets [f ()] with begin/end events; the
    end event is emitted even if [f] raises.  When disabled, exactly
    [f ()]. *)

val instant : ?args:(string * arg) list -> cat:string -> string -> unit
(** A point event (solver decision, backtrack, AC revision, ...). *)

val counter : cat:string -> string -> (string * float) list -> unit
(** [counter ~cat name series] emits one sample of a named counter
    track; [series] gives the per-key values (e.g. per-level hit/miss
    totals). *)
