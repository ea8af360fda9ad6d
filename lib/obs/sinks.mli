(** The built-in sinks.

    Each sink has a writer-function constructor (for tests and in-memory
    use) and a file constructor that owns the channel and closes it from
    [sink.close] — so [Obs.reset] finalizes the file. *)

val jsonl : (string -> unit) -> Obs.sink
(** Test-only: tests capture logs in memory; the CLI uses {!jsonl_file}.
    One JSON object per event, one event per line (the line includes the
    trailing newline). Every field of the event is preserved, so e.g. a
    tuner's best-so-far curve is reconstructible from the log alone.
    {!Trace_reader} parses this format back into events and traces. *)

val jsonl_file : string -> Obs.sink

val chrome_trace : ?ts_to_us:(float -> float) -> (string -> unit) -> Obs.sink
(** Test-only: tests capture traces in memory; the CLI uses
    {!chrome_trace_file}.
    Chrome [chrome://tracing] / Perfetto trace-event JSON: spans become
    complete ("X") events, gauges and histogram observations become
    counter ("C") events, points become instant ("i") events. Timestamps are relative to the first
    event and are written sorted, hence monotonic. The whole document is
    written on [close].

    [ts_to_us] converts a clock delta to Chrome microseconds (default
    [( *. ) 1e6], i.e. the clock is wall-clock seconds); a simulated-time
    producer whose clock ticks in its own unit passes its own scale, e.g.
    [Fun.id] to display one simulated cycle per microsecond.

    Span and point fields named ["#pid"] / ["#tid"] (ints) route the event
    onto that process/thread track, and ["#process_name"] /
    ["#thread_name"] (strings) label the track through Chrome metadata
    events; reserved (["#"]-prefixed) fields are stripped from [args]. *)

val chrome_trace_file : ?ts_to_us:(float -> float) -> string -> Obs.sink

val emit_all : Obs.sink -> Obs.event list -> unit
(** Emit every event to the sink, in order, then close it. The one way a
    view's events ({!Hostprof.events}, [Profile.events],
    [Pipeview.events]) become a file: pass a file sink. *)
