(** Streaming reader for the JSONL event logs written by {!Sinks.jsonl}:
    the inverse of the sink. Parses lines back into {!Obs.event}s and
    reconstructs the derived state — the span forest, final counter/gauge
    values, point events, and histograms aggregated
    from individual observations — so offline analyses (trace summaries,
    diffs, reports) work from logs alone.

    Malformed lines (torn writes, truncation, random corruption) are
    skipped and {e counted}, never raised mid-stream: a reader that dies
    on one bad byte of a 50k-line log helps nobody. The count travels
    with the result ([tr_skipped] and the [int] halves of the tuples
    below) so callers print one warning naming how much was lost rather
    than silently pretending the log was whole. Blank lines are ignored
    and not counted. [Error] is reserved for I/O failure. *)

(** {1 Files} *)

val read_all : string -> (string, string) result
(** Whole file as a string; [Error msg] on I/O failure. *)

val json_of_file : string -> (Json.t, string) result
(** Parse a whole file as one JSON document. *)

(** {1 Events} *)

val events_of_file : string -> (Obs.event list * int, string) result
(** Test-only: tests read back the raw events of a log file. *)

(** {1 Trace reconstruction} *)

type span = {
  sp_name : string;
  sp_start : float;
  sp_dur : float;
  sp_depth : int;
  sp_fields : (string * Json.t) list;
  sp_children : span list;  (** in start order *)
}

type point = {
  pt_name : string;
  pt_ts : float;
  pt_fields : (string * Json.t) list;
}

type trace = {
  tr_events : int;  (** total events consumed *)
  tr_skipped : int;  (** malformed lines skipped while reading *)
  tr_spans : span list;  (** root spans in start order *)
  tr_counters : (string * int) list;  (** final totals, sorted by name *)
  tr_gauges : (string * float) list;  (** last value, sorted by name *)
  tr_points : point list;  (** in emission order *)
  tr_hists : (string * Obs.histogram) list;
      (** aggregated from [Hist] observations, sorted by name *)
}

val trace_of_jsonl : string -> (trace, string) result
(** Test-only: tests parse in-memory logs. *)

val load : string -> (trace, string) result
(** [trace_of_events] over [events_of_file]. *)

(** {1 Conveniences} *)

val iter_spans : (span -> unit) -> span list -> unit
(** Pre-order traversal of a span forest. *)

val span_count : trace -> int

