(** Structured telemetry for the compile–simulate–tune pipeline:
    hierarchical wall-clock spans, named counters and gauges, and free-form
    point events, fanned out to pluggable sinks.

    The default state has no sink installed and every call is a no-op (one
    flag read), so instrumented hot paths — the evaluator, the timing
    simulator — cost nothing in benchmarks. Install a sink (see {!Sinks})
    or call {!record} to start recording.

    Domain-safety: the global tables, sink list and span stack belong to
    one coordinating domain (install sinks, drain metrics and call
    {!reset} only there). Worker domains participate through
    {!capturing}, which redirects every instrumentation call on the
    current domain into a private shard (op log plus local
    counter/gauge/histogram tables); the coordinator merges shards
    exactly, in an order of its choosing, with {!replay}. {!Alcop_par}'s
    pool wraps every task this way — see doc/parallelism.md for the
    determinism contract. *)

type field = string * Json.t

type event =
  | Span_begin of { name : string; ts : float; depth : int }
  | Span_end of {
      name : string;
      ts : float;  (** start time, seconds *)
      dur : float;  (** seconds *)
      depth : int;
      fields : field list;
    }
  | Counter of { name : string; incr : int; total : int; ts : float }
  | Gauge of { name : string; value : float; ts : float }
  | Point of { name : string; ts : float; fields : field list }
  | Hist of { name : string; value : float; ts : float }
      (** one histogram observation; the distribution is aggregated by the
          reader / the in-memory table, not carried in the event *)

(** {1 Histograms}

    A fixed log-spaced bucket scheme shared by every histogram metric:
    8 buckets per decade from 1e-9 up, plus an
    underflow bucket 0 (values below the first edge, including zero) and a
    final overflow bucket. One fixed scheme makes histograms mergeable
    across runs and exactly reconstructible from a JSONL event log. *)

type histogram = {
  h_count : int;
  h_sum : float;
  h_min : float;  (** [+inf] while empty *)
  h_max : float;  (** [-inf] while empty *)
  h_buckets : int array;  (** one per bucket; treat as read-only *)
}

val hist_empty : unit -> histogram

val hist_bucket_index : float -> int
(** Test-only: the histogram tests check bucket edges. *)

val hist_bucket_lo : int -> float
(** Test-only: the histogram tests check bucket edges.
    Lower edge of a bucket; [0.] for the underflow bucket. *)

val hist_bucket_hi : int -> float
(** Test-only: the histogram tests check bucket edges.
    Upper edge; [infinity] for the overflow bucket. *)

val hist_observe : histogram -> float -> histogram

val hist_merge : histogram -> histogram -> histogram

val hist_of_values : float list -> histogram
(** Test-only: tests build reference histograms. *)

val hist_percentile : histogram -> float -> float
(** [hist_percentile h q] with [q] in [[0, 1]]: the q-quantile estimated
    from the buckets (geometric interpolation inside the winning bucket),
    clamped to the observed [[h_min, h_max]]. [nan] on an empty
    histogram. Bucket resolution bounds the relative error at
    [10^(1/8) - 1] (~33%). *)

type sink = {
  emit : event -> unit;
  close : unit -> unit;
      (** flush / finalize; called by {!reset} exactly once *)
}

val enabled : unit -> bool
(** True when at least one sink is installed or {!record} was called. *)

val add_sink : sink -> unit

val record : unit -> unit
(** Test-only: tests record metrics without installing a sink.
    Turn recording on without any sink — counters and gauges accumulate
    and can be read back with {!counter_value} / {!gauge_value}. *)

val reset : unit -> unit
(** Close every sink, drop all counters, gauges, histograms and open
    spans, and return to the zero-cost no-op state. *)

val reset_at_exit : unit -> unit
(** Register (at most once per process) an [at_exit] handler that runs
    {!reset} — so file-backed sinks are closed and flushed even when the
    process exits early on an error path. The CLI calls this whenever it
    installs a file sink; a normal-path {!reset} makes the handler a
    no-op. *)

val set_clock : (unit -> float) -> unit
(** Replace the wall clock (default [Unix.gettimeofday]); tests install a
    deterministic counter. {!reset} keeps the installed clock. *)

val now : unit -> float

val with_span : ?fields:field list -> string -> (unit -> 'a) -> 'a
(** Run the thunk inside a named span. Emits [Span_begin]/[Span_end] with
    nesting depth; an escaping exception still ends the span (with a
    ["raised"] field) before re-raising. When disabled this is exactly
    [f ()]. *)

val add_field : string -> Json.t -> unit
(** Attach a field to the innermost open span (no-op when disabled or no
    span is open). *)

val count : ?n:int -> string -> unit
(** Increment a named counter by [n] (default 1). *)

val counter_value : string -> int
(** Current total of a counter; 0 if never incremented. *)

val counters : unit -> (string * int) list
(** Test-only: tests compare whole counter tables.
    All counters, sorted by name — deterministic across runs for a
    deterministic workload. *)

val gauge : string -> float -> unit
(** Set a named gauge to its latest value. *)

val gauge_value : string -> float option
(** Test-only: tests read back single gauges. *)

val gauges : unit -> (string * float) list
(** All gauges, sorted by name. *)

val gauges_with_prefix : string -> (string * float) list
(** Gauges whose name starts with the given prefix, sorted by name.
    Equivalent to filtering {!gauges} but without materializing the full
    table — hot paths (the tuner's per-trial stall breakdown) call this
    once per trial. *)

val observe : string -> float -> unit
(** Record one observation into a named histogram (and emit a [Hist]
    event). Unlike a gauge, which keeps only the latest value, a histogram
    accumulates the whole distribution — e.g. per-pass wall time across a
    tuning sweep, or candidate latencies across a search. *)

val histogram_value : string -> histogram option
(** Bench-only: perfbench reads single histograms back.
    The named histogram, if anything was observed into it. *)

val histograms : unit -> (string * histogram) list
(** Test-only: tests compare whole histogram tables.
    All histograms, sorted by name. *)

val point : string -> field list -> unit
(** Emit one free-form event (e.g. one tuner trial). *)

val memory_sink : unit -> sink * (unit -> event list)
(** A sink that records every event in order; the second component reads
    the events captured so far. *)

(** {1 Domain-local capture}

    The bridge that lets worker domains use the one-liner instrumentation
    API without touching the coordinator's global state. Inside
    {!capturing}, every [with_span]/[count]/[gauge]/[observe]/[point]/
    [add_field] call on the current domain is appended (without a
    timestamp) to a private op log and mirrored into shard-local
    counter/gauge/histogram tables; reads ([counter_value], [gauges],
    [gauges_with_prefix], …) see only the shard, i.e. exactly what the
    task itself produced. No sink is touched and no event is emitted
    until the coordinator calls {!replay}. *)

type recorded
(** An ordered op log captured on some domain, ready to be merged. *)

val capturing :
  (unit -> 'a) -> ('a, exn * Printexc.raw_backtrace) result * recorded
(** Run the thunk with capture active on the current domain and return
    its outcome together with the ops it recorded. An escaping exception
    is returned (with its backtrace) rather than raised, so the partial
    op log survives; nested [capturing] calls stack — the inner capture
    ends at its own boundary and the outer one resumes. *)

val replay : recorded -> unit
(** Re-execute a captured op log through the ordinary global path:
    counter totals are recomputed from the global table, histogram
    observations are re-applied one by one (an exact merge), spans
    re-nest under whatever span is open at replay time, and timestamps
    are taken from the installed clock at replay. Replaying shards in
    task order is indistinguishable from having run the tasks inline —
    byte-identical when the clock is stateless (wall clock or a fixed
    clock). Calling [replay] while a capture is active re-captures the
    ops into the active shard, which is what nested pools need. No-op
    when recording is off. *)
