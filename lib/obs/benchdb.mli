(** The continuous performance observatory: statistical summaries of
    repeated benchmark runs, the machine/environment fingerprint that
    makes numbers comparable, the append-only on-disk history store, and
    the change-point analyzer + trend charts that turn the history into a
    regression gate.

    Schema {b alcop-selfbench-v2}: one record per [bench … record] run —
    a fingerprint plus, per benchmark, robust statistics over [--runs N]
    repetitions (median / MAD / min / p90 and a relative noise estimate).
    Any other schema, the legacy v1 included, is rejected.

    The history is one JSONL file per machine fingerprint under
    {!default_history_dir}, append-only (single atomic write per record)
    and corruption-tolerant on read (bad lines are skipped and counted,
    mirroring {!Trace_reader}). See doc/benchmarking.md. *)

(** {1 Robust statistics} *)

type stats = {
  s_runs : int;  (** samples the summary is over *)
  s_median_ns : float;
  s_mad_ns : float;  (** median absolute deviation from the median *)
  s_min_ns : float;
  s_p90_ns : float;
  s_mean_ns : float;
}

val median : float list -> float
(** Bench-only: {!summarize} uses it; perfbench and the statistics test
    call it directly.
    0. on the empty list; the mean of the middle pair for even lengths. *)

val mad : ?center:float -> float list -> float
(** Test-only: the statistics test checks it directly; {!summarize} uses it.
    Median absolute deviation around [center] (default: the median). *)

val percentile : float -> float list -> float
(** Bench-only: {!summarize} uses it; perfbench and the statistics test
    call it directly.
    Linear interpolation between order statistics; [percentile 0.9]. *)

val summarize : float list -> stats
(** Robust summary of raw per-run times in nanoseconds. *)

val noise : stats -> float
(** Relative noise estimate [mad/median] (0 when the median is 0 —
    a single run has no measurable noise). *)

val ops_per_sec : stats -> float
(** [1e9 / median_ns]; 0 when the median is 0. *)

(** {1 Machine fingerprint} *)

type fingerprint = {
  f_ocaml : string;  (** [Sys.ocaml_version] *)
  f_os : string;  (** [Sys.os_type] *)
  f_cores : int;  (** recommended domain count *)
  f_jobs : string;  (** [$ALCOP_JOBS], [""] when unset *)
  f_host_hash : string;  (** 8 hex chars of MD5(hostname) — no PII *)
  f_git_rev : string;  (** short HEAD rev, ["unknown"] outside a repo *)
}

val collect_fingerprint :
  ?hostname:string -> ?git_rev:string -> ?jobs:string -> ?cores:int ->
  unit -> fingerprint
(** Probe the running environment; the optional arguments override the
    probes (for tests and for callers that already know). *)

val fingerprint_id : fingerprint -> string
(** The history-stream key, e.g. ["unix-ocaml5.1.0-1c-jauto"]. Derived
    from OS, OCaml version, core count and [$ALCOP_JOBS] {e only}: the
    git rev changes every commit and CI hostnames change every run, so
    keying on either would shred the history into single-record files.
    Both stay recorded inside each record. *)

(** {1 Records (schema v2)} *)

type bench = {
  b_id : string;
  b_stats : stats;
  b_host : Json.t option;
      (** the sweep rows' host-utilization sub-object (doc/hostprof.md) *)
}

type record = {
  r_schema : string;
  r_generated_by : string;
  r_machine : string;  (** simulated hardware name *)
  r_unit : string;
  r_ts : float option;  (** unix seconds; [None] when absent *)
  r_fingerprint : fingerprint option;  (** [None] when absent *)
  r_benches : bench list;
}

val make_record :
  ?ts:float -> ?generated_by:string -> machine:string ->
  fingerprint:fingerprint -> bench list -> record

val record_to_json : record -> Json.t
(** Test-only: the schema tests round-trip in-memory documents. *)

val record_of_json : Json.t -> (record, string) result
(** Test-only: the schema tests parse in-memory documents.
    Reads an [alcop-selfbench-v2] document; any other schema, the legacy
    [alcop-selfbench-v1] included, is an [Error "unknown selfbench schema
    …"]. Entries without an id or a [median_ns] are dropped. *)

val read_file : string -> (record, string) result
(** One whole-file record (the BENCH_gpusim.json shape). *)

val write_file : string -> record -> unit

(** {1 History store} *)

val default_history_dir : string
(** ["results/bench_history"] *)

val history_file : dir:string -> string -> string
(** [history_file ~dir id] — the JSONL path for machine stream [id]. *)

val append : dir:string -> record -> (string, string) result
(** Append one record to its machine's stream (creating [dir] as
    needed) as a single [O_APPEND] write, so concurrent appenders cannot
    interleave partial lines. Returns the file path written. *)

val read_history : string -> (record list * int, string) result
(** All records of one stream file in append order, plus the count of
    skipped (corrupt or alien) lines. [Error] only on I/O failure. *)

val machines : dir:string -> (string * string) list
(** [(machine id, file path)] for every [*.jsonl] stream in [dir],
    sorted by id; [] when the directory does not exist. *)

(** {1 Trend analysis} *)

type series_point = {
  sp_record : int;  (** index of the record in its stream *)
  sp_ops : float;  (** ops/sec (median-based) *)
  sp_noise : float;  (** absolute noise in ops/sec (MAD-propagated) *)
}

type change_point = {
  cp_index : int;
      (** series position of the {e first record after} the shift *)
  cp_before : float;  (** left-window median, ops/sec *)
  cp_after : float;  (** right-window median, ops/sec *)
  cp_ratio : float;  (** [after / before]; < 1 is a regression *)
  cp_sigma : float;  (** the noise floor the shift was tested against *)
}

val change_points :
  ?window:int -> ?sensitivity:float -> ?min_rel:float ->
  (float * float) array -> change_point list
(** Test-only: the detector tests feed it synthetic series.
    Sliding median-shift change-point detection over [(value, noise)]
    points. At each boundary the medians of up to [window] points on
    either side are compared against a noise floor
    [sigma = max(1.4826·MAD(residuals), median per-point noise,
    min_rel·|left median|)]; a boundary fires when
    [|shift| > sensitivity·sigma], and consecutive firing boundaries
    collapse to the one with the largest [|shift|/sigma] (ties broken
    toward the largest single-step jump, which pins the boundary to
    where the level actually moved). Defaults:
    [window = 5], [sensitivity = 4.0], [min_rel = 0.02] — the [min_rel]
    floor means shifts under [sensitivity·2%] can never fire, which is
    what keeps identical-distribution reruns at zero false positives
    (tested across 100 seeds). *)

type trend = {
  t_bench : string;
  t_points : series_point list;
  t_changes : change_point list;
}

val trends :
  ?window:int -> ?sensitivity:float -> ?min_rel:float ->
  record list -> trend list
(** One {!trend} per benchmark id of the stream. *)

val regressions : trend list -> (trend * change_point) list
(** The change points whose ratio is below 1 (throughput dropped). *)

val first_bad : record list -> change_point -> trend -> string
(** Test-only: the attribution test checks its text directly.
    Human description of the first-bad record behind a change point:
    record number plus its git rev and timestamp when recorded. *)

val trend_lines :
  machine:string -> skipped:int -> record list -> trend list -> string list
(** Text report: per-benchmark summary, every change point with
    magnitude and first-bad record, and a closing regression count. *)

(** {1 Trend charts (inline SVG, light/dark)} *)

val trend_sections :
  ?max_charts:int -> machine:string -> record list -> trend list ->
  string list
(** Report sections for one machine stream: per-benchmark time series
    with a ±MAD noise band and change-point markers (benchmarks with
    change points chart first; a note names how many were not charted),
    plus the change-point table. Composes into {!Report.page}. *)

val trend_page : (string * record list * trend list) list -> string
(** A standalone HTML page ([bench trend --html]) over
    [(machine, records, trends)] streams. *)

(** {1 Selfbench comparison} *)

type compare_result = {
  cmp_lines : string list;  (** the rendered table + annotations *)
  cmp_failures : int;  (** regressions beyond tolerance + disappearances *)
  cmp_only_old : string list;  (** benchmark ids only the OLD side has *)
  cmp_only_new : string list;  (** benchmark ids only the NEW side has *)
}

val compare_records :
  ?strict:bool -> ?tolerance:float -> old_r:record -> new_r:record ->
  unit -> compare_result
(** Diff two selfbench records (host objects optional on
    either side). Benchmarks present on one side only are listed
    explicitly — "only in OLD" rows count as failures (a benchmark
    disappeared), "only in NEW" rows do not. [strict] switches the
    GitHub annotation prefix on complaint lines from [::warning::] to
    [::error::] and also counts as a failure every row, on either side,
    summarized over fewer than 3 runs (it has no noise estimate); exiting
    is the caller's decision. Default [tolerance = 0.20]. *)
