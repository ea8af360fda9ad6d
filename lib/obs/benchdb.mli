(** Selfbench records: statistical summaries of repeated benchmark runs,
    the machine/environment fingerprint that makes numbers comparable,
    and the row-by-row comparison behind [bench compare [--strict]].

    Schema {b alcop-selfbench-v2}: one record per [bench selfbench] run —
    a fingerprint plus, per benchmark, robust statistics over [--runs N]
    repetitions (median / MAD / min / p90 and a relative noise estimate).
    Any other schema, the legacy v1 included, is rejected. See
    doc/benchmarking.md. *)

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

(** {1 Records (schema v2)} *)

type bench = {
  b_id : string;
  b_stats : stats;
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
    …"]. Entries without an id or a [median_ns] are dropped; unknown
    members of an entry are ignored. *)

val read_file : string -> (record, string) result
(** One whole-file record (the BENCH_gpusim.json shape). *)

val write_file : string -> record -> unit

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
(** Diff two selfbench records. Benchmarks present on one side only are
    listed explicitly — "only in OLD" rows count as failures (a benchmark
    disappeared), "only in NEW" rows do not. [strict] switches the
    GitHub annotation prefix on complaint lines from [::warning::] to
    [::error::] and also counts as a failure every row, on either side,
    summarized over fewer than 3 runs (it has no noise estimate); exiting
    is the caller's decision. Default [tolerance = 0.20]. *)
