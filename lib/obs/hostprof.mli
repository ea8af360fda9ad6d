(** Host-side wall-clock runtime profiler: where does the {e compiler's
    own} time go when it runs across worker domains?

    Everything else in [Alcop_obs] measures {e simulated} GPU time; this
    module measures the host process — per-domain busy/idle timelines,
    lock contention, GC pressure — so a missing [-j N] speedup can be
    attributed instead of guessed at (the same discipline ALCOP's Fig. 2/3
    stall analysis applies to the GPU pipeline, turned on the host
    pipeline: worker domains instead of warps, mutexes instead of
    barriers).

    {b Determinism contract.} Collection lives entirely {e outside} the
    deterministic {!Obs.capturing}/{!Obs.replay} path: probes write to
    per-domain shards (one [Domain.DLS] shard per domain, no shared
    mutable state on the hot path) and never emit an [Obs] event or touch
    an [Obs] table. Enabling host profiling therefore leaves every
    telemetry stream — tuning logs, JSONL events, counters, gauges —
    byte-identical to an unprofiled run (property-tested). Exports below
    return data built from the recorded profile and never touch the
    global [Obs] state.

    {b Accounting contract.} Every worker's wall clock inside the
    profiled window telescopes {e exactly} (integer nanoseconds) into
    five buckets:

    - [busy]  — running task bodies (lock-wait and GC carved out);
    - [queue] — task-dispatch machinery: the gap between a worker
      becoming free and the next task's body starting (dequeue, wakeup
      latency). Per-task {e enqueue→start} latency is reported
      separately as a histogram — it overlaps other work and is a task
      property, not a worker wall bucket;
    - [lock]  — waiting on contended mutexes / in-flight-compile waits,
      per named probe;
    - [gc]    — allocation-pressure time, {e estimated} from
      [Gc.quick_stat] deltas (minor + promoted words times a fixed
      per-word cost, clamped into the task's run time). Collection and
      word counts are the measured ground truth; the time split is a
      model (see doc/hostprof.md);
    - [idle]  — blocked waiting for work, plus the unattributed residual.

    [busy + queue + lock + gc + idle = wall] holds exactly per worker,
    by construction, and is enforced by {!check} and by tests.

    Usage: {!start} on the coordinating domain, run the workload (create
    pools {e inside} the window so worker lifetimes are covered and
    joined before {!stop}), then {!stop} and render with {!report} /
    {!events} / {!json_of_profile}.
    Probes cost one atomic load when profiling is off. *)

(** {1 Probes} (called by [Alcop_par.Pool], [Session], [Passman]) *)

val on : unit -> bool
(** Is a profiling window open? All probes are no-ops when [false]. *)

val set_role : string -> unit
(** Name the current domain's track (e.g. ["worker-3"]). Call once at
    domain start; domains that never call it are ["coordinator"]. Cheap
    and safe to call when profiling is off. *)

val task_enqueued : unit -> int
(** Timestamp (ns into the window) handed to {!task} as [~enqueue] so
    queue latency can be measured; [min_int] when profiling is off. *)

val task : ?enqueue:int -> (unit -> 'a) -> 'a
(** Run a task body as a ["pool.task"] span, recording start/finish
    timestamps and [Gc.quick_stat] deltas on the current domain's shard.
    Lock waits inside the body are attributed to this task. Exceptions
    are recorded, then re-raised. *)

val idle : (unit -> 'a) -> 'a
(** Record a blocked-waiting-for-work interval (a worker's
    [Condition.wait] on the task queue). *)

val batch_wait : (unit -> 'a) -> 'a
(** Record a coordinator blocked-on-a-batch interval — the parallel
    region, counted as the coordinator's [idle] (its [busy] residual is
    the serial time Amdahl's law cares about). *)

type lock
(** A named lock probe: static identity for a {e class} of locks (e.g.
    every session's per-session mutex shares one probe). *)

val make_lock : string -> lock

val lock_acquire : lock -> Mutex.t -> unit
(** [Mutex.lock] with the wait timed into the probe: a successful
    [try_lock] counts as an uncontended acquisition (no clock read);
    otherwise the blocked time is measured and charged to the current
    task (or recorded as a worker-wall lock interval outside tasks). *)

val locked : lock -> Mutex.t -> (unit -> 'a) -> 'a
(** [lock_acquire], run the thunk, unlock (also on exceptions). *)

val blocking : lock -> (unit -> 'a) -> 'a
(** Time an arbitrary blocking section (e.g. a [Condition.wait] for an
    in-flight compile) as a contended wait on the probe. *)

val pass_sample : string -> (unit -> 'a) -> 'a
(** Sample allocation counters ([Gc.minor_words] for minor words,
    [Gc.counters] for promoted words; ~20ns per read) around one
    compile-pass execution and aggregate the
    deltas under the pass name ("which pass allocates most");
    independent of the [Obs] pass spans. Collection {e counts} are
    sampled at task granularity only — [Gc.quick_stat] is ~1.2us per
    call and would dominate the sub-millisecond passes. *)

(** {1 Profile data} *)

type worker = {
  w_role : string;
  w_wall_ns : int;
  w_busy_ns : int;
  w_queue_ns : int;
  w_lock_ns : int;
  w_gc_ns : int;
  w_idle_ns : int;  (** invariant: the five buckets sum to [w_wall_ns] *)
  w_tasks : int;
  w_minor_words : float;
  w_promoted_words : float;
  w_minor_collections : int;
  w_major_collections : int;
}

type lock_stat = {
  l_name : string;
  l_acquisitions : int;
  l_contended : int;
  l_wait_ns : int;
  l_hist : Obs.histogram;  (** contended wait times, seconds *)
}

type pass_alloc = {
  p_pass : string;
  p_runs : int;
  pa_minor_words : float;
  pa_promoted_words : float;
}

type span = {
  sp_track : string;  (** role of the domain that ran it *)
  sp_label : string;
  sp_start_ns : int;
  sp_end_ns : int;
  sp_queue_ns : int;  (** enqueue→start latency of this task *)
  sp_lock_ns : int;
  sp_minor_words : float;
}

type profile = {
  p_wall_ns : int;
  p_cpu_ns : int;
      (** process CPU time, user + system over all domains, over the
          window ([Unix.times]) *)
  p_jobs : int;  (** worker domains observed; 0 = everything ran inline *)
  p_workers : worker list;  (** coordinator first, then workers by role *)
  p_locks : lock_stat list;  (** sorted by total wait, descending *)
  p_passes : pass_alloc list;  (** sorted by minor words, descending *)
  p_queue_hist : Obs.histogram;  (** task enqueue→start latency, seconds *)
  p_spans : span list;  (** task/wait intervals, sorted by start *)
}

(** {1 Lifecycle} *)

val start : unit -> unit
(** Open a profiling window on the calling (coordinating) domain.
    Discards any shards from a previous window. *)

val stop : unit -> profile
(** Close the window and analyze all shards. Call only after worker
    domains are joined (e.g. after [Pool.with_pool] returns) so every
    shard is complete. Raises [Invalid_argument] if no window is open. *)

(** {1 Analysis} *)

val check : profile -> (unit, string) result
(** Verify the telescoping invariant: for every worker, the five buckets
    are non-negative and sum exactly to its wall. *)

val report : ?top:int -> profile -> string
(** The Amdahl / speedup-loss report: per-worker wall decomposition
    (telescoping shown as percentages), serial fraction and expected
    vs. achieved parallelism, the process CPU time and the CPUs it kept
    busy on average, top-[top] contended locks (default 5),
    allocation-heaviest passes, task queue-latency percentiles. Pure —
    deterministic for a given profile (golden-tested). *)

(** {1 Export} (pure data; never touches the global [Obs] state) *)

val events : profile -> Obs.event list
(** The profile as [Obs] events for a Chrome trace sink: a window-origin
    span first, then one span per task with one [#tid] track per domain
    (coordinator = tid 0), through {!Sinks.chrome_trace}'s routing
    fields. {!Sinks.emit_all} writes them. *)

val json_of_profile : profile -> Json.t
(** Machine-readable profile (schema ["alcop-hostprof-v1"]) for
    [alcop perf --json-out]. *)
