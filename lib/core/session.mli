(** The compilation session: a content-addressed memo of evaluation
    records in front of {!Compiler.compile}.

    Every tuner, compiler variant and experiment evaluates schedule points
    through a session. The cache key is a {!Fingerprint} of (operator
    spec, schedule point, hardware config, extra register pressure), so a
    point evaluated once is never compiled or re-simulated for its
    latency again — the paper's E2/E4/E5 experiments sweep five compiler
    variants over heavily overlapping schedule spaces, and search-based
    schedulers live or die by the cost of evaluating candidates.

    An entry is the {!Artifact.t} the store persists: the latency, the
    kernel timing and the [timing.*] gauges of a successful compile, or
    the kind and message of a structured compile error (failed points
    recur in sweeps just as often as good ones). It is never the compiled
    artifact itself, whose IR, schedule and packed program are ~30× the
    record's size; {!compile} rebuilds that on a hit.

    The memo is capacity-bounded (FIFO eviction). Hit, miss and eviction
    totals are kept per session and also published as
    [session.cache.hit] / [session.cache.miss] / [session.cache.evict]
    counters through [Alcop_obs].

    On a cache hit the [timing.*] gauges captured at the entry's cold
    compile are re-published, so gauge readers (e.g. the tuner's per-trial
    stall breakdown) always see values consistent with the latest
    evaluation, cached or not.

    Domain-safe: a per-session mutex guards the table, stats and FIFO
    queue (compiles themselves run outside the lock), and the {!for_hw}
    registry has its own lock. Concurrent calls on the same key are
    deduplicated — the first caller is the sole miss, the rest block
    until the entry lands and count as hits, matching the totals of the
    equivalent sequential call sequence (see doc/parallelism.md). A miss
    that raises releases its claim before the exception propagates, so a
    waiter retries the key instead of blocking. *)

type t

type stats = {
  entries : int;     (** resident cache entries *)
  hits : int;
  misses : int;
  evictions : int;
}

val create :
  ?hw:Alcop_hw.Hw_config.t ->
  ?capacity:int ->
  ?cache:bool ->
  ?store:Store.t ->
  unit ->
  t
(** A fresh session. [capacity] bounds resident entries (default 8192);
    [cache:false] makes the session a transparent pass-through that
    neither stores nor counts (the CLI's [--no-cache]). [store] attaches
    a persistent on-disk tier — see {!attach_store}. *)

val attach_store : t -> Store.t option -> unit
(** Attach (or detach, with [None]) the persistent tier. With a store
    attached, every cold compile writes its evaluation record through
    ([session.store.write]), and {!timing}/{!evaluate} misses read the
    store before compiling: a hit ([session.store.hit]) serves the
    recorded latency, kernel timing and gauges without running the
    compiler at all, and lands the record in the memo — that is what
    makes warm compiles near-free across processes. A {!compile} miss
    never reads the store (it must compile to return the artifact); it
    only writes through. *)

val store : t -> Store.t option

val for_hw : Alcop_hw.Hw_config.t -> t
(** The shared session for a hardware config, from a global registry keyed
    by {!Fingerprint.hw_digest}: all variants, tuners and experiments
    targeting the same machine share one artifact store. Scaled or
    cross-generation machines (experiment E9) each get their own. *)

val compile :
  t ->
  ?pool:Alcop_par.Pool.t ->
  ?extra_regs_per_thread:int ->
  Alcop_perfmodel.Params.t ->
  Alcop_sched.Op_spec.t ->
  (Compiler.compiled, Compiler.error) result
(** {!Compiler.compile} on this session's hardware, counted against the
    memo. A miss compiles, lands the record and writes it through, like
    {!timing}. A hit — including a key landed from a disk record — counts
    as a hit, re-publishes the recorded gauges and compiles again to
    return the artifact, without landing or writing anything; the
    rebuild's own telemetry is dropped. Compilation is deterministic, so
    the artifact is bit-identical to the cold one. [pool] enables the
    timing simulator's parallel-wave mode (see
    {!Alcop_gpusim.Timing.run}); it never changes the artifact, only
    wall-clock time. *)

type timed = {
  latency_cycles : float;
  timing : Alcop_gpusim.Timing.kernel_timing;
}
(** The evaluation-grade view of a compile: everything [alcop time], the
    tuners and the experiment sweeps consume, and exactly what a store
    record can serve without recompiling. *)

val timing :
  t ->
  ?pool:Alcop_par.Pool.t ->
  ?extra_regs_per_thread:int ->
  Alcop_perfmodel.Params.t ->
  Alcop_sched.Op_spec.t ->
  (timed, string) result
(** The memoized evaluation: a hit is served from the memo's record
    without compiling. On a miss with a store attached, a persisted
    record from *any previous process* satisfies the call
    (bit-identically — floats round-trip exactly); otherwise it compiles
    as {!compile} does. [Error] carries the memoized compile error's
    rendering. *)

val evaluate :
  t ->
  ?pool:Alcop_par.Pool.t ->
  ?extra_regs_per_thread:int ->
  Alcop_perfmodel.Params.t ->
  Alcop_sched.Op_spec.t ->
  float option
(** [latency_cycles] of {!timing}; [None] = failed to compile or launch. *)

val evaluator :
  t ->
  ?extra_regs:(Alcop_perfmodel.Params.t -> int) ->
  Alcop_sched.Op_spec.t ->
  Alcop_perfmodel.Params.t ->
  float option
(** Measurement function for the tuners, closed over one operator. *)

val trial_features :
  t -> Alcop_sched.Op_spec.t -> Alcop_tune.Tuner.result ->
  (int * (string * float) list) list
(** The pipeline observatory's feature record ({!Alcop_gpusim.Pipeview})
    of every trial that compiled, keyed by space index — the [features]
    argument of {!Alcop_tune.Tuning_log.write_file}. Each trial's
    {!compile} is a cache hit on the session that ran the tuner, so the
    extra cost is one rebuild of the artifact and one recorded simulation
    of its waves per trial. *)

val stats : t -> stats
(** [hits + misses] telescopes to the total number of (cache-enabled)
    {!compile}/{!timing}/{!evaluate} calls on this session; [entries]
    counts resident evaluation records, whichever call landed them. *)

val hit_rate : stats -> float
(** hits / (hits + misses); 0 when nothing was evaluated. *)

val clear : t -> unit
(** Test-only: only its own test calls it; callers replace a session
    instead of resetting it.
    Drop all entries and zero the counters. *)

val publish_entries_gauge : t -> unit
(** Publish the resident entry count as the [session.cache.entries]
    gauge, read under the session mutex. Call it only from
    coordinator-side code (after any pool batch completed): the final
    count — [min (distinct inserts, capacity)] thanks to in-flight
    dedup — is deterministic there, whereas a mid-flight publication
    from inside a pool task would be interleaving-dependent and break
    the [-j N] byte-identity contract (which is why PR 5 dropped the
    per-insert gauge this replaces). Never exceeds the session
    capacity (hammer-tested). *)

val summary : t -> string
(** One line: entries, hits, misses, hit rate, evictions. Also calls
    {!publish_entries_gauge}. *)

