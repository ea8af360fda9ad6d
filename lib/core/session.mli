(** The compilation session: a content-addressed memo of evaluation
    records in front of {!Compiler.compile}. It memoizes evaluations and
    nothing else; a caller that needs the compiled artifact (its IR, trace
    or recorded profile) calls {!Compiler.compile} or {!Compiler.profile}.

    Every tuner, compiler variant and experiment evaluates schedule points
    through a session. The cache key is a {!Fingerprint} of (operator
    spec, schedule point, hardware config, extra register pressure), so a
    point evaluated once is never compiled or re-simulated for its
    latency again — the paper's E2/E4/E5 experiments sweep five compiler
    variants over heavily overlapping schedule spaces, and search-based
    schedulers live or die by the cost of evaluating candidates.

    An entry is the {!Artifact.t} the store persists: the latency and the
    kernel timing of a successful compile, or the kind and message of a
    structured compile error (failed points
    recur in sweeps just as often as good ones). It is never the compiled
    artifact itself, whose IR, schedule and packed program are ~30× the
    record's size. An insert into a full memo refills the entry it evicts
    instead of allocating one, and a hit copies out an equal record.

    The memo is capacity-bounded (FIFO eviction). Hit, miss and eviction
    totals are kept per session and also published as
    [session.cache.hit] / [session.cache.miss] / [session.cache.evict]
    counters through [Alcop_obs].

    When observability is on, a memo or store hit re-publishes the
    [timing.*] gauges from the record's kernel timing through
    {!Alcop_gpusim.Timing.publish_gauges}, the function a compile
    publishes them with. So gauge readers (e.g. the tuner's per-trial
    stall breakdown) see the same values for the latest evaluation,
    cached or not, and whether or not the record's writer was traced.

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
    recorded latency and kernel timing, and the gauges derived from
    them, without running the compiler at all, and lands the record in
    the memo — that is what
    makes warm compiles near-free across processes. *)

val store : t -> Store.t option

val for_hw : Alcop_hw.Hw_config.t -> t
(** The shared session for a hardware config, from a global registry keyed
    by {!Fingerprint.hw_digest}: all variants, tuners and experiments
    targeting the same machine share one artifact store. Scaled or
    cross-generation machines (experiment E9) each get their own. *)

type timed = Artifact.record = {
  latency_cycles : float;
  timing : Alcop_gpusim.Timing.kernel_timing;
}
(** The evaluation-grade view of a compile: everything [alcop time], the
    tuners and the experiment sweeps consume, and exactly what a store
    record serves without recompiling. *)

val timing :
  t ->
  ?extra_regs_per_thread:int ->
  Alcop_perfmodel.Params.t ->
  Alcop_sched.Op_spec.t ->
  (timed, string) result
(** The memoized evaluation: a hit is served from the memo's record
    without compiling. On a miss with a store attached, a persisted
    record from *any previous process* satisfies the call
    (bit-identically — floats round-trip exactly); otherwise it runs
    {!Compiler.compile} on this session's hardware, lands the record and
    writes it through. [Error]
    carries the memoized compile error's rendering. *)

val evaluate :
  t ->
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

val stats : t -> stats
(** [hits + misses] telescopes to the total number of (cache-enabled)
    {!timing}/{!evaluate} calls on this session; [entries] counts
    resident evaluation records. *)

val hit_rate : stats -> float
(** hits / (hits + misses); 0 when nothing was evaluated. *)

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

