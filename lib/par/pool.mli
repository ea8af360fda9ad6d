(** A fixed-size domain pool with deterministic-order results and exact
    telemetry merge.

    Hand-rolled on stdlib [Domain] + [Mutex]/[Condition] (no domainslib):
    [jobs] worker domains block on a shared task queue; a batch operation
    ([map], [map_array]) enqueues one thunk per work item, waits for the
    batch, then consumes results {e in item order} on the calling domain.
    Two loops use it: the tuner's measurement batches and the
    per-operator experiment sweeps.

    Determinism contract (see doc/parallelism.md): every task runs under
    {!Alcop_obs.Obs.capturing}, so its telemetry lands in a domain-local
    shard instead of the global tables; the coordinator replays shard
    [i]'s ops immediately before delivering result [i]. Whatever the
    scheduling interleaving was, the observable outcome — result array,
    callback order, counter totals, gauge values, histogram contents,
    emitted event stream — is identical to sequential execution. With
    [jobs = 1] no domains are spawned at all and work runs inline, which
    is the baseline the parallel paths are byte-compared against.

    Pools must not be nested: a task running on a worker must not submit
    to any pool (it would deadlock once all workers wait on each other).
    Route only coarse outer loops through a pool and keep inner work
    sequential.

    The pool is also instrumented with {!Alcop_obs.Hostprof} probes
    (worker tracks named [worker-i], idle intervals around the queue
    wait, [pool.queue]/[pool.batch] lock probes, per-task queue-latency
    tokens). These record to per-domain shards outside the
    capture/replay path, so host profiling never affects the
    determinism contract above; see doc/hostprof.md. *)

type t

val default_jobs : unit -> int
(** The [ALCOP_JOBS] environment variable when set to a positive integer,
    otherwise [Domain.recommended_domain_count ()]. *)

val create : ?jobs:int -> unit -> t
(** Spawn a pool of [jobs] worker domains (default {!default_jobs}).
    [jobs = 1] spawns nothing — every batch operation runs inline on the
    caller. Raises [Invalid_argument] when [jobs < 1]. *)

val shutdown : t -> unit
(** Signal the workers to exit and join them. Idempotent; the pool must
    be idle (no batch in flight). A pool that is never shut down keeps
    its domains blocked on the queue until process exit. *)

val with_pool : ?jobs:int -> (t -> 'a) -> 'a
(** [create], run the function, and [shutdown] even on exceptions. *)

val map_array : ?each:(int -> 'b -> unit) -> t -> ('a -> 'b) -> 'a array -> 'b array
(** Apply [f] to every element across the pool. Results are delivered in
    index order: for each [i] in [0..n-1] the coordinator first replays
    item [i]'s captured telemetry, then calls [each i result] (when
    given). If any task raised, the exception of the {e lowest-indexed}
    failing item is re-raised (with its original backtrace) after the
    telemetry of all lower-indexed items has been replayed — matching
    where a sequential run would have stopped; telemetry of
    higher-indexed items (speculatively executed in parallel) is
    dropped. *)

val map : t -> ('a -> 'b) -> 'a list -> 'b list
(** {!map_array} for lists, preserving order. *)
