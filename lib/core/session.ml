(* The compilation session: a content-addressed memo of evaluation records
   in front of [Compiler.compile]. See the interface for the contract.

   Domain-safety: one mutex per session guards the table, FIFO queue,
   stat counters and the in-flight set; the actual compile runs outside
   the lock. When two domains race on the same key, the first becomes the
   (sole) miss and the others block on [ready] until the entry lands,
   then count as hits — exactly the hit/miss totals a sequential run of
   the same call sequence would produce. *)

open Alcop_sched
module Obs = Alcop_obs.Obs
module Hostprof = Alcop_obs.Hostprof

(* Host-profiler lock probes: one per lock *class* (every session's mutex
   shares the "session.lock" probe). No-ops unless a profiling window is
   open; never touch the Obs capture/replay path. *)
let session_probe = Hostprof.make_lock "session.lock"
let registry_probe = Hostprof.make_lock "session.registry"
let ready_probe = Hostprof.make_lock "session.ready"

type stats = {
  entries : int;
  hits : int;
  misses : int;
  evictions : int;
}

(* A memo entry: one evaluation record with its floats unboxed in one
   array. A sweep evicts most of what it inserts (a Fig. 10 sweep ~100k
   entries a cycle), so an insert into a full memo refills the entry it
   evicts: only the table's and the queue's cells are new. A boxed record
   is ~40 words, and each one evicted would be major-heap garbage that the
   heap grows by until the next major collection. Entries are read and
   written under the session lock only; [unpack] copies out an equal
   record, float bits included. *)
type entry = {
  floats : float array;
      (* latency, total, us, wave, tail, miss rate, then the wave-busy
         fields (busy totals, stall fractions) when [busy] *)
  mutable busy : bool;
  mutable n_waves : int;
  mutable tbs_per_sm : int;
  mutable occupancy_limiter : string;
  mutable failure : Artifact.t option;  (* [Some] for a failed compile *)
}

module T = Alcop_gpusim.Timing

let empty_entry () =
  { floats = Array.make 17 0.0; busy = false; n_waves = 0; tbs_per_sm = 0;
    occupancy_limiter = ""; failure = None }

let fill e = function
  | Artifact.Success { Artifact.latency_cycles; timing = k } ->
    let f = e.floats in
    f.(0) <- latency_cycles;
    f.(1) <- k.T.total_cycles;
    f.(2) <- k.T.microseconds;
    f.(3) <- k.T.wave_cycles;
    f.(4) <- k.T.tail_cycles;
    f.(5) <- k.T.miss_rate;
    (match k.T.wave_busy with
     | None -> e.busy <- false
     | Some w ->
       e.busy <- true;
       f.(6) <- w.T.cycles;
       f.(7) <- w.T.compute_busy;
       f.(8) <- w.T.dram_busy;
       f.(9) <- w.T.llc_busy;
       f.(10) <- w.T.smem_busy;
       f.(11) <- w.T.stall_compute;
       f.(12) <- w.T.stall_dram_bw;
       f.(13) <- w.T.stall_llc_bw;
       f.(14) <- w.T.stall_smem_port;
       f.(15) <- w.T.stall_sync_wait;
       f.(16) <- w.T.stall_issue);
    e.n_waves <- k.T.n_waves;
    e.tbs_per_sm <- k.T.tbs_per_sm;
    e.occupancy_limiter <- k.T.occupancy_limiter;
    e.failure <- None
  | Artifact.Failure _ as r -> e.failure <- Some r

let unpack e =
  match e.failure with
  | Some r -> r
  | None ->
    let f = e.floats in
    let wave_busy =
      if not e.busy then None
      else
        Some
          { T.cycles = f.(6); compute_busy = f.(7); dram_busy = f.(8);
            llc_busy = f.(9); smem_busy = f.(10); stall_compute = f.(11);
            stall_dram_bw = f.(12); stall_llc_bw = f.(13);
            stall_smem_port = f.(14); stall_sync_wait = f.(15);
            stall_issue = f.(16) }
    in
    Artifact.Success
      { Artifact.latency_cycles = f.(0);
        timing =
          { T.total_cycles = f.(1); microseconds = f.(2);
            n_waves = e.n_waves; tbs_per_sm = e.tbs_per_sm;
            occupancy_limiter = e.occupancy_limiter; wave_cycles = f.(3);
            tail_cycles = f.(4); miss_rate = f.(5); wave_busy } }

type t = {
  hw : Alcop_hw.Hw_config.t;
  capacity : int;
  cache : bool;
  lock : Mutex.t;
  ready : Condition.t;  (* an in-flight compile completed (or failed) *)
  table : (Fingerprint.t, entry) Hashtbl.t;
      (* one evaluation record per key: what the store persists *)
  inflight : (Fingerprint.t, unit) Hashtbl.t;
  order : Fingerprint.t Queue.t;  (* insertion order, for FIFO eviction *)
  mutable store : Store.t option;  (* persistent tier, when attached *)
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

let create ?(hw = Alcop_hw.Hw_config.default) ?(capacity = 8192)
    ?(cache = true) ?store () =
  if capacity < 1 then invalid_arg "Session.create: capacity must be >= 1";
  { hw; capacity; cache;
    lock = Mutex.create ();
    ready = Condition.create ();
    (* Small: a bucket array past 256 words is allocated straight on the
       major heap, and a short-lived session (a process answering a few
       evaluations from the store) holds a handful of entries. The table
       doubles as it fills; nothing iterates it, so its initial size
       cannot change a result. *)
    table = Hashtbl.create 16;
    inflight = Hashtbl.create 8;
    order = Queue.create ();
    store;
    hits = 0; misses = 0; evictions = 0 }

let attach_store t store = t.store <- store
let store t = t.store

let locked t f = Hostprof.locked session_probe t.lock f

let stats t =
  locked t (fun () ->
      { entries = Hashtbl.length t.table;
        hits = t.hits; misses = t.misses; evictions = t.evictions })

let hit_rate (s : stats) =
  let total = s.hits + s.misses in
  if total = 0 then 0.0 else float_of_int s.hits /. float_of_int total

(* Restored from PR 5 as an explicitly-published gauge. Mid-flight entry
   counts are interleaving-dependent under a pool, so the gauge is only
   published from coordinator-side call sites (summary, bench, the perf
   CLI) where the value — min(distinct inserts, capacity), thanks to
   in-flight dedup — is deterministic and -j-independent. *)
let publish_entries_gauge t =
  let n = locked t (fun () -> Hashtbl.length t.table) in
  Obs.gauge "session.cache.entries" (float_of_int n)

let summary t =
  publish_entries_gauge t;
  let s = stats t in
  Printf.sprintf
    "compile cache: %d entries, %d hits / %d misses (%.1f%% hit rate), %d \
     evicted"
    s.entries s.hits s.misses (100.0 *. hit_rate s) s.evictions

(* --- the global per-hardware registry --- *)

let registry : (string, t) Hashtbl.t = Hashtbl.create 4
let registry_lock = Mutex.create ()

let for_hw hw =
  let key = Fingerprint.hw_digest hw in
  Hostprof.locked registry_probe registry_lock (fun () ->
      match Hashtbl.find_opt registry key with
      | Some s -> s
      | None ->
        let s = create ~hw () in
        Hashtbl.add registry key s;
        s)

(* --- the cache proper --- *)

(* Make room for one entry: evict the oldest and hand it back for reuse. *)
let evict_for_insert t =
  if Hashtbl.length t.table < t.capacity then empty_entry ()
  else begin
    let oldest = Queue.pop t.order in
    let e = Hashtbl.find t.table oldest in
    Hashtbl.remove t.table oldest;
    t.evictions <- t.evictions + 1;
    Obs.count "session.cache.evict";
    e
  end

let compile_ns = "compile"

(* The in-flight-deduplicated miss protocol of [timing]. Returns
   [`Hit record] or [`Miss]; a [`Miss] caller holds the in-flight claim
   and runs its branch under [holding_claim]. *)
let acquire t key =
  let rec go () =
    match Hashtbl.find_opt t.table key with
    | Some e ->
      t.hits <- t.hits + 1;
      (* copied out under the lock: a later insert may refill [e] *)
      `Hit (unpack e)
    | None ->
      if Hashtbl.mem t.inflight key then begin
        (* another domain is compiling this key; [wait] releases the
           session mutex, so time it as its own probe *)
        Hostprof.blocking ready_probe (fun () ->
            Condition.wait t.ready t.lock);
        go ()
      end
      else begin
        Hashtbl.replace t.inflight key ();
        t.misses <- t.misses + 1;
        `Miss
      end
  in
  Hostprof.lock_acquire session_probe t.lock;
  let decision = go () in
  Mutex.unlock t.lock;
  decision

let release t key () =
  Hashtbl.remove t.inflight key;
  Condition.broadcast t.ready

(* Run a [`Miss] branch: if it raises — in the compiler, the store's
   read-through or write-through, or a telemetry sink — release the claim
   before re-raising, so waiters retry instead of blocking forever.
   Releasing again after [land_entry] only wakes the waiters. *)
let holding_claim t key f =
  try f ()
  with e ->
    let bt = Printexc.get_raw_backtrace () in
    locked t (release t key);
    Printexc.raise_with_backtrace e bt

(* Insert under the lock and release the in-flight claim. Only the claim
   holder lands a key, once, so the key is new to the table. *)
let land_entry t key record =
  locked t (fun () ->
      let e = evict_for_insert t in
      fill e record;
      Hashtbl.replace t.table key e;
      Queue.push key t.order;
      release t key ())

let record_of_outcome = function
  | Ok c ->
    Artifact.Success
      { Artifact.latency_cycles = c.Compiler.latency_cycles;
        timing = c.Compiler.timing }
  | Error e ->
    Artifact.Failure
      { kind = Compiler.error_kind e; message = Compiler.error_to_string e }

(* A record served without compiling re-publishes the [timing.*] gauges a
   compile would have, from its kernel timing. *)
let publish_gauges = function
  | Artifact.Success r when Obs.enabled () ->
    Alcop_gpusim.Timing.publish_gauges r.Artifact.timing
  | Artifact.Success _ | Artifact.Failure _ -> ()

let count_hit record =
  Obs.count "session.cache.hit";
  publish_gauges record

(* Write-through: every cold compile leaves an evaluation record behind
   for future processes. Counted through [Obs] — safe for the -j
   byte-identity contract because it happens only on the deduplicated
   sole-miss path, exactly like [session.cache.miss]. *)
let store_write t key record =
  match t.store with
  | None -> ()
  | Some st ->
    Store.write st ~ns:compile_ns (Fingerprint.to_hex key)
      (Artifact.to_string record);
    Obs.count "session.store.write"

(* --- the evaluation: memo, then the persistent store, then a compile --- *)

type timed = Artifact.record = {
  latency_cycles : float;
  timing : Alcop_gpusim.Timing.kernel_timing;
}

let timed_of_record = function
  | Artifact.Success r -> Ok r
  | Artifact.Failure { message; _ } -> Error message

let timing t ?(extra_regs_per_thread = 0)
    (params : Alcop_perfmodel.Params.t) (spec : Op_spec.t) =
  if not t.cache then
    timed_of_record
      (record_of_outcome
         (Compiler.compile ~hw:t.hw ~extra_regs_per_thread params spec))
  else begin
    let key =
      Fingerprint.compile_key ~hw:t.hw ~extra_regs_per_thread params spec
    in
    match acquire t key with
    | `Hit record ->
      count_hit record;
      timed_of_record record
    | `Miss ->
      holding_claim t key @@ fun () ->
      Obs.count "session.cache.miss";
      (* Read-through: a fresh process finds the record a previous one
         left behind and skips the compile entirely. Corrupt bytes are a
         miss (plus the store's corrupt counter), never an error. *)
      let from_disk =
        match t.store with
        | None -> None
        | Some st ->
          let hex = Fingerprint.to_hex key in
          (match Store.read st ~ns:compile_ns hex with
           | None ->
             Obs.count "session.store.miss";
             None
           | Some data ->
             (match Artifact.of_string data with
              | Some a ->
                Obs.count "session.store.hit";
                Some a
              | None ->
                Store.mark_corrupt st ~ns:compile_ns hex;
                Obs.count "session.store.miss";
                None))
      in
      (match from_disk with
       | Some record ->
         land_entry t key record;
         publish_gauges record;
         timed_of_record record
       | None ->
         let record =
           record_of_outcome
             (Compiler.compile ~hw:t.hw ~extra_regs_per_thread params spec)
         in
         store_write t key record;
         land_entry t key record;
         timed_of_record record)
  end

let evaluate t ?extra_regs_per_thread params spec =
  match timing t ?extra_regs_per_thread params spec with
  | Ok r -> Some r.latency_cycles
  | Error _ -> None

let evaluator t ?(extra_regs = fun _ -> 0) (spec : Op_spec.t) =
  fun (params : Alcop_perfmodel.Params.t) ->
    evaluate t ~extra_regs_per_thread:(extra_regs params) params spec
