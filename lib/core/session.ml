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

type t = {
  hw : Alcop_hw.Hw_config.t;
  capacity : int;
  cache : bool;
  lock : Mutex.t;
  ready : Condition.t;  (* an in-flight compile completed (or failed) *)
  table : (Fingerprint.t, Artifact.t) Hashtbl.t;
      (* one evaluation record per key: what the store persists, with the
         [timing.*] gauges captured at the cold compile *)
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
    table = Hashtbl.create (min capacity 1024);
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

let clear t =
  locked t (fun () ->
      Hashtbl.reset t.table;
      Queue.clear t.order;
      t.hits <- 0;
      t.misses <- 0;
      t.evictions <- 0)

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

let timing_prefix = "timing."

let evict_to_capacity t =
  while Hashtbl.length t.table >= t.capacity do
    Hashtbl.remove t.table (Queue.pop t.order);
    t.evictions <- t.evictions + 1;
    Obs.count "session.cache.evict"
  done

let compile_ns = "compile"

(* The in-flight-deduplicated miss protocol, shared by [compile] and
   [timing]. Returns [`Hit record] or [`Miss]; a [`Miss] caller holds the
   in-flight claim and runs its branch under [holding_claim]. *)
let acquire t key =
  let rec go () =
    match Hashtbl.find_opt t.table key with
    | Some r ->
      t.hits <- t.hits + 1;
      `Hit r
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
      evict_to_capacity t;
      Hashtbl.replace t.table key record;
      Queue.push key t.order;
      release t key ())

let record_of_outcome outcome gauges =
  match outcome with
  | Ok c ->
    Artifact.Success
      { Artifact.latency_cycles = c.Compiler.latency_cycles;
        timing = c.Compiler.timing;
        gauges }
  | Error e ->
    Artifact.Failure
      { kind = Compiler.error_kind e; message = Compiler.error_to_string e }

let publish_gauges = function
  | Artifact.Success r ->
    List.iter (fun (name, v) -> Obs.gauge name v) r.Artifact.gauges
  | Artifact.Failure _ -> ()

(* A hit re-publishes the gauges captured at the entry's cold compile. *)
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

(* The cold path both [compile] and [timing] fall back to: run the real
   compiler, capture its gauges, write the record through and land it. *)
let compile_cold t ?pool ~extra_regs_per_thread ~key params spec =
  let outcome =
    Compiler.compile ?pool ~hw:t.hw ~extra_regs_per_thread params spec
  in
  (* Capture-local read: under a pool this sees only the gauges this
     very compile published, never another domain's. *)
  let gauges =
    match outcome with
    | Ok _ -> Obs.gauges_with_prefix timing_prefix
    | Error _ -> []
  in
  let record = record_of_outcome outcome gauges in
  store_write t key record;
  land_entry t key record;
  (outcome, record)

let compile t ?pool ?(extra_regs_per_thread = 0)
    (params : Alcop_perfmodel.Params.t) (spec : Op_spec.t) =
  if not t.cache then
    Compiler.compile ?pool ~hw:t.hw ~extra_regs_per_thread params spec
  else begin
    let key =
      Fingerprint.compile_key ~hw:t.hw ~extra_regs_per_thread params spec
    in
    match acquire t key with
    | `Hit record ->
      (* The memo keeps only the record, so rebuild the artifact. The
         rebuild's own telemetry is captured and dropped: a hit emits
         exactly the hit counter and the recorded gauges. *)
      let outcome =
        match
          Obs.capturing (fun () ->
              Compiler.compile ?pool ~hw:t.hw ~extra_regs_per_thread params
                spec)
        with
        | Ok outcome, _ -> outcome
        | Error (e, bt), _ -> Printexc.raise_with_backtrace e bt
      in
      count_hit record;
      outcome
    | `Miss ->
      holding_claim t key @@ fun () ->
      Obs.count "session.cache.miss";
      fst (compile_cold t ?pool ~extra_regs_per_thread ~key params spec)
  end

(* --- evaluation-grade lookups: may be served by the persistent store --- *)

type timed = {
  latency_cycles : float;
  timing : Alcop_gpusim.Timing.kernel_timing;
}

let timed_of_record = function
  | Artifact.Success r ->
    Ok { latency_cycles = r.Artifact.latency_cycles; timing = r.Artifact.timing }
  | Artifact.Failure { message; _ } -> Error message

let timing t ?pool ?(extra_regs_per_thread = 0)
    (params : Alcop_perfmodel.Params.t) (spec : Op_spec.t) =
  if not t.cache then
    timed_of_record
      (record_of_outcome
         (Compiler.compile ?pool ~hw:t.hw ~extra_regs_per_thread params spec)
         [])
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
         timed_of_record
           (snd (compile_cold t ?pool ~extra_regs_per_thread ~key params spec)))
  end

let evaluate t ?pool ?extra_regs_per_thread params spec =
  match timing t ?pool ?extra_regs_per_thread params spec with
  | Ok r -> Some r.latency_cycles
  | Error _ -> None

let evaluator t ?(extra_regs = fun _ -> 0) (spec : Op_spec.t) =
  fun (params : Alcop_perfmodel.Params.t) ->
    evaluate t ~extra_regs_per_thread:(extra_regs params) params spec

let trial_features t (spec : Op_spec.t) (r : Alcop_tune.Tuner.result) =
  Array.to_list r.Alcop_tune.Tuner.trials
  |> List.filter_map (fun (trial : Alcop_tune.Tuner.trial) ->
         match trial.cost with
         | None -> None
         | Some _ ->
           (match compile t trial.params spec with
            | Error _ -> None
            | Ok c ->
              (match
                 Alcop_gpusim.Pipeview.run ~op:spec.Op_spec.name
                   ~schedule:(Alcop_perfmodel.Params.to_string trial.params)
                   c.Compiler.timing_request
               with
               | Ok v -> Some (trial.index, Alcop_gpusim.Pipeview.features v)
               | Error _ -> None)))
