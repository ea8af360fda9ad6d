(* Fixed-size domain pool. The scheduling core is deliberately tiny: one
   mutex-guarded queue of [unit -> unit] thunks, workers blocked on a
   condition variable, and a per-batch remaining-counter so the
   coordinator can wait for exactly its own batch. Determinism does not
   come from scheduling (tasks complete in any order) but from the
   consume side: results land in a pre-sized slot array by index, and the
   coordinator walks the slots in order, replaying each task's captured
   telemetry (Obs.capturing / Obs.replay) right before delivering its
   result. *)

module Obs = Alcop_obs.Obs
module Hostprof = Alcop_obs.Hostprof

(* Host-profiler probes (doc/hostprof.md). These write to per-domain
   shards outside the capture/replay path, so instrumenting the pool's
   own machinery cannot perturb the determinism contract below. *)
let queue_probe = Hostprof.make_lock "pool.queue"
let batch_probe = Hostprof.make_lock "pool.batch"

type t = {
  pool_jobs : int;
  lock : Mutex.t;
  work : Condition.t;  (* queue non-empty, or shutting down *)
  queue : (unit -> unit) Queue.t;
  mutable stop : bool;
  mutable workers : unit Domain.t list;
}

let default_jobs () =
  match Option.bind (Sys.getenv_opt "ALCOP_JOBS") int_of_string_opt with
  | Some n when n >= 1 -> n
  | Some _ | None -> Domain.recommended_domain_count ()

let worker_loop t i =
  Hostprof.set_role (Printf.sprintf "worker-%d" i);
  let rec next () =
    Hostprof.lock_acquire queue_probe t.lock;
    while Queue.is_empty t.queue && not t.stop do
      (* blocked waiting for work: an idle interval on this worker's
         host-profile track (the wait releases [t.lock]) *)
      Hostprof.idle (fun () -> Condition.wait t.work t.lock)
    done;
    match Queue.take_opt t.queue with
    | Some task ->
      Mutex.unlock t.lock;
      task ();
      next ()
    | None -> Mutex.unlock t.lock (* stop, queue drained *)
  in
  next ()

let create ?jobs () =
  let pool_jobs =
    match jobs with Some n -> n | None -> default_jobs ()
  in
  if pool_jobs < 1 then
    invalid_arg (Printf.sprintf "Pool.create: jobs = %d (must be >= 1)" pool_jobs);
  let t =
    { pool_jobs; lock = Mutex.create (); work = Condition.create ();
      queue = Queue.create (); stop = false; workers = [] }
  in
  if pool_jobs > 1 then
    t.workers <-
      List.init pool_jobs (fun i -> Domain.spawn (fun () -> worker_loop t i));
  t

let shutdown t =
  if t.workers <> [] then begin
    Mutex.lock t.lock;
    t.stop <- true;
    Condition.broadcast t.work;
    Mutex.unlock t.lock;
    List.iter Domain.join t.workers;
    t.workers <- []
  end

let with_pool ?jobs f =
  let t = create ?jobs () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

(* Enqueue the thunks and block until all of them ran. Thunks must not
   raise — batch builders wrap the user function in [Obs.capturing],
   which already converts exceptions into values. *)
let run_batch t thunks =
  match thunks with
  | [] -> ()
  | _ ->
    let batch_lock = Mutex.create () in
    let batch_done = Condition.create () in
    let remaining = ref (List.length thunks) in
    let wrap thunk =
      (* wrap-time = enqueue-time (just before [Queue.add] below); the
         token lets the profiler report enqueue->start queue latency *)
      let enqueue = Hostprof.task_enqueued () in
      fun () ->
        Hostprof.task ~enqueue thunk;
        Hostprof.lock_acquire batch_probe batch_lock;
        decr remaining;
        if !remaining = 0 then Condition.signal batch_done;
        Mutex.unlock batch_lock
    in
    Hostprof.lock_acquire queue_probe t.lock;
    List.iter (fun thunk -> Queue.add (wrap thunk) t.queue) thunks;
    Condition.broadcast t.work;
    Mutex.unlock t.lock;
    Hostprof.lock_acquire batch_probe batch_lock;
    Hostprof.batch_wait (fun () ->
        while !remaining > 0 do
          Condition.wait batch_done batch_lock
        done);
    Mutex.unlock batch_lock

type ('b) slot = ('b, exn * Printexc.raw_backtrace) result * Obs.recorded

let deliver ?each i (outcome, recorded) =
  Obs.replay recorded;
  match outcome with
  | Ok y ->
    (match each with Some g -> g i y | None -> ());
    y
  | Error (e, bt) -> Printexc.raise_with_backtrace e bt

let map_array ?each t f xs =
  let n = Array.length xs in
  if n = 0 then [||]
  else if t.pool_jobs = 1 || n = 1 then
    (* Inline: no capture, no replay — the canonical sequential order. *)
    Array.mapi
      (fun i x ->
        let y = Hostprof.task (fun () -> f x) in
        (match each with Some g -> g i y | None -> ());
        y)
      xs
  else begin
    let slots : 'b slot option array = Array.make n None in
    let thunks =
      List.init n (fun i () ->
          let outcome, recorded = Obs.capturing (fun () -> f xs.(i)) in
          (* Distinct slots per task; the batch counter's mutex publishes
             the writes to the coordinator. *)
          slots.(i) <- Some (outcome, recorded))
    in
    run_batch t thunks;
    Array.mapi
      (fun i _ ->
        match slots.(i) with
        | Some slot -> deliver ?each i slot
        | None -> assert false)
      xs
  end

let map t f xs = Array.to_list (map_array t f (Array.of_list xs))
