(* Host-side wall-clock profiler. See the interface for the two
   contracts (determinism: shards only, never the Obs tables; accounting:
   integer-ns buckets that telescope exactly to each worker's wall).

   Collection model: every domain owns one shard per profiling window
   (cached in Domain.DLS, registered once in a global list under a small
   mutex). Probes append interval records and bump per-lock / per-pass
   accumulators on the local shard only, so the hot path takes no shared
   lock and cannot perturb the capture/replay determinism machinery.
   [stop] runs after worker domains are joined (a happens-before edge),
   reads every shard, and sweeps each shard's chronological interval list
   once: gaps between intervals become queue (before a task, on a worker)
   or idle / serial-busy time, intervals land in their own bucket, and the
   trailing remainder closes the window — every nanosecond of [0, wall]
   is assigned to exactly one bucket, which is what makes the telescoping
   invariant exact rather than approximate. *)

(* GC bucket cost model: quick_stat gives words and collection counts,
   not time, so the gc bucket is *estimated* — allocation-rate pricing at
   a fixed cost per minor-heap word plus a surcharge per promoted word —
   and clamped into the enclosing task's run time so the telescoping
   identity stays exact. The word/collection counts themselves are exact
   measurements; see doc/hostprof.md before reading the gc column as
   ground truth. *)
let gc_ns_per_minor_word = 0.35
let gc_ns_per_promoted_word = 2.0

type record_ =
  | R_task of {
      enqueue_ns : int;
      start_ns : int;
      finish_ns : int;
      lock_ns : int;
      minor_words : float;
      promoted_words : float;
      minor_collections : int;
      major_collections : int;
    }
  | R_idle of int * int
  | R_wait of int * int  (* lock wait outside any task *)
  | R_batch of int * int  (* coordinator blocked on a batch *)

type lock_acc = {
  mutable la_count : int;
  mutable la_contended : int;
  mutable la_wait_ns : int;
  mutable la_hist : Obs.histogram;
}

type pass_acc = {
  mutable ps_runs : int;
  mutable ps_minor : float;
  mutable ps_promoted : float;
}

type shard = {
  sh_epoch : int;
  sh_role : string;
  mutable sh_records : record_ list;  (* reverse chronological *)
  sh_locks : (string, lock_acc) Hashtbl.t;
  sh_passes : (string, pass_acc) Hashtbl.t;
  mutable sh_in_task : bool;
  mutable sh_task_lock_ns : int;
}

let active = Atomic.make false
let epoch = Atomic.make 0
let origin = ref 0.0  (* published by the Atomic.set of [active] *)

(* Process CPU time, user + system, of every domain and thread. *)
let cpu_ns () =
  let t = Unix.times () in
  int_of_float ((t.Unix.tms_utime +. t.Unix.tms_stime) *. 1e9)

let cpu_origin = ref 0
let shards_m = Mutex.create ()
let shards : shard list ref = ref []

let role_cell : string ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref "coordinator")

let shard_cell : shard option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let on () = Atomic.get active
let set_role r = Domain.DLS.get role_cell := r

let tick () = int_of_float ((Unix.gettimeofday () -. !origin) *. 1e9)

let shard () =
  let cell = Domain.DLS.get shard_cell in
  let ep = Atomic.get epoch in
  match !cell with
  | Some s when s.sh_epoch = ep -> s
  | _ ->
    let s =
      { sh_epoch = ep; sh_role = !(Domain.DLS.get role_cell);
        sh_records = []; sh_locks = Hashtbl.create 8;
        sh_passes = Hashtbl.create 8; sh_in_task = false; sh_task_lock_ns = 0 }
    in
    cell := Some s;
    Mutex.lock shards_m;
    shards := s :: !shards;
    Mutex.unlock shards_m;
    s

(* --- probes --- *)

let task_enqueued () = if on () then tick () else min_int

(* [Gc.minor_words] reads the domain's allocation pointer, so it is exact
   even between minor collections; [quick_stat.minor_words] only advances
   at collection boundaries and would report 0 for small sections. *)
let task ?(enqueue = min_int) f =
  if not (on ()) then f ()
  else begin
    let s = shard () in
    let prev_in = s.sh_in_task and prev_lock = s.sh_task_lock_ns in
    let mw0 = Gc.minor_words () in
    let g0 = Gc.quick_stat () in
    let t0 = tick () in
    s.sh_in_task <- true;
    s.sh_task_lock_ns <- 0;
    let finish () =
      let t1 = tick () in
      let g1 = Gc.quick_stat () in
      let lock_ns = s.sh_task_lock_ns in
      s.sh_in_task <- prev_in;
      s.sh_task_lock_ns <- prev_lock;
      s.sh_records <-
        R_task
          { enqueue_ns = (if enqueue = min_int then t0 else min enqueue t0);
            start_ns = t0; finish_ns = max t1 t0; lock_ns;
            minor_words = Gc.minor_words () -. mw0;
            promoted_words = g1.Gc.promoted_words -. g0.Gc.promoted_words;
            minor_collections = g1.Gc.minor_collections - g0.Gc.minor_collections;
            major_collections = g1.Gc.major_collections - g0.Gc.major_collections }
        :: s.sh_records
    in
    match f () with
    | v -> finish (); v
    | exception e -> finish (); raise e
  end

let interval mk f =
  if not (on ()) then f ()
  else begin
    let t0 = tick () in
    let fin () =
      let s = shard () in
      s.sh_records <- mk t0 (max t0 (tick ())) :: s.sh_records
    in
    match f () with
    | v -> fin (); v
    | exception e -> fin (); raise e
  end

let idle f = interval (fun a b -> R_idle (a, b)) f
let batch_wait f = interval (fun a b -> R_batch (a, b)) f

type lock = { lk_name : string }

let make_lock lk_name = { lk_name }

let lock_acc_of s l =
  match Hashtbl.find_opt s.sh_locks l.lk_name with
  | Some acc -> acc
  | None ->
    let acc =
      { la_count = 0; la_contended = 0; la_wait_ns = 0;
        la_hist = Obs.hist_empty () }
    in
    Hashtbl.add s.sh_locks l.lk_name acc;
    acc

let charge_wait l ~t0 ~t1 =
  let s = shard () in
  let acc = lock_acc_of s l in
  let w = max 0 (t1 - t0) in
  acc.la_count <- acc.la_count + 1;
  acc.la_contended <- acc.la_contended + 1;
  acc.la_wait_ns <- acc.la_wait_ns + w;
  acc.la_hist <- Obs.hist_observe acc.la_hist (float_of_int w *. 1e-9);
  if s.sh_in_task then s.sh_task_lock_ns <- s.sh_task_lock_ns + w
  else if w > 0 then s.sh_records <- R_wait (t0, t1) :: s.sh_records

let lock_acquire l m =
  if not (on ()) then Mutex.lock m
  else if Mutex.try_lock m then begin
    (* uncontended fast path: count it, skip the clock reads *)
    let acc = lock_acc_of (shard ()) l in
    acc.la_count <- acc.la_count + 1
  end
  else begin
    let t0 = tick () in
    Mutex.lock m;
    charge_wait l ~t0 ~t1:(tick ())
  end

let locked l m f =
  lock_acquire l m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

let blocking l f =
  if not (on ()) then f ()
  else begin
    let t0 = tick () in
    match f () with
    | v -> charge_wait l ~t0 ~t1:(tick ()); v
    | exception e -> charge_wait l ~t0 ~t1:(tick ()); raise e
  end

let pass_acc_of s name =
  match Hashtbl.find_opt s.sh_passes name with
  | Some acc -> acc
  | None ->
    let acc = { ps_runs = 0; ps_minor = 0.0; ps_promoted = 0.0 } in
    Hashtbl.add s.sh_passes name acc;
    acc

(* Per-pass sampling runs ~5x per compile on the tuning hot path, so it
   uses domain-local reads (~20ns) rather than [Gc.quick_stat] (~1.2us:
   cross-domain stat aggregation) — that is the difference between <1%
   and ~6% overhead on the fig10 sweep. The trade: per-pass collection
   *counts* are not sampled (they live at task granularity, where the 2
   quick_stat calls amortize over a whole compile). Minor words come from
   [Gc.minor_words], which reads the allocation pointer: [Gc.counters]
   misses most of the words allocated since the last minor collection
   (1000 cons cells read as 376 words on OCaml 5.1.1). Promoted words
   only change at a collection, so [Gc.counters] is exact for them. *)
let pass_sample name f =
  if not (on ()) then f ()
  else begin
    let s = shard () in
    let mw0 = Gc.minor_words () in
    let _, pw0, _ = Gc.counters () in
    let fin () =
      let mw1 = Gc.minor_words () in
      let _, pw1, _ = Gc.counters () in
      let acc = pass_acc_of s name in
      acc.ps_runs <- acc.ps_runs + 1;
      acc.ps_minor <- acc.ps_minor +. (mw1 -. mw0);
      acc.ps_promoted <- acc.ps_promoted +. (pw1 -. pw0)
    in
    match f () with
    | v -> fin (); v
    | exception e -> fin (); raise e
  end

(* --- profile data --- *)

type worker = {
  w_role : string;
  w_wall_ns : int;
  w_busy_ns : int;
  w_queue_ns : int;
  w_lock_ns : int;
  w_gc_ns : int;
  w_idle_ns : int;
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
  l_hist : Obs.histogram;
}

type pass_alloc = {
  p_pass : string;
  p_runs : int;
  pa_minor_words : float;
  pa_promoted_words : float;
}

type span = {
  sp_track : string;
  sp_label : string;
  sp_start_ns : int;
  sp_end_ns : int;
  sp_queue_ns : int;
  sp_lock_ns : int;
  sp_minor_words : float;
}

type profile = {
  p_wall_ns : int;
  p_cpu_ns : int;
  p_jobs : int;
  p_workers : worker list;
  p_locks : lock_stat list;
  p_passes : pass_alloc list;
  p_queue_hist : Obs.histogram;
  p_spans : span list;
}

(* --- analysis --- *)

let coordinator_role = "coordinator"

(* "worker-10" must sort after "worker-2" *)
let role_key r =
  match String.rindex_opt r '-' with
  | Some i -> (
    match int_of_string_opt (String.sub r (i + 1) (String.length r - i - 1)) with
    | Some n -> (String.sub r 0 i, n, r)
    | None -> (r, -1, r))
  | None -> (r, -1, r)

let record_bounds = function
  | R_task t -> (t.start_ns, t.finish_ns)
  | R_idle (a, b) | R_wait (a, b) | R_batch (a, b) -> (a, b)

(* One pass over a shard's chronological records: assign every ns of
   [0, wall] to exactly one bucket. Gaps between recorded intervals are
   serial busy time on the coordinator; on a worker a gap that ends at a
   task start is queue/dispatch machinery (except the leading gap — the
   worker did not exist or was blocked from before the window opened) and
   any other gap is idle. *)
let buckets_of_shard ~wall ~coordinator records =
  let busy = ref 0 and queue = ref 0 and lck = ref 0 in
  let gc = ref 0 and idl = ref 0 in
  let tasks = ref 0 in
  let minor = ref 0.0 and promoted = ref 0.0 in
  let minorc = ref 0 and majorc = ref 0 in
  let cursor = ref 0 and first = ref true in
  List.iter
    (fun r ->
      let a0, b0 = record_bounds r in
      let a = min wall (max a0 !cursor) in
      let b = min wall (max b0 a) in
      let gap = a - !cursor in
      (if coordinator then busy := !busy + gap
       else
         match r with
         | R_task _ when not !first -> queue := !queue + gap
         | _ -> idl := !idl + gap);
      (match r with
       | R_task t ->
         incr tasks;
         minor := !minor +. t.minor_words;
         promoted := !promoted +. t.promoted_words;
         minorc := !minorc + t.minor_collections;
         majorc := !majorc + t.major_collections;
         let run = b - a in
         let lock_in = max 0 (min t.lock_ns run) in
         let gc_est =
           int_of_float
             ((t.minor_words *. gc_ns_per_minor_word)
              +. (t.promoted_words *. gc_ns_per_promoted_word))
         in
         let gc_in = max 0 (min gc_est (run - lock_in)) in
         busy := !busy + (run - lock_in - gc_in);
         lck := !lck + lock_in;
         gc := !gc + gc_in
       | R_idle _ -> idl := !idl + (b - a)
       | R_wait _ -> lck := !lck + (b - a)
       | R_batch _ -> idl := !idl + (b - a));
      cursor := b;
      first := false)
    records;
  let trailing = wall - !cursor in
  if coordinator then busy := !busy + trailing else idl := !idl + trailing;
  fun role ->
    { w_role = role; w_wall_ns = wall; w_busy_ns = !busy; w_queue_ns = !queue;
      w_lock_ns = !lck; w_gc_ns = !gc; w_idle_ns = !idl; w_tasks = !tasks;
      w_minor_words = !minor; w_promoted_words = !promoted;
      w_minor_collections = !minorc; w_major_collections = !majorc }

let spans_of_shard role records =
  List.filter_map
    (fun r ->
      let a, b = record_bounds r in
      let mk label queue_ns lock_ns minor =
        Some
          { sp_track = role; sp_label = label; sp_start_ns = a;
            sp_end_ns = max a b; sp_queue_ns = queue_ns; sp_lock_ns = lock_ns;
            sp_minor_words = minor }
      in
      match r with
      | R_task t ->
        mk "pool.task" (max 0 (t.start_ns - t.enqueue_ns)) t.lock_ns
          t.minor_words
      | R_idle _ -> mk "(idle)" 0 0 0.0
      | R_wait _ -> mk "(lock-wait)" 0 (max 0 (b - a)) 0.0
      | R_batch _ -> mk "(batch-wait)" 0 0 0.0)
    records

let analyze ~wall ~cpu shard_list =
  (* Deterministic order: coordinator shards first, then workers by
     numeric-aware role; duplicate roles (two pools in one window) get a
     #n suffix so every row stays visible. *)
  let sorted =
    List.stable_sort
      (fun a b ->
        match
          (String.equal a.sh_role coordinator_role,
           String.equal b.sh_role coordinator_role)
        with
        | true, false -> -1
        | false, true -> 1
        | _ -> compare (role_key a.sh_role) (role_key b.sh_role))
      shard_list
  in
  let seen = Hashtbl.create 8 in
  let named =
    List.map
      (fun sh ->
        let n =
          1 + Option.value ~default:0 (Hashtbl.find_opt seen sh.sh_role)
        in
        Hashtbl.replace seen sh.sh_role n;
        let role =
          if n = 1 then sh.sh_role else Printf.sprintf "%s#%d" sh.sh_role n
        in
        (role, sh))
      sorted
  in
  let workers =
    List.map
      (fun (role, sh) ->
        let coordinator = String.equal sh.sh_role coordinator_role in
        let records = List.rev sh.sh_records in
        buckets_of_shard ~wall ~coordinator records role)
      named
  in
  let locks = Hashtbl.create 8 in
  let passes = Hashtbl.create 8 in
  let queue_hist = ref (Obs.hist_empty ()) in
  List.iter
    (fun (_, sh) ->
      Hashtbl.iter
        (fun name (acc : lock_acc) ->
          let cur =
            match Hashtbl.find_opt locks name with
            | Some c -> c
            | None ->
              { l_name = name; l_acquisitions = 0; l_contended = 0;
                l_wait_ns = 0; l_hist = Obs.hist_empty () }
          in
          Hashtbl.replace locks name
            { cur with
              l_acquisitions = cur.l_acquisitions + acc.la_count;
              l_contended = cur.l_contended + acc.la_contended;
              l_wait_ns = cur.l_wait_ns + acc.la_wait_ns;
              l_hist = Obs.hist_merge cur.l_hist acc.la_hist })
        sh.sh_locks;
      Hashtbl.iter
        (fun name (acc : pass_acc) ->
          let cur =
            match Hashtbl.find_opt passes name with
            | Some c -> c
            | None ->
              { p_pass = name; p_runs = 0; pa_minor_words = 0.0;
                pa_promoted_words = 0.0 }
          in
          Hashtbl.replace passes name
            { cur with
              p_runs = cur.p_runs + acc.ps_runs;
              pa_minor_words = cur.pa_minor_words +. acc.ps_minor;
              pa_promoted_words = cur.pa_promoted_words +. acc.ps_promoted })
        sh.sh_passes;
      List.iter
        (fun r ->
          match r with
          | R_task t ->
            queue_hist :=
              Obs.hist_observe !queue_hist
                (float_of_int (max 0 (t.start_ns - t.enqueue_ns)) *. 1e-9)
          | _ -> ())
        sh.sh_records)
    named;
  let lock_list =
    List.sort
      (fun a b ->
        match compare b.l_wait_ns a.l_wait_ns with
        | 0 -> compare a.l_name b.l_name
        | c -> c)
      (Hashtbl.fold (fun _ v acc -> v :: acc) locks [])
  in
  let pass_list =
    List.sort
      (fun a b ->
        match compare b.pa_minor_words a.pa_minor_words with
        | 0 -> compare a.p_pass b.p_pass
        | c -> c)
      (Hashtbl.fold (fun _ v acc -> v :: acc) passes [])
  in
  let spans =
    List.sort
      (fun a b ->
        match compare a.sp_start_ns b.sp_start_ns with
        | 0 -> compare a.sp_track b.sp_track
        | c -> c)
      (List.concat_map
         (fun (role, sh) -> spans_of_shard role (List.rev sh.sh_records))
         named)
  in
  let jobs =
    List.length
      (List.filter
         (fun (_, sh) -> not (String.equal sh.sh_role coordinator_role))
         named)
  in
  { p_wall_ns = wall; p_cpu_ns = cpu; p_jobs = jobs; p_workers = workers; p_locks = lock_list;
    p_passes = pass_list; p_queue_hist = !queue_hist; p_spans = spans }

(* --- lifecycle --- *)

let start () =
  Mutex.lock shards_m;
  shards := [];
  Mutex.unlock shards_m;
  Atomic.incr epoch;
  origin := Unix.gettimeofday ();
  cpu_origin := cpu_ns ();
  Atomic.set active true;
  (* the starting domain is the coordinator; register its shard now so an
     all-inline window still has a row *)
  ignore (shard () : shard)

let stop () =
  if not (on ()) then invalid_arg "Hostprof.stop: no profiling window open";
  let wall = max 0 (tick ()) in
  let cpu = max 0 (cpu_ns () - !cpu_origin) in
  Atomic.set active false;
  Mutex.lock shards_m;
  let ss = !shards in
  shards := [];
  Mutex.unlock shards_m;
  let ep = Atomic.get epoch in
  analyze ~wall ~cpu (List.filter (fun s -> s.sh_epoch = ep) ss)

(* --- derived metrics --- *)

let check p =
  let rec go = function
    | [] -> Ok ()
    | w :: rest ->
      let sum =
        w.w_busy_ns + w.w_queue_ns + w.w_lock_ns + w.w_gc_ns + w.w_idle_ns
      in
      if sum <> w.w_wall_ns then
        Error
          (Printf.sprintf
             "%s: buckets sum to %d ns, wall is %d ns (busy=%d queue=%d \
              lock=%d gc=%d idle=%d)"
             w.w_role sum w.w_wall_ns w.w_busy_ns w.w_queue_ns w.w_lock_ns
             w.w_gc_ns w.w_idle_ns)
      else if
        w.w_busy_ns < 0 || w.w_queue_ns < 0 || w.w_lock_ns < 0
        || w.w_gc_ns < 0 || w.w_idle_ns < 0
      then Error (Printf.sprintf "%s: negative bucket" w.w_role)
      else go rest
  in
  go p.p_workers

let is_coordinator w =
  String.equal w.w_role coordinator_role
  || (String.length w.w_role > 11
      && String.equal (String.sub w.w_role 0 12) (coordinator_role ^ "#"))

(* Coordinator busy time / wall: the [s] of Amdahl's law. *)
let serial_fraction p =
  if p.p_wall_ns <= 0 then 0.0
  else
    let coord =
      List.fold_left
        (fun acc w -> if is_coordinator w then acc + w.w_busy_ns else acc)
        0 p.p_workers
    in
    float_of_int coord /. float_of_int p.p_wall_ns

(* Total busy time across all domains / wall: how many domains were
   inside a task on average (the achieved, not nominal, [-j]). Busy is
   wall time, so a descheduled domain still counts as busy. *)
let effective_parallelism p =
  if p.p_wall_ns <= 0 then 0.0
  else
    let busy =
      List.fold_left (fun acc w -> acc + w.w_busy_ns) 0 p.p_workers
    in
    float_of_int busy /. float_of_int p.p_wall_ns

(* Process CPU time / wall: how many CPUs actually ran the process on
   average. Below [effective_parallelism] when busy domains wait for a
   CPU. *)
let cpu_parallelism p =
  if p.p_wall_ns <= 0 then 0.0
  else float_of_int p.p_cpu_ns /. float_of_int p.p_wall_ns

(* Amdahl projection from the measured serial fraction:
   [1 / (s + (1 - s) / jobs)]. *)
let expected_speedup p ~jobs =
  let jobs = max 1 jobs in
  let s = Float.max 0.0 (Float.min 1.0 (serial_fraction p)) in
  1.0 /. (s +. ((1.0 -. s) /. float_of_int jobs))

(* --- text report --- *)

let ms ns = float_of_int ns /. 1e6

let pct ~wall ns =
  if wall <= 0 then 0.0 else 100.0 *. float_of_int ns /. float_of_int wall

let fmt_dur_s s =
  if Float.is_nan s then "-"
  else if s < 1e-3 then Printf.sprintf "%.1fus" (s *. 1e6)
  else if s < 1.0 then Printf.sprintf "%.2fms" (s *. 1e3)
  else Printf.sprintf "%.3fs" s

let report ?(top = 5) p =
  let b = Buffer.create 2048 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  line "== host profile: wall %.1f ms, %d worker domain%s ==" (ms p.p_wall_ns)
    p.p_jobs
    (if p.p_jobs = 1 then "" else "s");
  line "%-16s %10s %7s %7s %7s %7s %7s %7s" "track" "wall(ms)" "busy"
    "queue" "lock" "gc" "idle" "tasks";
  List.iter
    (fun w ->
      let wall = w.w_wall_ns in
      line "%-16s %10.1f %6.1f%% %6.1f%% %6.1f%% %6.1f%% %6.1f%% %7d"
        w.w_role (ms wall)
        (pct ~wall w.w_busy_ns) (pct ~wall w.w_queue_ns)
        (pct ~wall w.w_lock_ns) (pct ~wall w.w_gc_ns) (pct ~wall w.w_idle_ns)
        w.w_tasks)
    p.p_workers;
  let s = serial_fraction p in
  let eff = effective_parallelism p in
  let nominal = max 1 (if p.p_jobs = 0 then 1 else p.p_jobs) in
  line "serial (coordinator busy): %.1f%% of wall" (100.0 *. s);
  line "effective parallelism:     %.2f domains busy on average (nominal %d)"
    eff nominal;
  line "process CPU (user+sys):    %.1f ms, %.2f CPUs busy on average"
    (ms p.p_cpu_ns) (cpu_parallelism p);
  line "Amdahl: expected speedup <= %.2fx at j=%d (ideal %.1fx)"
    (expected_speedup p ~jobs:nominal)
    nominal (float_of_int nominal);
  (* speedup loss, in worker-equivalents: how many whole workers each
     non-busy bucket cost across the fleet *)
  let weq sel =
    if p.p_wall_ns <= 0 then 0.0
    else
      float_of_int
        (List.fold_left
           (fun acc w -> if is_coordinator w then acc else acc + sel w)
           0 p.p_workers)
      /. float_of_int p.p_wall_ns
  in
  if p.p_jobs > 0 then
    line
      "speedup loss (worker-equivalents): idle %.2f, lock %.2f, queue %.2f, \
       gc %.2f"
      (weq (fun w -> w.w_idle_ns))
      (weq (fun w -> w.w_lock_ns))
      (weq (fun w -> w.w_queue_ns))
      (weq (fun w -> w.w_gc_ns));
  (match p.p_locks with
   | [] -> ()
   | locks ->
     line "top contended locks (by total wait):";
     List.iteri
       (fun i l ->
         if i < top then
           line "  %-20s %7d acq, %5d contended, %9.3f ms waited (p50 %s p99 %s)"
             l.l_name l.l_acquisitions l.l_contended (ms l.l_wait_ns)
             (fmt_dur_s (Obs.hist_percentile l.l_hist 0.50))
             (fmt_dur_s (Obs.hist_percentile l.l_hist 0.99)))
       locks);
  (match p.p_passes with
   | [] -> ()
   | passes ->
     line "allocation-heaviest passes (minor words/run):";
     List.iteri
       (fun i pa ->
         if i < top then
           line "  %-20s %6d runs, %10.3g minor w/run, %10.3g promoted w/run"
             pa.p_pass pa.p_runs
             (if pa.p_runs = 0 then 0.0
              else pa.pa_minor_words /. float_of_int pa.p_runs)
             (if pa.p_runs = 0 then 0.0
              else pa.pa_promoted_words /. float_of_int pa.p_runs))
       passes);
  if p.p_queue_hist.Obs.h_count > 0 then
    line "task queue latency: %d tasks, p50 %s p90 %s p99 %s"
      p.p_queue_hist.Obs.h_count
      (fmt_dur_s (Obs.hist_percentile p.p_queue_hist 0.50))
      (fmt_dur_s (Obs.hist_percentile p.p_queue_hist 0.90))
      (fmt_dur_s (Obs.hist_percentile p.p_queue_hist 0.99));
  Buffer.contents b

(* --- export --- *)

let sec ns = float_of_int ns /. 1e9

(* tid per track: coordinator 0, then workers 1.. in p_workers order *)
let tid_table p =
  let t = Hashtbl.create 8 in
  List.iteri (fun i w -> Hashtbl.replace t w.w_role i) p.p_workers;
  fun role -> Option.value ~default:99 (Hashtbl.find_opt t role)

(* An explicit time origin first, so the trace opens at the window start
   even when the first span starts later. *)
let events p =
  let tid_of = tid_table p in
  Obs.Span_begin { name = "hostprof.window"; ts = 0.0; depth = 0 }
  :: List.map
       (fun sp ->
         let fields =
           [ ("#pid", Json.Int 1); ("#tid", Json.Int (tid_of sp.sp_track));
             ("#process_name", Json.Str "alcop host");
             ("#thread_name", Json.Str sp.sp_track);
             ("queue_us", Json.Float (float_of_int sp.sp_queue_ns /. 1e3));
             ("lock_us", Json.Float (float_of_int sp.sp_lock_ns /. 1e3));
             ("minor_words", Json.Float sp.sp_minor_words) ]
         in
         Obs.Span_end
           { name = sp.sp_label; ts = sec sp.sp_start_ns;
             dur = sec (sp.sp_end_ns - sp.sp_start_ns); depth = 0; fields })
       p.p_spans

let json_of_hist h =
  Json.Obj
    [ ("count", Json.Int h.Obs.h_count); ("sum_s", Json.Float h.Obs.h_sum);
      ("p50_s", Json.Float (Obs.hist_percentile h 0.50));
      ("p90_s", Json.Float (Obs.hist_percentile h 0.90));
      ("p99_s", Json.Float (Obs.hist_percentile h 0.99)) ]

let json_of_profile p =
  let nominal = max 1 (if p.p_jobs = 0 then 1 else p.p_jobs) in
  Json.Obj
    [ ("schema", Json.Str "alcop-hostprof-v1");
      ("wall_ns", Json.Int p.p_wall_ns); ("jobs", Json.Int p.p_jobs);
      ("serial_fraction", Json.Float (serial_fraction p));
      ("effective_parallelism", Json.Float (effective_parallelism p));
      ("cpu_ns", Json.Int p.p_cpu_ns);
      ("cpu_parallelism", Json.Float (cpu_parallelism p));
      ("expected_speedup", Json.Float (expected_speedup p ~jobs:nominal));
      ("workers",
       Json.List
         (List.map
            (fun w ->
              Json.Obj
                [ ("role", Json.Str w.w_role);
                  ("wall_ns", Json.Int w.w_wall_ns);
                  ("busy_ns", Json.Int w.w_busy_ns);
                  ("queue_ns", Json.Int w.w_queue_ns);
                  ("lock_ns", Json.Int w.w_lock_ns);
                  ("gc_ns", Json.Int w.w_gc_ns);
                  ("idle_ns", Json.Int w.w_idle_ns);
                  ("tasks", Json.Int w.w_tasks);
                  ("minor_words", Json.Float w.w_minor_words);
                  ("promoted_words", Json.Float w.w_promoted_words);
                  ("minor_collections", Json.Int w.w_minor_collections);
                  ("major_collections", Json.Int w.w_major_collections) ])
            p.p_workers));
      ("locks",
       Json.List
         (List.map
            (fun l ->
              Json.Obj
                [ ("name", Json.Str l.l_name);
                  ("acquisitions", Json.Int l.l_acquisitions);
                  ("contended", Json.Int l.l_contended);
                  ("wait_ns", Json.Int l.l_wait_ns);
                  ("wait", json_of_hist l.l_hist) ])
            p.p_locks));
      ("passes",
       Json.List
         (List.map
            (fun pa ->
              Json.Obj
                [ ("pass", Json.Str pa.p_pass); ("runs", Json.Int pa.p_runs);
                  ("minor_words", Json.Float pa.pa_minor_words);
                  ("promoted_words", Json.Float pa.pa_promoted_words) ])
            p.p_passes));
      ("task_queue_latency", json_of_hist p.p_queue_hist) ]
