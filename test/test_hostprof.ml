(* Tests for the host-side runtime profiler (Alcop_obs.Hostprof): the
   exact five-bucket telescoping invariant on real pool workloads at
   jobs 1 and 4, a QCheck property that opening a profiling window
   leaves pooled-tuner telemetry byte-identical (the determinism
   contract), lock-probe accounting under forced contention, a golden
   text report from a hand-built profile, profile exports, and the
   restored session.cache.entries gauge hammered against its FIFO
   capacity bound. *)

open Alcop_sched
open Alcop_par
module Obs = Alcop_obs.Obs
module Hostprof = Alcop_obs.Hostprof
module Json = Alcop_obs.Json
module Sinks = Alcop_obs.Sinks

let hw = Alcop_hw.Hw_config.default

(* --- telescoping: busy + queue + lock + gc + idle = wall, exactly --- *)

let sum_buckets w =
  Hostprof.(
    w.w_busy_ns + w.w_queue_ns + w.w_lock_ns + w.w_gc_ns + w.w_idle_ns)

let check_telescopes name (p : Hostprof.profile) =
  (match Hostprof.check p with
   | Ok () -> ()
   | Error e -> Alcotest.failf "%s: check failed: %s" name e);
  Alcotest.(check bool) (name ^ ": has workers") true (p.p_workers <> []);
  List.iter
    (fun w ->
      Alcotest.(check int)
        (Printf.sprintf "%s: %s buckets sum to wall" name w.Hostprof.w_role)
        w.Hostprof.w_wall_ns (sum_buckets w);
      List.iter
        (fun (b, v) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: %s %s >= 0" name w.Hostprof.w_role b)
            true (v >= 0))
        Hostprof.
          [ ("busy", w.w_busy_ns); ("queue", w.w_queue_ns);
            ("lock", w.w_lock_ns); ("gc", w.w_gc_ns); ("idle", w.w_idle_ns) ])
    p.p_workers

(* A real workload: concurrent Session compiles (contended per-session
   mutex + in-flight waits) plus plain pool tasks. *)
let profiled_workload jobs =
  let spec = Op_spec.matmul ~name:"hostprof_tel" ~m:64 ~n:64 ~k:128 () in
  let session = Alcop.Session.create ~hw () in
  let params i =
    Alcop_perfmodel.Params.make
      ~tiling:
        (Tiling.make ~tb_m:32 ~tb_n:32 ~tb_k:16 ~warp_m:16 ~warp_n:16
           ~warp_k:16 ())
      ~smem_stages:(2 + (i mod 2)) ~reg_stages:1 ()
  in
  Hostprof.start ();
  let results =
    Pool.with_pool ~jobs (fun p ->
        Pool.map p
          (fun i -> Alcop.Session.evaluate session (params i) spec)
          (List.init 16 Fun.id))
  in
  let prof = Hostprof.stop () in
  Alcotest.(check int) "all tasks evaluated" 16 (List.length results);
  prof

let test_telescoping_exact () =
  List.iter
    (fun jobs ->
      let p = profiled_workload jobs in
      check_telescopes (Printf.sprintf "jobs=%d" jobs) p;
      Alcotest.(check int)
        (Printf.sprintf "jobs=%d observed worker domains" jobs)
        (if jobs = 1 then 0 else jobs)
        p.Hostprof.p_jobs;
      Alcotest.(check bool)
        (Printf.sprintf "jobs=%d wall positive" jobs)
        true
        (p.Hostprof.p_wall_ns > 0))
    [ 1; 4 ]

(* Inline window with no pool at all: the coordinator alone telescopes. *)
let test_inline_window () =
  Hostprof.start ();
  let r =
    Hostprof.task (fun () ->
        Array.fold_left ( + ) 0 (Array.init 1000 Fun.id))
  in
  let p = Hostprof.stop () in
  Alcotest.(check int) "task ran" 499500 r;
  check_telescopes "inline" p;
  Alcotest.(check int) "no worker domains" 0 p.Hostprof.p_jobs;
  match p.Hostprof.p_workers with
  | [ w ] ->
    Alcotest.(check string) "role" "coordinator" w.Hostprof.w_role;
    Alcotest.(check int) "one task" 1 w.Hostprof.w_tasks
  | ws -> Alcotest.failf "expected one track, got %d" (List.length ws)

let test_check_rejects_violation () =
  Hostprof.start ();
  ignore (Hostprof.task (fun () -> 1 + 1));
  let p = Hostprof.stop () in
  let broken =
    Hostprof.
      { p with
        p_workers =
          List.map (fun w -> { w with w_busy_ns = w.w_busy_ns + 1 }) p.p_workers
      }
  in
  Alcotest.(check bool) "tampered profile rejected" true
    (Result.is_error (Hostprof.check broken))

(* --- determinism contract: profiling leaves telemetry byte-identical --- *)

let synth_space =
  let mk tb_m tb_n smem_stages =
    Alcop_perfmodel.Params.make
      ~tiling:
        (Tiling.make ~tb_m ~tb_n ~tb_k:16 ~warp_m:16 ~warp_n:16 ~warp_k:16 ())
      ~smem_stages ~reg_stages:1 ()
  in
  Array.of_list
    (List.concat_map
       (fun tb_m ->
         List.concat_map
           (fun tb_n -> List.map (mk tb_m tb_n) [ 2; 3 ])
           [ 16; 32 ])
       [ 16; 32; 64 ])

(* Allocates and emits telemetry like a real evaluator, deterministically. *)
let synth_cost (p : Alcop_perfmodel.Params.t) =
  let t = p.Alcop_perfmodel.Params.tiling in
  let v =
    (t.Tiling.tb_m * 7) + (t.Tiling.tb_n * 13)
    + (p.Alcop_perfmodel.Params.smem_stages * 31)
  in
  Obs.count "hostprof.prop.evals";
  Obs.observe "hostprof.prop.cost" (float_of_int (v mod 97));
  if v mod 5 = 0 then None else Some (float_of_int (1000 + (v mod 97)))

let install_fake_clock () =
  let t = ref 0.0 in
  Obs.set_clock (fun () ->
      t := !t +. 0.001;
      !t)

(* Run the tuner through a jobs=4 pool with full telemetry capture, with
   or without a host-profiling window open around it. *)
let tuned_telemetry ~profiled ~budget ~seed =
  Obs.reset ();
  install_fake_clock ();
  let sink, events = Obs.memory_sink () in
  Obs.add_sink sink;
  let spec = Op_spec.matmul ~name:"hostprof_prop" ~m:64 ~n:64 ~k:128 () in
  if profiled then Hostprof.start ();
  let result =
    Pool.with_pool ~jobs:4 (fun p ->
        Alcop_tune.Tuner.run ~pool:p ~hw ~spec ~space:synth_space
          ~evaluate:synth_cost ~budget ~seed Alcop_tune.Tuner.Grid)
  in
  if profiled then begin
    let prof = Hostprof.stop () in
    match Hostprof.check prof with
    | Ok () -> ()
    | Error e -> Alcotest.failf "telescoping violated under property: %s" e
  end;
  let evs = events () in
  let counters = Obs.counters () in
  let gauges = Obs.gauges () in
  let hists = Obs.histograms () in
  Obs.reset ();
  (result, evs, counters, gauges, hists)

let prop_profiling_leaves_telemetry_identical =
  QCheck.Test.make
    ~name:"host profiling leaves pooled tuning telemetry byte-identical"
    ~count:6
    QCheck.(pair small_nat (int_bound 1000))
    (fun (budget_raw, seed) ->
      let budget = 1 + (budget_raw mod 12) in
      let off = tuned_telemetry ~profiled:false ~budget ~seed in
      let on = tuned_telemetry ~profiled:true ~budget ~seed in
      let r0, e0, c0, g0, h0 = off and r1, e1, c1, g1, h1 = on in
      r0 = r1 && e0 = e1 && c0 = c1 && g0 = g1 && h0 = h1)

(* --- lock probes --- *)

let test_lock_probe_uncontended () =
  let probe = Hostprof.make_lock "test.free" in
  let m = Mutex.create () in
  Hostprof.start ();
  for _ = 1 to 5 do
    Hostprof.locked probe m (fun () -> ())
  done;
  let p = Hostprof.stop () in
  match
    List.find_opt
      (fun l -> l.Hostprof.l_name = "test.free")
      p.Hostprof.p_locks
  with
  | None -> Alcotest.fail "probe not reported"
  | Some l ->
    Alcotest.(check int) "acquisitions" 5 l.Hostprof.l_acquisitions;
    Alcotest.(check int) "never contended" 0 l.Hostprof.l_contended;
    Alcotest.(check int) "no wait" 0 l.Hostprof.l_wait_ns

let test_lock_probe_contended () =
  let probe = Hostprof.make_lock "test.contended" in
  let m = Mutex.create () in
  Hostprof.start ();
  Mutex.lock m;
  let d =
    Domain.spawn (fun () ->
        Hostprof.set_role "fighter";
        Hostprof.lock_acquire probe m;
        Mutex.unlock m)
  in
  Unix.sleepf 0.02;
  Mutex.unlock m;
  Domain.join d;
  let p = Hostprof.stop () in
  (match
     List.find_opt
       (fun l -> l.Hostprof.l_name = "test.contended")
       p.Hostprof.p_locks
   with
   | None -> Alcotest.fail "probe not reported"
   | Some l ->
     Alcotest.(check int) "one acquisition" 1 l.Hostprof.l_acquisitions;
     Alcotest.(check int) "contended" 1 l.Hostprof.l_contended;
     Alcotest.(check bool) "waited >= 10ms" true
       (l.Hostprof.l_wait_ns >= 10_000_000);
     Alcotest.(check int) "histogram observed once" 1
       l.Hostprof.l_hist.Obs.h_count);
  (* The fighter's wait must show up in its own wall decomposition. *)
  match
    List.find_opt
      (fun w -> w.Hostprof.w_role = "fighter")
      p.Hostprof.p_workers
  with
  | None -> Alcotest.fail "fighter track missing"
  | Some w ->
    Alcotest.(check bool) "lock bucket charged" true
      (w.Hostprof.w_lock_ns >= 10_000_000);
    Alcotest.(check int) "fighter telescopes" w.Hostprof.w_wall_ns
      (sum_buckets w)

(* --- probes are inert when no window is open --- *)

let test_probes_off_are_noops () =
  Alcotest.(check bool) "off" false (Hostprof.on ());
  Alcotest.(check int) "enqueue token" min_int (Hostprof.task_enqueued ());
  let r = Hostprof.task (fun () -> 42) in
  Alcotest.(check int) "task passthrough" 42 r;
  let probe = Hostprof.make_lock "test.off" in
  let m = Mutex.create () in
  Hostprof.locked probe m (fun () -> ());
  Alcotest.(check int) "idle passthrough" 7 (Hostprof.idle (fun () -> 7));
  Alcotest.(check int) "pass passthrough" 9
    (Hostprof.pass_sample "off" (fun () -> 9))

(* A sampled pass reports every minor word it allocates: a 1000-element
   list is 3000 words of cons cells, however few of them a minor
   collection has seen yet. *)
let test_pass_sample_counts_minor_words () =
  Hostprof.start ();
  let l = Hostprof.pass_sample "alloc" (fun () -> List.init 1000 Fun.id) in
  let p = Hostprof.stop () in
  Alcotest.(check int) "list built" 1000 (List.length l);
  match
    List.find_opt (fun pa -> pa.Hostprof.p_pass = "alloc") p.Hostprof.p_passes
  with
  | None -> Alcotest.fail "pass alloc missing from the profile"
  | Some pa ->
    Alcotest.(check int) "one run" 1 pa.Hostprof.p_runs;
    Alcotest.(check bool)
      (Printf.sprintf "minor words %.0f >= 3000" pa.Hostprof.pa_minor_words)
      true
      (pa.Hostprof.pa_minor_words >= 3000.0)

(* --- golden report --- *)

let golden_profile : Hostprof.profile =
  let worker role busy_ queue_ lock_ gc_ idle_ tasks_ =
    Hostprof.
      { w_role = role; w_wall_ns = 200_000_000; w_busy_ns = busy_;
        w_queue_ns = queue_; w_lock_ns = lock_; w_gc_ns = gc_;
        w_idle_ns = idle_; w_tasks = tasks_; w_minor_words = 1.0e6;
        w_promoted_words = 1.0e4; w_minor_collections = 12;
        w_major_collections = 1 }
  in
  Hostprof.
    { p_wall_ns = 200_000_000;
      p_cpu_ns = 190_000_000;
      p_jobs = 2;
      p_workers =
        [ worker "coordinator" 30_000_000 0 0 0 170_000_000 0;
          worker "worker-0" 150_000_000 10_000_000 20_000_000 5_000_000
            15_000_000 40;
          worker "worker-1" 140_000_000 12_000_000 8_000_000 10_000_000
            30_000_000 38 ];
      p_locks =
        [ { l_name = "session.lock"; l_acquisitions = 120; l_contended = 6;
            l_wait_ns = 28_000_000;
            l_hist =
              Obs.hist_of_values [ 0.001; 0.002; 0.004; 0.005; 0.006; 0.01 ]
          };
          { l_name = "pool.queue"; l_acquisitions = 80; l_contended = 0;
            l_wait_ns = 0; l_hist = Obs.hist_empty () } ];
      p_passes =
        [ { p_pass = "trace"; p_runs = 78; pa_minor_words = 2_496_000.0;
            pa_promoted_words = 312_000.0 };
          { p_pass = "lower"; p_runs = 78; pa_minor_words = 21_216.0;
            pa_promoted_words = 0.0 } ];
      p_queue_hist = Obs.hist_of_values [ 1e-4; 2e-4; 2e-4; 5e-4; 1e-3 ];
      p_spans =
        [ { sp_track = "worker-0"; sp_label = "pool.task";
            sp_start_ns = 1_000_000; sp_end_ns = 5_000_000;
            sp_queue_ns = 200_000; sp_lock_ns = 50_000;
            sp_minor_words = 32_000.0 };
          { sp_track = "worker-1"; sp_label = "pool.task";
            sp_start_ns = 1_500_000; sp_end_ns = 6_000_000;
            sp_queue_ns = 300_000; sp_lock_ns = 0;
            sp_minor_words = 30_000.0 } ] }

(* Pinned output of {!Hostprof.report} on the profile above: the format
   is part of the CLI surface ([alcop perf]). *)
let golden_report =
  {|== host profile: wall 200.0 ms, 2 worker domains ==
track              wall(ms)    busy   queue    lock      gc    idle   tasks
coordinator           200.0   15.0%    0.0%    0.0%    0.0%   85.0%       0
worker-0              200.0   75.0%    5.0%   10.0%    2.5%    7.5%      40
worker-1              200.0   70.0%    6.0%    4.0%    5.0%   15.0%      38
serial (coordinator busy): 15.0% of wall
effective parallelism:     1.60 domains busy on average (nominal 2)
process CPU (user+sys):    190.0 ms, 0.95 CPUs busy on average
Amdahl: expected speedup <= 1.74x at j=2 (ideal 2.0x)
speedup loss (worker-equivalents): idle 0.23, lock 0.14, queue 0.11, gc 0.07
top contended locks (by total wait):
  session.lock             120 acq,     6 contended,    28.000 ms waited (p50 4.22ms p99 10.00ms)
  pool.queue                80 acq,     0 contended,     0.000 ms waited (p50 - p99 -)
allocation-heaviest passes (minor words/run):
  trace                    78 runs,    3.2e+04 minor w/run,      4e+03 promoted w/run
  lower                    78 runs,        272 minor w/run,          0 promoted w/run
task queue latency: 5 tasks, p50 220.7us p90 1.00ms p99 1.00ms
|}

let test_report_golden () =
  Alcotest.(check string) "report golden" golden_report
    (Hostprof.report golden_profile)

(* The analysis numbers as [alcop perf --json-out] exports them
   ([json_of_profile]; its expected speedup is at the nominal j = 2). *)
let test_report_analysis_numbers () =
  let j = Hostprof.json_of_profile golden_profile in
  let num key =
    match Option.bind (Json.member key j) Json.number with
    | Some v -> v
    | None -> Alcotest.failf "json_of_profile has no number %s" key
  in
  Alcotest.(check (float 1e-9)) "serial fraction" 0.15
    (num "serial_fraction");
  Alcotest.(check (float 1e-9)) "effective parallelism" 1.6
    (num "effective_parallelism");
  Alcotest.(check (float 1e-9)) "process CPU time" 1.9e8 (num "cpu_ns");
  Alcotest.(check (float 1e-9)) "CPU parallelism" 0.95
    (num "cpu_parallelism");
  Alcotest.(check (float 1e-6)) "Amdahl at j=2"
    (1.0 /. (0.15 +. (0.85 /. 2.0)))
    (num "expected_speedup")

(* --- exports --- *)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let test_exports () =
  let p = golden_profile in
  let dir = Filename.temp_file "hostprof" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let trace = Filename.concat dir "host.trace.json" in
  Sinks.emit_all (Sinks.chrome_trace_file trace) (Hostprof.events p);
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  let t = read_file trace in
  Alcotest.(check bool) "trace names the host process" true
    (contains t "alcop host");
  (match Hostprof.json_of_profile p with
   | Json.Obj fields ->
     (match List.assoc_opt "schema" fields with
      | Some (Json.Str s) -> Alcotest.(check string) "schema" "alcop-hostprof-v1" s
      | _ -> Alcotest.fail "schema field missing");
     (match List.assoc_opt "workers" fields with
      | Some (Json.List ws) -> Alcotest.(check int) "worker rows" 3 (List.length ws)
      | _ -> Alcotest.fail "workers field missing")
   | _ -> Alcotest.fail "profile json is not an object");
  Sys.remove trace;
  Unix.rmdir dir

(* --- session.cache.entries gauge: FIFO bound under a jobs=4 hammer --- *)

let test_entries_gauge_capacity_hammer () =
  Obs.reset ();
  Obs.record ();
  let capacity = 4 in
  let session = Alcop.Session.create ~hw ~capacity () in
  let spec = Op_spec.matmul ~name:"hostprof_gauge" ~m:64 ~n:64 ~k:128 () in
  (* 32 distinct keys: every (tb_m, tb_n, smem, reg) combination below. *)
  let params =
    List.concat_map
      (fun tb_m ->
        List.concat_map
          (fun tb_n ->
            List.concat_map
              (fun smem ->
                List.map
                  (fun reg ->
                    Alcop_perfmodel.Params.make
                      ~tiling:
                        (Tiling.make ~tb_m ~tb_n ~tb_k:16 ~warp_m:16
                           ~warp_n:16 ~warp_k:16 ())
                      ~smem_stages:smem ~reg_stages:reg ())
                  [ 1; 2 ])
              [ 2; 3 ])
          [ 16; 32 ])
      [ 16; 32; 64; 128 ]
  in
  Alcotest.(check int) "32 distinct keys" 32 (List.length params);
  Pool.with_pool ~jobs:4 (fun p ->
      (* several waves so evictions interleave with concurrent compiles *)
      List.iter
        (fun _ ->
          ignore
            (Pool.map p
               (fun prm -> Alcop.Session.evaluate session prm spec)
               params);
          let s = Alcop.Session.stats session in
          Alcotest.(check bool) "entries never exceed capacity" true
            (s.Alcop.Session.entries <= capacity))
        [ 0; 1; 2 ]);
  let s = Alcop.Session.stats session in
  Alcotest.(check int) "FIFO bound holds at rest" capacity
    s.Alcop.Session.entries;
  Alcotest.(check bool) "evictions happened" true
    (s.Alcop.Session.evictions > 0);
  Alcop.Session.publish_entries_gauge session;
  (match List.assoc_opt "session.cache.entries" (Obs.gauges ()) with
   | None -> Alcotest.fail "gauge not published"
   | Some v ->
     Alcotest.(check (float 0.0)) "gauge equals resident entries"
       (float_of_int capacity) v;
     Alcotest.(check bool) "gauge within FIFO bound" true
       (v <= float_of_int capacity));
  Obs.reset ()

(* The gauge value is -j independent: the coordinator-side read sees
   min(distinct inserts, capacity) whatever the interleaving was. *)
let test_entries_gauge_jobs_invariant () =
  let run jobs =
    Obs.reset ();
    Obs.record ();
    let session = Alcop.Session.create ~hw ~capacity:8 () in
    let spec = Op_spec.matmul ~name:"hostprof_gauge_j" ~m:64 ~n:64 ~k:128 () in
    let params i =
      Alcop_perfmodel.Params.make
        ~tiling:
          (Tiling.make ~tb_m:32 ~tb_n:32 ~tb_k:16 ~warp_m:16 ~warp_n:16
             ~warp_k:16 ())
        ~smem_stages:(2 + (i mod 2)) ~reg_stages:(1 + (i mod 2)) ()
    in
    ignore
      (Pool.with_pool ~jobs (fun p ->
           Pool.map p
             (fun i -> Alcop.Session.evaluate session (params i) spec)
             (List.init 12 Fun.id)));
    Alcop.Session.publish_entries_gauge session;
    let v = List.assoc_opt "session.cache.entries" (Obs.gauges ()) in
    Obs.reset ();
    v
  in
  let v1 = run 1 and v4 = run 4 in
  Alcotest.(check bool) "published at j=1" true (v1 <> None);
  Alcotest.(check bool) "gauge value independent of -j" true (v1 = v4)

let suite =
  [ ( "hostprof",
      [ Alcotest.test_case "telescoping exact at jobs 1/4" `Quick
          test_telescoping_exact;
        Alcotest.test_case "inline window telescopes" `Quick
          test_inline_window;
        Alcotest.test_case "check rejects tampered profile" `Quick
          test_check_rejects_violation;
        QCheck_alcotest.to_alcotest prop_profiling_leaves_telemetry_identical;
        Alcotest.test_case "lock probe: uncontended fast path" `Quick
          test_lock_probe_uncontended;
        Alcotest.test_case "lock probe: contended wait measured" `Quick
          test_lock_probe_contended;
        Alcotest.test_case "probes are no-ops when off" `Quick
          test_probes_off_are_noops;
        Alcotest.test_case "report golden" `Quick test_report_golden;
        Alcotest.test_case "analysis numbers" `Quick
          test_report_analysis_numbers;
        Alcotest.test_case "exports" `Quick test_exports;
        Alcotest.test_case "entries gauge: capacity hammer at jobs=4" `Quick
          test_entries_gauge_capacity_hammer;
        Alcotest.test_case "entries gauge: -j invariant" `Quick
          test_entries_gauge_jobs_invariant;
        Alcotest.test_case "pass sample counts every minor word" `Quick
          test_pass_sample_counts_minor_words ] ) ]
