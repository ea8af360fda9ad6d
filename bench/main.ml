(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation section on the simulated A100.

     dune exec bench/main.exe            -- run everything
     dune exec bench/main.exe -- fig10   -- run one experiment
     dune exec bench/main.exe -- list    -- list experiment ids

   Experiment ids: fig1b fig10 table3 fig11 fig12 fig13 table1 fig23 scaling
   selfbench perf report.

   The performance observatory (doc/benchmarking.md):
   [selfbench [--runs N]] uses Bechamel to measure the compiler's own
   throughput (lowering, the pipelining pass, trace extraction, timing
   simulation, a compile-cache hit) and the fig10 sweep at j=1/2/max with
   a host utilization summary per row; with --runs N the whole
   measurement repeats N times after a discarded warmup pass and each
   benchmark reports median/MAD/min/p90 plus a noise estimate
   (schema alcop-selfbench-v2, written to BENCH_gpusim.json).
   [record [--runs N] [--history DIR]] measures and appends the record to
   the per-machine-fingerprint history stream (--inject-regression F
   instead appends the stream's last record with times scaled by F, a
   deterministic regression for gate self-tests).
   [history [ID]] lists the streams, or one stream's records.
   [trend [--strict] [--sensitivity S] [--window W] [--min-rel F]
   [--machine ID] [--html FILE]] runs change-point detection over the
   history and (with --strict) exits nonzero on any detected regression.
   [compare OLD.json NEW.json [--strict] [--tolerance FRAC]] diffs two
   selfbench files (schema v2) with explicit only-in-OLD/NEW rows and
   host-profile deltas when both sides carry them.
   [perf] profiles the host runtime of the fig10 sweep and prints the
   Amdahl/speedup-loss diagnosis (doc/hostprof.md); [report] writes the
   self-contained HTML experiment report (including history trend
   charts). *)

open Alcop

let hw = Alcop_hw.Hw_config.default

(* -j / --jobs N (0 = ALCOP_JOBS or the domain count): worker pool shared
   by every experiment runner in this invocation. Results are bit-identical
   to -j 1 — the pool only changes wall-clock time (doc/parallelism.md). *)
let requested_jobs = ref 0
let the_pool = ref None

let resolved_jobs () =
  if !requested_jobs <= 0 then Alcop_par.Pool.default_jobs ()
  else !requested_jobs

(* Created lazily on first use so `bench compare` and -j 1 runs spawn no
   domains; shut down by the main dispatcher. *)
let pool () =
  match !the_pool with
  | Some _ as p -> p
  | None ->
    let jobs = resolved_jobs () in
    if jobs <= 1 then None
    else begin
      let p = Alcop_par.Pool.create ~jobs () in
      the_pool := Some p;
      Some p
    end

let header title =
  Printf.printf "\n=== %s ===\n%!" title

let opt_str = function
  | Some x -> Printf.sprintf "%8.2f" x
  | None -> Printf.sprintf "%8s" "fail"

(* --- E1: Fig. 1(b) --- *)

let run_fig1b () =
  header "Fig. 1(b) - motivating example: 2048x2048x2048 MatMul on sim-A100";
  Printf.printf "%-14s %6s %18s %18s %10s\n" "TB tile" "#TBs" "tiling-only TFLOPS"
    "pipelined TFLOPS" "gain";
  List.iter
    (fun (r : Experiments.fig1b_row) ->
      let gain =
        match r.Experiments.tflops_tiling_only, r.Experiments.tflops_pipelined with
        | Some a, Some b -> Printf.sprintf "%.2fx" (b /. a)
        | _ -> "-"
      in
      Printf.printf "%-14s %6d %18s %18s %10s\n" r.Experiments.tile
        r.Experiments.tb_count
        (opt_str r.Experiments.tflops_tiling_only)
        (opt_str r.Experiments.tflops_pipelined)
        gain)
    (Experiments.fig1b ~hw ());
  print_string
    "expected shape: tiling-only peaks at mid-size tiles (inter-TB parallelism\n\
     dies at large tiles); pipelining keeps large tiles fast.\n"

(* --- E2: Fig. 10 --- *)

let run_fig10 () =
  header "Fig. 10 - single-operator speedup over TVM (exhaustive search)";
  (* The five variants sweep nested schedule spaces, so most points after
     the first variant come out of the shared compile cache; report the
     hit rate this experiment achieved. *)
  let session = Session.for_hw hw in
  let before = Session.stats session in
  let result = Experiments.fig10 ~hw ?pool:(pool ()) () in
  let after = Session.stats session in
  let d = { after with
            Session.hits = after.Session.hits - before.Session.hits;
            misses = after.Session.misses - before.Session.misses;
            evictions = after.Session.evictions - before.Session.evictions }
  in
  Printf.printf "%-16s" "operator";
  List.iter (fun v -> Printf.printf "%17s" v.Variants.name) Variants.all;
  print_newline ();
  List.iter
    (fun (r : Experiments.fig10_row) ->
      Printf.printf "%-16s" r.Experiments.op;
      List.iter
        (fun (_, s) -> Printf.printf "%17.3f" s)
        r.Experiments.speedups;
      print_newline ())
    result.Experiments.rows;
  Printf.printf "%-16s" "geomean";
  List.iter (fun (_, g) -> Printf.printf "%17.3f" g) result.Experiments.geomeans;
  print_newline ();
  Printf.printf
    "compile cache: %d entries, %d hits / %d misses (%.1f%% hit rate), %d evicted\n"
    d.Session.entries d.Session.hits d.Session.misses
    (100.0 *. Session.hit_rate d) d.Session.evictions;
  print_string
    "paper: ALCOP 1.23x mean / 1.73x max over TVM; TVM DB ~ ALCOP w/o ML&MS\n\
     << ALCOP w/o ML < ALCOP; no gain on short-reduction or huge-output ops.\n"

(* --- E3: Table III --- *)

let run_table3 () =
  header "Table III - end-to-end model speedup";
  Printf.printf "%-12s %18s %18s\n" "model" "speedup over TVM" "speedup over XLA";
  List.iter
    (fun (r : E2e.report) ->
      Printf.printf "%-12s %18.2f %18.2f\n" r.E2e.model r.E2e.speedup_over_tvm
        r.E2e.speedup_over_xla)
    (Experiments.table3 ~hw ());
  print_string "paper: 1.02-1.18x over TVM, 1.01-1.64x over XLA.\n"

(* --- E4: Fig. 11 --- *)

let run_fig11 () =
  header "Fig. 11 - ALCOP normalized to library (cuBLAS/cuDNN oracle)";
  Printf.printf "%-16s %26s\n" "operator" "ALCOP perf / library perf";
  let rows = Experiments.fig11 ~hw () in
  let values = ref [] in
  List.iter
    (fun (r : Experiments.fig11_row) ->
      (match r.Experiments.normalized_to_library with
       | Some v -> values := v :: !values
       | None -> ());
      Printf.printf "%-16s %26s\n" r.Experiments.op11
        (opt_str r.Experiments.normalized_to_library))
    rows;
  Printf.printf "%-16s %26.3f\n" "mean" (Experiments.geomean !values);
  print_string
    "paper: on-par, ~93% of libraries on average; occasional wins on shapes\n\
     outside the library template sweet spot.\n"

(* --- E5: Fig. 12 --- *)

let run_fig12 () =
  header "Fig. 12 - best-in-top-k of performance models (normalized to exhaustive)";
  Printf.printf "%-16s %12s %12s %14s %14s\n" "operator" "ours@10" "ours@50"
    "bottleneck@10" "bottleneck@50";
  let rows = Experiments.fig12 ~hw ?pool:(pool ()) () in
  let avg sel k =
    let vs =
      List.filter_map (fun r -> Option.join (List.assoc_opt k (sel r))) rows
    in
    Experiments.geomean vs
  in
  List.iter
    (fun (r : Experiments.fig12_row) ->
      let cell l k = opt_str (Option.join (List.assoc_opt k l)) in
      Printf.printf "%-16s %12s %12s %14s %14s\n" r.Experiments.op12
        (cell r.Experiments.ours_top 10)
        (cell r.Experiments.ours_top 50)
        (cell r.Experiments.bottleneck_top 10)
        (cell r.Experiments.bottleneck_top 50))
    rows;
  Printf.printf "%-16s %12.2f %12.2f %14.2f %14.2f\n" "average"
    (avg (fun r -> r.Experiments.ours_top) 10)
    (avg (fun r -> r.Experiments.ours_top) 50)
    (avg (fun r -> r.Experiments.bottleneck_top) 10)
    (avg (fun r -> r.Experiments.bottleneck_top) 50);
  print_string
    "paper: ours 79%@10 / 92%@50; bottleneck 75%@10 / 88%@50; 'fail' marks\n\
     operators whose top-k predicted schedules all fail to compile.\n"

(* --- E6: Fig. 13 --- *)

let run_fig13 () =
  header "Fig. 13 - search efficiency (best-in-k-trials vs exhaustive)";
  let rows = Experiments.fig13 ~hw ?pool:(pool ()) () in
  let methods =
    match rows with
    | r :: _ -> List.map fst r.Experiments.per_method
    | [] -> []
  in
  Printf.printf "%-16s" "operator";
  List.iter (fun m -> Printf.printf " %18s@10 %15s@50" m m) methods;
  print_newline ();
  List.iter
    (fun (r : Experiments.fig13_row) ->
      Printf.printf "%-16s" r.Experiments.op13;
      List.iter
        (fun (_, budgets) ->
          Printf.printf " %21s %18s"
            (opt_str (Option.join (List.assoc_opt 10 budgets)))
            (opt_str (Option.join (List.assoc_opt 50 budgets))))
        r.Experiments.per_method;
      print_newline ())
    rows;
  let avg m k =
    Experiments.geomean
      (List.filter_map
         (fun (r : Experiments.fig13_row) ->
           Option.join
             (Option.bind
                (List.assoc_opt m r.Experiments.per_method)
                (List.assoc_opt k)))
         rows)
  in
  Printf.printf "%-16s" "average";
  List.iter
    (fun m -> Printf.printf " %21.2f %18.2f" (avg m 10) (avg m 50))
    methods;
  print_newline ();
  print_string
    "paper: analytical+XGB 95%@10 / 99%@50 beats analytical-only (79/92)\n\
     and plain XGB (70/86); grid search trails.\n"

(* --- E7: Table I agreement --- *)

let run_table1 () =
  header "Table I - analytical model vs simulator on each operator's best schedule";
  Printf.printf "%-16s %14s %14s %10s %12s\n" "operator" "predicted" "simulated"
    "rel.err" "bound-by";
  let rows = Experiments.table1 ~hw () in
  List.iter
    (fun (r : Experiments.table1_row) ->
      Printf.printf "%-16s %14.0f %14.0f %9.1f%% %12s\n" r.Experiments.op1
        r.Experiments.predicted_cycles r.Experiments.simulated_cycles
        (100.0 *. r.Experiments.rel_error)
        (if r.Experiments.smem_bound then "loading" else "compute"))
    rows;
  let mean_err =
    List.fold_left (fun a r -> a +. r.Experiments.rel_error) 0.0 rows
    /. float_of_int (max 1 (List.length rows))
  in
  Printf.printf "mean relative error: %.1f%%\n" (100.0 *. mean_err)

(* --- E8: Figs. 2-3 ablation --- *)

let run_fig23 () =
  header "Figs. 2-3 - stage-count and multi-level/fusion ablation (MM_RN50_FC)";
  Printf.printf "%-44s %12s %10s\n" "configuration" "cycles" "speedup";
  List.iter
    (fun (r : Experiments.fig23_row) ->
      Printf.printf "%-44s %12s %10s\n" r.Experiments.label
        (match r.Experiments.cycles with
         | Some c -> Printf.sprintf "%.0f" c
         | None -> "fail")
        (match r.Experiments.speedup_over_unpipelined with
         | Some s -> Printf.sprintf "%.2fx" s
         | None -> "-"))
    (Experiments.fig23 ~hw ());
  print_string
    "expected shape: 2-stage < multi-stage (Fig 2); single-level < multi-level;\n\
     inner-pipeline fusion (Fig 3d) beats the recursive pipeline (Fig 3c).\n"

(* --- E9 (extension): hardware scaling --- *)

let run_scaling () =
  header "Extension - pipelining advantage vs compute:bandwidth ratio";
  Printf.printf "%14s %14s %24s\n" "compute scale" "peak TFLOPS"
    "ALCOP/TVM geomean speedup";
  List.iter
    (fun (r : Experiments.scaling_row) ->
      Printf.printf "%14.1f %14.0f %24.3f\n" r.Experiments.compute_scale
        r.Experiments.peak_tflops r.Experiments.mean_speedup)
    (Experiments.scaling ~hw ());
  print_string
    "expected shape: the faster the tensor cores relative to memory, the\n\
     more latency there is to hide and the bigger pipelining's advantage --\n\
     the paper's motivation for studying pipelining on current/future GPUs.\n";
  Printf.printf "\nacross GPU generations (rule 1's hardware side):\n";
  Printf.printf "%-24s %24s\n" "machine" "ALCOP/TVM geomean";
  List.iter
    (fun (r : Experiments.generation_row) ->
      Printf.printf "%-24s %24.3f\n" r.Experiments.machine
        r.Experiments.gen_speedup)
    (Experiments.generations ());
  print_string
    "pre-Ampere machines lack cp.async: shared-memory pipelining is refused\n\
     and only register-level software pipelining remains (paper Sec. V-A).\n"

(* --- CSV export of the main figures' data --- *)

let write_csv path header rows =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (String.concat "," header);
      output_char oc '\n';
      List.iter
        (fun row ->
          output_string oc (String.concat "," row);
          output_char oc '\n')
        rows);
  Printf.printf "wrote %s (%d rows)\n%!" path (List.length rows)

let opt_csv = function Some v -> Printf.sprintf "%.6f" v | None -> ""

let run_csv () =
  header "CSV export (results/)";
  (try Unix.mkdir "results" 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let fig10_header, fig10_rows =
    Experiments.fig10_csv (Experiments.fig10 ~hw ?pool:(pool ()) ())
  in
  write_csv "results/fig10.csv" fig10_header fig10_rows;
  write_csv "results/table3.csv"
    [ "model"; "speedup_over_tvm"; "speedup_over_xla" ]
    (List.map
       (fun (r : E2e.report) ->
         [ r.E2e.model;
           Printf.sprintf "%.6f" r.E2e.speedup_over_tvm;
           Printf.sprintf "%.6f" r.E2e.speedup_over_xla ])
       (Experiments.table3 ~hw ()));
  write_csv "results/fig11.csv"
    [ "operator"; "alcop_over_library" ]
    (List.map
       (fun (r : Experiments.fig11_row) ->
         [ r.Experiments.op11; opt_csv r.Experiments.normalized_to_library ])
       (Experiments.fig11 ~hw ()));
  let fig12_header, fig12_rows =
    Experiments.fig12_csv (Experiments.fig12 ~hw ?pool:(pool ()) ())
  in
  write_csv "results/fig12.csv" fig12_header fig12_rows;
  let fig13_header, fig13_rows =
    Experiments.fig13_csv (Experiments.fig13 ~hw ?pool:(pool ()) ())
  in
  write_csv "results/fig13.csv" fig13_header fig13_rows

(* --- host-profile helpers (selfbench rows + the perf experiment) --- *)

module Hostprof = Alcop_obs.Hostprof

(* Aggregate the five wall buckets over the tracks that ran tasks: the
   worker domains, or the coordinator itself at j=1 (inline). *)
let host_fracs (p : Hostprof.profile) =
  let workers =
    match
      List.filter
        (fun w -> not (String.equal w.Hostprof.w_role "coordinator"))
        p.Hostprof.p_workers
    with
    | [] -> p.Hostprof.p_workers
    | ws -> ws
  in
  let sum sel = List.fold_left (fun a w -> a + sel w) 0 workers in
  let wall = float_of_int (max 1 (sum (fun w -> w.Hostprof.w_wall_ns))) in
  let f sel = float_of_int (sum sel) /. wall in
  ( f (fun w -> w.Hostprof.w_busy_ns),
    f (fun w -> w.Hostprof.w_queue_ns),
    f (fun w -> w.Hostprof.w_lock_ns),
    f (fun w -> w.Hostprof.w_gc_ns),
    f (fun w -> w.Hostprof.w_idle_ns) )

let host_lock_wait_ms (p : Hostprof.profile) =
  List.fold_left
    (fun a l -> a +. (float_of_int l.Hostprof.l_wait_ns /. 1e6))
    0.0 p.Hostprof.p_locks

(* The "host" sub-object attached to sweep rows in BENCH_gpusim.json.
   `compare` gates on the timing fields only and ignores it; host-aware
   compares print deltas.
   [jobs] is the *resolved* worker count the sweep actually ran at —
   [Hostprof.p_jobs] is 0 for an inline (pool-less) run, which used to
   mislabel the j1 row (and the jmax alias of it on a 1-core box). *)
let host_json ~jobs (p : Hostprof.profile) =
  let busy, queue, lock, gc, idle = host_fracs p in
  let open Alcop_obs.Json in
  Obj
    ([ ("jobs", Int jobs);
       ("serial_fraction", Float (Hostprof.serial_fraction p));
       ("effective_parallelism", Float (Hostprof.effective_parallelism p));
       ("expected_speedup", Float (Hostprof.expected_speedup p ~jobs));
       ("busy_frac", Float busy); ("queue_frac", Float queue);
       ("lock_frac", Float lock); ("gc_frac", Float gc);
       ("idle_frac", Float idle);
       ("lock_wait_ms", Float (host_lock_wait_ms p)) ]
     @
     match p.Hostprof.p_locks with
     | [] -> []
     | top :: _ ->
       [ ("top_lock", Str top.Hostprof.l_name);
         ("top_lock_wait_ms",
          Float (float_of_int top.Hostprof.l_wait_ns /. 1e6)) ])

let print_host_summary (p : Hostprof.profile) =
  let busy, queue, lock, gc, idle = host_fracs p in
  Printf.printf
    "  host: busy %.0f%% idle %.0f%% lock %.0f%% queue %.0f%% gc %.0f%% | \
     serial %.1f%% | eff-par %.2f | lock-wait %.1f ms\n"
    (100.0 *. busy) (100.0 *. idle) (100.0 *. lock) (100.0 *. queue)
    (100.0 *. gc)
    (100.0 *. Hostprof.serial_fraction p)
    (Hostprof.effective_parallelism p)
    (host_lock_wait_ms p)

(* One exhaustive ALCOP sweep of MM_RN50_FC through a fresh pass-through
   session (the fig10-sweep workload), timed by wall clock; with
   [~profiled:true] the host profiler covers the whole run, pool spawn to
   join, and the telescoping contract is enforced. *)
let sweep_once ~profiled jobs =
  let spec = Alcop_workloads.Suites.mm_rn50_fc in
  let session = Session.create ~hw ~cache:false () in
  let evaluate = Variants.evaluator ~hw ~session Variants.alcop spec in
  let space = Variants.space Variants.alcop spec in
  let run pool =
    ignore (Alcop_tune.Tuner.exhaustive ?pool ~space ~evaluate ())
  in
  if profiled then Hostprof.start ();
  let t0 = Unix.gettimeofday () in
  (if jobs <= 1 then run None
   else Alcop_par.Pool.with_pool ~jobs (fun p -> run (Some p)));
  let ns = (Unix.gettimeofday () -. t0) *. 1e9 in
  if not profiled then (ns, None)
  else begin
    let profile = Hostprof.stop () in
    (match Hostprof.check profile with
     | Ok () -> ()
     | Error msg ->
       Printf.eprintf "hostprof telescoping violation: %s\n" msg;
       exit 1);
    (ns, Some profile)
  end

(* --- Bechamel self-benchmarks of the compiler itself --- *)

module Benchdb = Alcop_obs.Benchdb

(* One measurement pass: the six bechamel micro-benchmarks (each already
   an OLS estimate over its own repetitions within the quota) plus the
   wall-clock fig10 sweeps at j = 1 / 2 / max under the host profiler,
   the wall-clock pre-training fit and the wall-clock tune job.
   Returns (id, ns, host sub-object) rows sorted by id. [quiet]
   suppresses the per-row prints — with --runs N the repeated passes
   would otherwise drown the stats table that summarizes them. *)
let measure_pass ~quiet () =
  let open Bechamel in
  let spec = Alcop_workloads.Suites.mm_rn50_fc in
  let tiling =
    Alcop_sched.Tiling.make ~tb_m:64 ~tb_n:64 ~tb_k:32 ~warp_m:32 ~warp_n:32
      ~warp_k:16 ()
  in
  let params =
    Alcop_perfmodel.Params.make ~tiling ~smem_stages:3 ~reg_stages:2 ()
  in
  let sched =
    Alcop_sched.Schedule.default_gemm ~smem_stages:3 ~reg_stages:2 spec tiling
  in
  let lowered = Alcop_sched.Lower.run sched in
  let pass_result =
    match
      Alcop_pipeline.Pass.run ~hw ~hints:lowered.Alcop_sched.Lower.hints
        lowered.Alcop_sched.Lower.kernel
    with
    | Ok r -> r
    | Error _ -> failwith "selfbench: pass failed"
  in
  let groups = Alcop_pipeline.Pass.groups pass_result in
  let kernel = pass_result.Alcop_pipeline.Pass.kernel in
  (* Cold compiles go through a pass-through session; the -hit benchmark
     measures a fingerprint + memo lookup of [Session.evaluate] on a
     pre-warmed caching session, i.e. what a repeated schedule point costs
     a tuner or variant sweep. *)
  let cold = Session.create ~hw ~cache:false () in
  let warm = Session.create ~hw () in
  ignore (Session.evaluate warm params spec);
  (* Persistent-store rows, against a throwaway store under the temp dir:
     store-cold re-colds the key each run (compile + record write);
     store-warm-disk answers from the on-disk record through a fresh
     session, i.e. what a brand-new process pays; store-warm-mem answers
     from the record already resident in a warmed session. *)
  let store_dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "alcop-selfbench-store-%d" (Unix.getpid ()))
  in
  let store = Store.create ~root:store_dir () in
  let store_key =
    Fingerprint.to_hex
      (Fingerprint.compile_key ~hw ~extra_regs_per_thread:0 params spec)
  in
  let warm_store = Session.create ~hw ~store () in
  ignore (Session.timing warm_store params spec);
  let tests =
    Test.make_grouped ~name:"alcop"
      [ Test.make ~name:"lower" (Staged.stage (fun () ->
            ignore (Alcop_sched.Lower.run sched)));
        Test.make ~name:"pipeline-pass" (Staged.stage (fun () ->
            ignore
              (Alcop_pipeline.Pass.run ~hw
                 ~hints:lowered.Alcop_sched.Lower.hints
                 lowered.Alcop_sched.Lower.kernel)));
        Test.make ~name:"trace-extract" (Staged.stage (fun () ->
            ignore (Alcop_gpusim.Trace.extract_program ~groups kernel)));
        Test.make ~name:"compile+simulate" (Staged.stage (fun () ->
            ignore (Session.compile cold params spec)));
        Test.make ~name:"session-evaluate-hit" (Staged.stage (fun () ->
            ignore (Session.evaluate warm params spec)));
        Test.make ~name:"store-cold" (Staged.stage (fun () ->
            Store.remove store ~ns:"compile" store_key;
            let s = Session.create ~hw ~store () in
            ignore (Session.timing s params spec)));
        Test.make ~name:"store-warm-disk" (Staged.stage (fun () ->
            let s = Session.create ~hw ~store () in
            ignore (Session.timing s params spec)));
        Test.make ~name:"store-warm-mem" (Staged.stage (fun () ->
            ignore (Session.timing warm_store params spec)));
        (* Recorded variant of compile+simulate: the same cold compile,
           then the pipeline observatory's recorded simulation and its
           fold. The delta against the compile+simulate row is the cost
           of recording a kernel's waves and folding them. (The row id
           predates the single recording; it is kept so its history
           stays comparable.) *)
        Test.make ~name:"pipeview-probe-overhead" (Staged.stage (fun () ->
            match Session.compile cold params spec with
            | Ok c ->
              ignore
                (Alcop_gpusim.Pipeview.run c.Compiler.timing_request)
            | Error _ -> ()));
        Test.make ~name:"analytical-model" (Staged.stage (fun () ->
            ignore (Alcop_perfmodel.Model.predict hw spec params))) ]
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let instances = [ Toolkit.Instance.monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.25) () in
  let raw = Benchmark.all cfg instances tests in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name result ->
      match Analyze.OLS.estimates result with
      | Some [ est ] -> rows := (name, est) :: !rows
      | Some _ | None -> ())
    results;
  let sorted = List.sort compare !rows in
  if not quiet then
    List.iter
      (fun (name, est) ->
        Printf.printf "%-40s %14.1f ns/run (%.1f us)\n" name est (est /. 1000.0))
      sorted;
  (* Parallel-speedup record: the exhaustive ALCOP sweep of the same
     operator through a fresh pass-through session, timed by wall clock
     (the sweep runs for seconds and every -j does identical work by
     construction) under the host profiler, at j = 1 / 2 / max. Each row
     carries its utilization + lock-wait summary into the record so
     `bench compare` trajectories show *why* a speedup moved. *)
  let jmax = max 1 (resolved_jobs ()) in
  let sweep_row label jobs =
    let ns, profile = sweep_once ~profiled:true jobs in
    (* an inline run (jobs <= 1) has no pool: it resolved to one worker *)
    let resolved = max 1 jobs in
    if not quiet then
      Printf.printf "%-40s %14.1f ns/run (%.1f ms)\n" label ns (ns /. 1e6);
    (match profile with
     | Some p when not quiet -> print_host_summary p
     | _ -> ());
    (label, ns, Option.map (host_json ~jobs:resolved) profile)
  in
  let row1 = sweep_row "alcop/fig10-sweep-j1" 1 in
  let row2 = sweep_row "alcop/fig10-sweep-j2" 2 in
  let rowj =
    if jmax = 1 then
      (let _, ns, host = row1 in ("alcop/fig10-sweep-jmax", ns, host))
    else if jmax = 2 then
      (let _, ns, host = row2 in ("alcop/fig10-sweep-jmax", ns, host))
    else sweep_row "alcop/fig10-sweep-jmax" jmax
  in
  let ns_of (_, ns, _) = ns in
  if not quiet then
    Printf.printf "parallel sweep speedup at -j %d: %.2fx\n" jmax
      (if ns_of rowj > 0.0 then ns_of row1 /. ns_of rowj else 1.0);
  let space = Variants.space Variants.alcop spec in
  let wall_row label run =
    let t0 = Unix.gettimeofday () in
    run ();
    let ns = (Unix.gettimeofday () -. t0) *. 1e9 in
    if not quiet then
      Printf.printf "%-40s %14.1f ns/run (%.1f ms)\n" label ns (ns /. 1e6);
    (label, ns, None)
  in
  (* The tuner's pre-training fit alone, timed by wall clock: one
     [Gbt.fit] of [Tuner.pretrain_config] on MM_RN50_FC's full
     pre-training set (the one [alcop tune]'s default seed draws), built
     outside the timed region. *)
  let pretrain_row =
    let feats = Array.map (Alcop_perfmodel.Features.extract hw spec) space in
    let xs, ys =
      Alcop_tune.Tuner.pretrain_set ~hw ~spec ~space ~feats ~seed:2023
    in
    wall_row "alcop/tune-pretrain-fit" (fun () ->
        ignore
          (Alcop_tune.Gbt.fit ~config:Alcop_tune.Tuner.pretrain_config xs ys))
  in
  (* One `alcop tune` job end to end, timed by wall clock: [Tuner.run]
     with [Analytical_xgb] (pre-training, search and evaluation) at the
     CLI's default budget and seed on MM_RN50_FC, through a fresh
     in-memory session. *)
  let tune_row =
    wall_row "alcop/tune-e2e-j1" (fun () ->
        let session = Session.create ~hw () in
        let evaluate = Variants.evaluator ~hw ~session Variants.alcop spec in
        ignore
          (Alcop_tune.Tuner.run ~hw ~spec ~space ~evaluate ~budget:20
             ~seed:2023 Alcop_tune.Tuner.Analytical_xgb))
  in
  List.sort compare
    (row1 :: row2 :: rowj :: pretrain_row :: tune_row
     :: List.map (fun (id, ns) -> (id, ns, None)) sorted)

(* Repeat the pass [runs] times (plus a discarded warmup pass when
   runs > 1: the first pass pays page-cache and JIT-less but very real
   allocator warmup) and fold the per-id samples into robust statistics.
   The host sub-object is taken from the last pass. *)
let measure ~runs () =
  let runs = max 1 runs in
  if runs > 1 then begin
    Printf.printf "warmup pass (discarded)...\n%!";
    ignore (measure_pass ~quiet:true ())
  end;
  let passes =
    List.init runs (fun i ->
        if runs > 1 then Printf.printf "measurement run %d/%d...\n%!" (i + 1) runs;
        measure_pass ~quiet:(runs > 1) ())
  in
  let ids =
    match passes with
    | first :: _ -> List.map (fun (id, _, _) -> id) first
    | [] -> []
  in
  let benches =
    List.map
      (fun id ->
        let samples =
          List.filter_map
            (fun rows ->
              List.find_map
                (fun (i, ns, _) -> if i = id then Some ns else None)
                rows)
            passes
        in
        let host =
          List.fold_left
            (fun acc rows ->
              match
                List.find_map
                  (fun (i, _, h) -> if i = id then h else None)
                  rows
              with
              | Some h -> Some h
              | None -> acc)
            None passes
        in
        { Benchdb.b_id = id; b_stats = Benchdb.summarize samples; b_host = host })
      ids
  in
  let fp = Benchdb.collect_fingerprint () in
  Printf.printf "fingerprint: %s (git %s, host %s)\n" (Benchdb.fingerprint_id fp)
    fp.Benchdb.f_git_rev fp.Benchdb.f_host_hash;
  Benchdb.make_record ~ts:(Unix.time ())
    ~generated_by:
      (Printf.sprintf "dune exec bench/main.exe -- selfbench --runs %d" runs)
    ~machine:hw.Alcop_hw.Hw_config.name ~fingerprint:fp benches

let print_stats_table (record : Benchdb.record) =
  Printf.printf "%-40s %5s %14s %11s %14s %14s %7s\n" "benchmark" "runs"
    "median ns" "mad ns" "min ns" "p90 ns" "noise";
  List.iter
    (fun (b : Benchdb.bench) ->
      let st = b.Benchdb.b_stats in
      Printf.printf "%-40s %5d %14.1f %11.1f %14.1f %14.1f %6.1f%%\n"
        b.Benchdb.b_id st.Benchdb.s_runs st.Benchdb.s_median_ns
        st.Benchdb.s_mad_ns st.Benchdb.s_min_ns st.Benchdb.s_p90_ns
        (100.0 *. Benchdb.noise st))
    record.Benchdb.r_benches

let run_selfbench ?(runs = 1) () =
  header "Compiler throughput (Bechamel, monotonic clock)";
  let record = measure ~runs () in
  if runs > 1 then print_stats_table record;
  Benchdb.write_file "BENCH_gpusim.json" record;
  Printf.printf "wrote BENCH_gpusim.json (%d benchmarks, schema %s)\n%!"
    (List.length record.Benchdb.r_benches) record.Benchdb.r_schema

(* --- bench record / history / trend: the on-disk observatory --- *)

let scale_stats factor (st : Benchdb.stats) =
  { st with
    Benchdb.s_median_ns = st.Benchdb.s_median_ns *. factor;
    s_mad_ns = st.Benchdb.s_mad_ns *. factor;
    s_min_ns = st.Benchdb.s_min_ns *. factor;
    s_p90_ns = st.Benchdb.s_p90_ns *. factor;
    s_mean_ns = st.Benchdb.s_mean_ns *. factor }

let run_record ?(runs = 1) ?(dir = Benchdb.default_history_dir) ?inject () =
  match inject with
  | Some factor ->
    (* Deterministic gate self-test: append the stream's last record with
       all times scaled by [factor] (1.0 = exact duplicate) instead of
       measuring — so CI can prove the trend gate trips and un-trips
       without depending on real timing noise. *)
    let fp = Benchdb.collect_fingerprint () in
    let path = Benchdb.history_file ~dir (Benchdb.fingerprint_id fp) in
    (match Benchdb.read_history path with
     | Error msg ->
       Printf.eprintf "record --inject-regression: %s: %s\n" path msg;
       exit 1
     | Ok ([], _) ->
       Printf.eprintf
         "record --inject-regression: %s has no records to scale yet\n" path;
       exit 1
     | Ok (records, _) ->
       let last = List.nth records (List.length records - 1) in
       let scaled =
         { last with
           Benchdb.r_ts = Some (Unix.time ());
           r_generated_by =
             Printf.sprintf "bench record --inject-regression %g" factor;
           r_benches =
             List.map
               (fun (b : Benchdb.bench) ->
                 { b with Benchdb.b_stats = scale_stats factor b.Benchdb.b_stats })
               last.Benchdb.r_benches }
       in
       (match Benchdb.append ~dir scaled with
        | Ok path ->
          Printf.printf "appended injected x%g record to %s\n%!" factor path
        | Error msg ->
          Printf.eprintf "record: %s\n" msg;
          exit 1))
  | None ->
    header "Record selfbench into the benchmark history";
    let record = measure ~runs () in
    print_stats_table record;
    (match Benchdb.append ~dir record with
     | Ok path ->
       Printf.printf "appended record (%d benchmarks, schema %s) to %s\n%!"
         (List.length record.Benchdb.r_benches) record.Benchdb.r_schema path
     | Error msg ->
       Printf.eprintf "record: %s\n" msg;
       exit 1)

let fmt_ts = function
  | None -> "-"
  | Some ts ->
    let tm = Unix.gmtime ts in
    Printf.sprintf "%04d-%02d-%02d %02d:%02d:%02dZ" (tm.Unix.tm_year + 1900)
      (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min
      tm.Unix.tm_sec

let run_history ?id ?(dir = Benchdb.default_history_dir) () =
  match id with
  | None ->
    (match Benchdb.machines ~dir with
     | [] ->
       Printf.printf
         "no history under %s — run `dune exec bench/main.exe -- record` \
          to start one\n"
         dir
     | streams ->
       List.iter
         (fun (machine, path) ->
           match Benchdb.read_history path with
           | Ok (records, skipped) ->
             Printf.printf "%-40s %4d records%s\n" machine
               (List.length records)
               (if skipped > 0 then
                  Printf.sprintf " (%d corrupt line%s skipped)" skipped
                    (if skipped = 1 then "" else "s")
                else "")
           | Error msg -> Printf.printf "%-40s unreadable: %s\n" machine msg)
         streams)
  | Some id ->
    let path = Benchdb.history_file ~dir id in
    (match Benchdb.read_history path with
     | Error msg ->
       Printf.eprintf "history: %s: %s\n" path msg;
       exit 1
     | Ok (records, skipped) ->
       if skipped > 0 then
         Printf.printf "::warning::%s: skipped %d corrupt line%s\n" path
           skipped
           (if skipped = 1 then "" else "s");
       List.iteri
         (fun i (r : Benchdb.record) ->
           let rev =
             match r.Benchdb.r_fingerprint with
             | Some fp -> fp.Benchdb.f_git_rev
             | None -> "-"
           in
           Printf.printf "#%-3d %-20s git %-10s %2d benchmarks  %s\n" i
             (fmt_ts r.Benchdb.r_ts) rev
             (List.length r.Benchdb.r_benches)
             r.Benchdb.r_generated_by)
         records)

let run_trend ?(strict = false) ?window ?sensitivity ?min_rel ?machine ?html
    ?(dir = Benchdb.default_history_dir) () =
  let streams =
    match machine with
    | Some id -> [ (id, Benchdb.history_file ~dir id) ]
    | None -> Benchdb.machines ~dir
  in
  match streams with
  | [] ->
    (* an empty observatory is not a regression — the gate stays green
       until there is history to judge *)
    Printf.printf
      "no history under %s — run `dune exec bench/main.exe -- record` to \
       start one\n"
      dir
  | streams ->
    let loaded =
      List.filter_map
        (fun (m, path) ->
          match Benchdb.read_history path with
          | Error msg ->
            if machine <> None then begin
              Printf.eprintf "trend: %s: %s\n" path msg;
              exit 1
            end;
            Printf.printf "::warning::%s: unreadable stream: %s\n" path msg;
            None
          | Ok (records, skipped) ->
            Some
              ( m, records, skipped,
                Benchdb.trends ?window ?sensitivity ?min_rel records ))
        streams
    in
    List.iter
      (fun (m, records, skipped, trends) ->
        List.iter print_endline
          (Benchdb.trend_lines ~machine:m ~skipped records trends);
        print_newline ())
      loaded;
    (match html with
     | None -> ()
     | Some file ->
       let page =
         Benchdb.trend_page
           (List.map (fun (m, records, _, trends) -> (m, records, trends)) loaded)
       in
       let oc = open_out file in
       Fun.protect
         ~finally:(fun () -> close_out oc)
         (fun () -> output_string oc page);
       Printf.printf "wrote %s\n%!" file);
    let regression_count =
      List.fold_left
        (fun acc (_, _, _, trends) ->
          acc + List.length (Benchdb.regressions trends))
        0 loaded
    in
    if strict && regression_count > 0 then begin
      Printf.printf "strict trend gate: %d regression%s\n" regression_count
        (if regression_count = 1 then "" else "s");
      exit 1
    end

(* --- selfbench comparison (CI perf tripwire) --- *)

(* Diff two selfbench files (schema v2). Warn-only by default —
   simulated-hardware throughput on shared CI runners is too noisy to
   gate on pairwise; the history trend gate above is the strict one.
   With [~strict:true] every regression beyond tolerance — and every
   disappeared benchmark — makes the process exit nonzero. *)
let run_compare ?(strict = false) ?(tolerance = 0.20) old_path new_path =
  let read label path =
    match Benchdb.read_file path with
    | Ok r -> r
    | Error msg ->
      Printf.eprintf "compare: %s (%s): %s\n" path label msg;
      exit 1
  in
  let old_r = read "OLD" old_path in
  let new_r = read "NEW" new_path in
  let result = Benchdb.compare_records ~strict ~tolerance ~old_r ~new_r () in
  List.iter print_endline result.Benchdb.cmp_lines;
  if strict && result.Benchdb.cmp_failures > 0 then begin
    Printf.printf "strict compare: %d failure%s\n" result.Benchdb.cmp_failures
      (if result.Benchdb.cmp_failures = 1 then "" else "s");
    exit 1
  end

(* --- bench perf: host-runtime diagnosis of the fig10 sweep --- *)

(* Why is fig10-sweep-jmax not faster than fig10-sweep-j1 (ROADMAP open
   item 5)? Run the sweep unprofiled (overhead baseline), then profiled
   at j=1 and at j=max, print both Amdahl reports and the diagnosis. *)
let run_perf () =
  header "Host runtime profile of the fig10 sweep";
  let jmax = max 2 (resolved_jobs ()) in
  let ns_off, _ = sweep_once ~profiled:false 1 in
  let ns1, p1 = sweep_once ~profiled:true 1 in
  let nsj, pj = sweep_once ~profiled:true jmax in
  Printf.printf "sweep wall: %.1f ms unprofiled, %.1f ms profiled at -j 1 \
                 (overhead %+.1f%%), %.1f ms at -j %d\n\n"
    (ns_off /. 1e6) (ns1 /. 1e6)
    (if ns_off > 0.0 then 100.0 *. (ns1 -. ns_off) /. ns_off else 0.0)
    (nsj /. 1e6) jmax;
  (match p1 with
   | Some p ->
     Printf.printf "-- j=1 --\n%s\n" (Hostprof.report p)
   | None -> ());
  match pj with
  | None -> ()
  | Some p ->
    Printf.printf "-- j=%d --\n%s\n" jmax (Hostprof.report p);
    let achieved = if nsj > 0.0 then ns1 /. nsj else 1.0 in
    let expected = Hostprof.expected_speedup p ~jobs:jmax in
    Printf.printf
      "speedup at -j %d: achieved %.2fx, Amdahl-expected <= %.2fx (serial \
       %.1f%%)\n"
      jmax achieved expected
      (100.0 *. Hostprof.serial_fraction p);
    let busy, queue, lock, gc, idle = host_fracs p in
    ignore busy;
    let name, frac =
      List.fold_left
        (fun (bn, bf) (n, f) -> if f > bf then (n, f) else (bn, bf))
        ("idle", idle)
        [ ("lock-wait", lock); ("queue-wait", queue); ("gc", gc) ]
    in
    Printf.printf
      "dominant worker-side loss: %s (%.0f%% of worker wall)\n" name
      (100.0 *. frac)

(* --- HTML experiment report --- *)

let run_report () =
  header "HTML experiment report";
  Exp_report.write ~hw ?pool:(pool ()) "report.html";
  Printf.printf "wrote report.html\n%!"

let experiments =
  [ ("fig1b", run_fig1b); ("fig10", run_fig10); ("table3", run_table3);
    ("fig11", run_fig11); ("fig12", run_fig12); ("fig13", run_fig13);
    ("table1", run_table1); ("fig23", run_fig23); ("scaling", run_scaling);
    ("csv", run_csv); ("selfbench", fun () -> run_selfbench ());
    ("perf", run_perf); ("report", run_report) ]

(* Shared option plumbing for the observatory subcommands. Each [want_*]
   helper validates one flag value or exits 2 with the offending text. *)
let bad_value cmd flag v =
  Printf.eprintf "%s: bad %s %s\n" cmd flag v;
  exit 2

let want_int cmd flag v ~min =
  match int_of_string_opt v with
  | Some n when n >= min -> n
  | _ -> bad_value cmd flag v

let want_float cmd flag v ~min =
  match float_of_string_opt v with
  | Some f when f >= min -> f
  | _ -> bad_value cmd flag v

(* compare OLD NEW [--strict] [--tolerance FRAC] *)
let parse_compare rest =
  let strict = ref false and tolerance = ref 0.20 and paths = ref [] in
  let rec go = function
    | [] -> ()
    | "--strict" :: rest -> strict := true; go rest
    | "--tolerance" :: v :: rest ->
      tolerance := want_float "compare" "--tolerance" v ~min:0.0;
      go rest
    | p :: rest -> paths := p :: !paths; go rest
  in
  go rest;
  match List.rev !paths with
  | [ old_path; new_path ] ->
    run_compare ~strict:!strict ~tolerance:!tolerance old_path new_path
  | _ ->
    Printf.eprintf
      "usage: compare OLD.json NEW.json [--strict] [--tolerance FRAC]\n";
    exit 2

(* selfbench [--runs N] *)
let parse_selfbench rest =
  let runs = ref 1 in
  let rec go = function
    | [] -> ()
    | "--runs" :: v :: rest ->
      runs := want_int "selfbench" "--runs" v ~min:1;
      go rest
    | a :: _ ->
      Printf.eprintf "usage: selfbench [--runs N] (got %s)\n" a;
      exit 2
  in
  go rest;
  run_selfbench ~runs:!runs ()

(* record [--runs N] [--history DIR] [--inject-regression FACTOR] *)
let parse_record rest =
  let runs = ref 1
  and dir = ref Benchdb.default_history_dir
  and inject = ref None in
  let rec go = function
    | [] -> ()
    | "--runs" :: v :: rest ->
      runs := want_int "record" "--runs" v ~min:1;
      go rest
    | "--history" :: v :: rest -> dir := v; go rest
    | "--inject-regression" :: v :: rest ->
      inject := Some (want_float "record" "--inject-regression" v ~min:0.0);
      go rest
    | a :: _ ->
      Printf.eprintf
        "usage: record [--runs N] [--history DIR] [--inject-regression \
         FACTOR] (got %s)\n"
        a;
      exit 2
  in
  go rest;
  run_record ~runs:!runs ~dir:!dir ?inject:!inject ()

(* history [ID] [--history DIR] *)
let parse_history rest =
  let dir = ref Benchdb.default_history_dir and id = ref None in
  let rec go = function
    | [] -> ()
    | "--history" :: v :: rest -> dir := v; go rest
    | a :: rest when !id = None -> id := Some a; go rest
    | a :: _ ->
      Printf.eprintf "usage: history [ID] [--history DIR] (got %s)\n" a;
      exit 2
  in
  go rest;
  run_history ?id:!id ~dir:!dir ()

(* trend [--strict] [--sensitivity S] [--window W] [--min-rel F]
   [--machine ID] [--html FILE] [--history DIR] *)
let parse_trend rest =
  let strict = ref false
  and window = ref None
  and sensitivity = ref None
  and min_rel = ref None
  and machine = ref None
  and html = ref None
  and dir = ref Benchdb.default_history_dir in
  let rec go = function
    | [] -> ()
    | "--strict" :: rest -> strict := true; go rest
    | "--sensitivity" :: v :: rest ->
      sensitivity := Some (want_float "trend" "--sensitivity" v ~min:0.0);
      go rest
    | "--window" :: v :: rest ->
      window := Some (want_int "trend" "--window" v ~min:1);
      go rest
    | "--min-rel" :: v :: rest ->
      min_rel := Some (want_float "trend" "--min-rel" v ~min:0.0);
      go rest
    | "--machine" :: v :: rest -> machine := Some v; go rest
    | "--html" :: v :: rest -> html := Some v; go rest
    | "--history" :: v :: rest -> dir := v; go rest
    | a :: _ ->
      Printf.eprintf
        "usage: trend [--strict] [--sensitivity S] [--window W] [--min-rel \
         F] [--machine ID] [--html FILE] [--history DIR] (got %s)\n"
        a;
      exit 2
  in
  go rest;
  run_trend ~strict:!strict ?window:!window ?sensitivity:!sensitivity
    ?min_rel:!min_rel ?machine:!machine ?html:!html ~dir:!dir ()

let () =
  (* Strip -j / --jobs N anywhere on the command line; the rest are
     experiment ids (or the compare subcommand) as before. *)
  let rec strip_jobs acc = function
    | [] -> List.rev acc
    | ("-j" | "--jobs") :: v :: rest ->
      (match int_of_string_opt v with
       | Some n when n >= 0 -> requested_jobs := n; strip_jobs acc rest
       | _ ->
         Printf.eprintf "bad -j/--jobs count %s\n" v;
         exit 2)
    | [ ("-j" | "--jobs") ] ->
      Printf.eprintf "-j/--jobs needs a count\n";
      exit 2
    | a :: rest -> strip_jobs (a :: acc) rest
  in
  let args = strip_jobs [] (List.tl (Array.to_list Sys.argv)) in
  let dispatch () =
    match args with
    | [ "list" ] -> List.iter (fun (n, _) -> print_endline n) experiments
    | "compare" :: rest -> parse_compare rest
    | "record" :: rest -> parse_record rest
    | "history" :: rest -> parse_history rest
    | "trend" :: rest -> parse_trend rest
    | "selfbench" :: (_ :: _ as rest) -> parse_selfbench rest
    | [] | [ "all" ] ->
      Printf.printf "ALCOP reproduction - all experiments on %s\n"
        hw.Alcop_hw.Hw_config.name;
      List.iter
        (fun (name, f) ->
          if name <> "csv" && name <> "report" && name <> "perf" then f ())
        experiments
    | names ->
      List.iter
        (fun n ->
          match List.assoc_opt n experiments with
          | Some f -> f ()
          | None ->
            Printf.eprintf "unknown experiment %s (try: list)\n" n;
            exit 1)
        names
  in
  Fun.protect
    ~finally:(fun () -> Option.iter Alcop_par.Pool.shutdown !the_pool)
    dispatch
