(* alcop: command-line interface to the compiler.

     alcop ops                       -- list the built-in operator suite
     alcop show MM_RN50_FC           -- print input and pipelined IR
     alcop time MM_RN50_FC           -- simulate one schedule, with breakdown
     alcop profile MM_RN50_FC        -- per-stage stall attribution + trace
     alcop tune MM_RN50_FC -m xgb+   -- run a tuner
     alcop verify <op>               -- functional check on a small operator

   Operators are either suite names (see `alcop ops`) or ad-hoc shapes via
   --shape BxMxNxK / --shape MxNxK. *)

open Cmdliner
open Alcop

let hw = Alcop_hw.Hw_config.default

(* --- shared argument parsing --- *)

(* A zero or negative dimension of an ad-hoc shape is a command-line error
   (exit 124), like a non-positive tile, not an [Op_spec] exception. *)
let spec_of_string s =
  match Alcop_workloads.Suites.find s with
  | Some spec -> Ok spec
  | None ->
    (match List.map int_of_string (String.split_on_char 'x' s) with
     | ([ _; _; _ ] | [ _; _; _; _ ]) as dims
       when List.exists (fun d -> d <= 0) dims ->
       Error
         (`Msg
            (Printf.sprintf "operator %s: every dimension must be positive" s))
     | [ m; n; k ] ->
       Ok (Alcop_sched.Op_spec.matmul ~name:s ~m ~n ~k ())
     | [ b; m; n; k ] ->
       Ok (Alcop_sched.Op_spec.batched_matmul ~name:s ~batch:b ~m ~n ~k ())
     | _ | (exception _) ->
       Error
         (`Msg
            (Printf.sprintf
               "unknown operator %s (not in the suite, not MxNxK / BxMxNxK)" s)))

let spec_conv =
  Arg.conv
    ( spec_of_string,
      fun fmt spec -> Alcop_sched.Op_spec.pp fmt spec )

let spec_arg =
  Arg.(required & pos 0 (some spec_conv) None
       & info [] ~docv:"OP" ~doc:"Operator: a suite name or MxNxK / BxMxNxK.")

(* Tile shapes are positive MxNxK triples. A zero or negative dimension is
   a command-line error (exit 124, like any malformed option) instead of a
   division by zero deep in the compiler. *)
let tile_conv =
  let triple = Arg.(t3 ~sep:'x' int int int) in
  let parse s =
    match Arg.conv_parser triple s with
    | Ok (m, n, k) when m > 0 && n > 0 && k > 0 -> Ok (m, n, k)
    | Ok _ ->
      Error (`Msg (Printf.sprintf "tile %s: every dimension must be positive" s))
    | Error _ as e -> e
  in
  Arg.conv ~docv:"MxNxK" (parse, Arg.conv_printer triple)

(* Counts with a floor of [min] (default 1): a tuning budget ([--budget
   0] would measure nothing), a pipeline stage count (1 = no pipelining;
   below 1 [Params.make] raises) and perf's budget (0 = the whole space).
   Anything lower is a command-line error (exit 124). *)
let count_conv ?(min = 1) what =
  let parse s =
    match Arg.conv_parser Arg.int s with
    | Ok n when n >= min -> Ok n
    | Ok _ ->
      Error (`Msg (Printf.sprintf "%s %s: must be at least %d" what s min))
    | Error _ as e -> e
  in
  Arg.conv ~docv:"N" (parse, Arg.conv_printer Arg.int)

(* A store cap in mebibytes: a negative cap would empty the store, and one
   of [max_int / 2^20] or more overflows its byte count. Either is a
   command-line error (exit 124). *)
let mib_conv =
  let limit = max_int / (1024 * 1024) in
  let parse s =
    match Arg.conv_parser Arg.int s with
    | Ok n when n >= 0 && n < limit -> Ok n
    | Ok _ -> Error (`Msg (Printf.sprintf "%s: must be in 0 .. %d" s (limit - 1)))
    | Error _ as e -> e
  in
  Arg.conv ~docv:"MIB" (parse, Arg.conv_printer Arg.int)

let budget_conv = count_conv "budget"
let stage_conv = count_conv "stage count"

let tiling_term =
  let open Term in
  let tb =
    Arg.(value & opt tile_conv (64, 64, 32)
         & info [ "tb" ] ~docv:"MxNxK" ~doc:"Threadblock tile.")
  in
  let warp =
    Arg.(value & opt tile_conv (32, 32, 16)
         & info [ "warp" ] ~docv:"MxNxK" ~doc:"Warp tile.")
  in
  let split =
    Arg.(value & opt int 1
         & info [ "split-k" ] ~doc:"Split-K reduction parallelism (1 = off).")
  in
  const (fun (tb_m, tb_n, tb_k) (warp_m, warp_n, warp_k) split_k ->
      Alcop_sched.Tiling.make ~split_k ~tb_m ~tb_n ~tb_k ~warp_m ~warp_n
        ~warp_k ())
  $ tb $ warp $ split

let stages_term =
  let open Term in
  let smem =
    Arg.(value & opt stage_conv 3
         & info [ "smem-stages" ] ~doc:"Shared-memory pipeline stages (1 = off).")
  in
  let reg =
    Arg.(value & opt stage_conv 2
         & info [ "reg-stages" ] ~doc:"Register pipeline stages (1 = off).")
  in
  let fuse =
    Arg.(value & opt bool true
         & info [ "inner-fuse" ] ~doc:"Inner-pipeline fusion (Fig. 3d).")
  in
  const (fun smem_stages reg_stages inner_fuse -> (smem_stages, reg_stages, inner_fuse))
  $ smem $ reg $ fuse

let params_term =
  Term.(const (fun tiling (smem_stages, reg_stages, inner_fuse) ->
            Alcop_perfmodel.Params.make ~inner_fuse ~tiling ~smem_stages
              ~reg_stages ())
        $ tiling_term $ stages_term)

(* --- commands --- *)

let ops_cmd =
  let run () =
    List.iter
      (fun spec -> Format.printf "%a@." Alcop_sched.Op_spec.pp spec)
      Alcop_workloads.Suites.fig10;
    Format.printf "%a  (motivating example)@." Alcop_sched.Op_spec.pp
      Alcop_workloads.Suites.motivating
  in
  Cmd.v (Cmd.info "ops" ~doc:"List the built-in operator suite.")
    Term.(const run $ const ())

(* The evaluating commands ([time], [tune]) go through a [Session]: the
   shared per-hardware one by default, or a pass-through session under
   --no-cache. The schedule views compile with [Compiler] and touch
   neither.

   The persistent artifact store is on by default (rooted per --store /
   $ALCOP_STORE / XDG, see [Store.default_root]) so repeated invocations
   skip work across processes; --no-store opts out, and an unwritable
   root degrades to exactly that with a one-line warning. *)
let session_of ?store_dir ?(no_store = false) ~no_cache () =
  let store =
    if no_store then None
    else
      let st = Store.create ?root:store_dir () in
      if Store.enabled st then Some st else None
  in
  let session =
    if no_cache then Session.create ~hw ~cache:false ()
    else Session.for_hw hw
  in
  Session.attach_store session store;
  session

(* One line of store traffic after the session summary, printed by the
   commands that run through [session_of] with the cache on. *)
let print_store_summary session =
  match Session.store session with
  | Some st ->
    let s = Store.stats st in
    Printf.printf
      "artifact store: %d hits / %d misses, %d written, %d corrupt skipped \
       (%s)\n"
      s.Store.hits s.Store.misses s.Store.writes s.Store.corrupt
      (Store.root st)
  | None -> ()

(* -j / --jobs: 0 (the default) resolves via ALCOP_JOBS or the domain
   count. A resolved value of 1 means "no pool at all" — commands pass
   [None] downstream and take the canonical sequential paths. *)
let jobs_term =
  Arg.(value & opt int 0
       & info [ "j"; "jobs" ] ~docv:"N"
           ~doc:"Worker domains for parallel evaluation (0 = $(b,ALCOP_JOBS) \
                 or the recommended domain count). Results are bit-identical \
                 to $(b,-j 1); only wall-clock time changes.")

let with_jobs jobs f =
  let jobs = if jobs <= 0 then Alcop_par.Pool.default_jobs () else jobs in
  if jobs <= 1 then f None
  else Alcop_par.Pool.with_pool ~jobs (fun pool -> f (Some pool))

(* A compile error ends every command that needs the compiled schedule:
   one line on stderr, exit 1. *)
let or_exit = function
  | Ok v -> v
  | Error e ->
    Printf.eprintf "compile error: %s\n" (Compiler.error_to_string e);
    exit 1

(* --dump-ir-after=PASS: print the intermediate kernel right after the
   named pass. Installed before compiling; unknown names are a CLI error
   listing the valid IR-producing passes. *)
let install_dump_ir = function
  | None -> ()
  | Some pass ->
    (match
       Passman.set_dump ~after:pass (fun name kernel ->
           Printf.printf "=== IR after pass %s ===\n%s\n" name
             (Alcop_ir.Kernel.to_string kernel))
     with
     | Ok () -> ()
     | Error msg ->
       Printf.eprintf "%s\n" msg;
       exit 2)

let dump_ir_term =
  Arg.(value & opt (some string) None
       & info [ "dump-ir-after" ] ~docv:"PASS"
           ~doc:"Print the intermediate kernel IR right after the named \
                 compile pass (IR-producing passes: lower, pipeline).")

let no_cache_term =
  Arg.(value & flag
       & info [ "no-cache" ]
           ~doc:"Bypass the content-addressed compilation cache.")

let store_dir_term =
  Arg.(value & opt (some string) None
       & info [ "store" ] ~docv:"DIR"
           ~doc:"Root of the persistent artifact store (default: \
                 $(b,ALCOP_STORE), else $(b,XDG_CACHE_HOME)/alcop, else \
                 ~/.cache/alcop).")

let no_store_term =
  Arg.(value & flag
       & info [ "no-store" ]
           ~doc:"Disable the persistent on-disk artifact store.")

(* Every output flag writes its file through [write_output]: [write]
   opens PATH itself, and an unwritable path becomes a one-line error and
   exit 1, as `alcop --help` documents, instead of an uncaught Sys_error.
   Views hand over data — text, or events for a [Sinks] file sink. *)
let write_output path write =
  match write path with
  | v -> v
  | exception Sys_error msg ->
    Printf.eprintf "cannot open %s: %s\n" path msg;
    exit 1

let write_text path text =
  write_output path (fun path ->
      Out_channel.with_open_text path (fun oc -> output_string oc text))

(* A live sink for the whole run. [reset_at_exit] guarantees it is closed
   (file flushed, Chrome trace document written) even when a later step
   exits early — e.g. [or_exit]'s [exit 1] on a compile error. *)
let install_file_sink make path =
  write_output path (fun path ->
      Alcop_obs.Obs.add_sink (make path);
      Alcop_obs.Obs.reset_at_exit ())

let show_cmd =
  let run spec params before cuda dump_ir =
    install_dump_ir dump_ir;
    let c = or_exit (Compiler.compile ~hw params spec) in
    if before then begin
      print_endline "=== Input IR (unpipelined) ===";
      print_endline
        (Alcop_ir.Kernel.to_string c.Compiler.lowered.Alcop_sched.Lower.kernel);
      print_newline ()
    end;
    if cuda then begin
      print_string
        (Alcop_cuda.Codegen.kernel ~groups:c.Compiler.groups c.Compiler.kernel);
      match c.Compiler.lowered.Alcop_sched.Lower.reduce with
      | Some r ->
        print_newline ();
        print_string (Alcop_cuda.Codegen.kernel r)
      | None -> ()
    end
    else begin
      print_endline "=== Pipelined IR ===";
      print_endline (Alcop_ir.Kernel.to_string c.Compiler.kernel);
      List.iter
        (fun (g : Alcop_pipeline.Analysis.group) ->
          Format.printf "group %s: stages=%d loop=%s fused=%b@."
            g.Alcop_pipeline.Analysis.id g.Alcop_pipeline.Analysis.stages
            g.Alcop_pipeline.Analysis.loop_var g.Alcop_pipeline.Analysis.fused)
        c.Compiler.groups
    end
  in
  let before =
    Arg.(value & flag & info [ "before" ] ~doc:"Also print the unpipelined IR.")
  in
  let cuda =
    Arg.(value & flag
         & info [ "cuda" ] ~doc:"Emit illustrative CUDA C++ instead of IR.")
  in
  Cmd.v
    (Cmd.info "show" ~doc:"Print the (pipelined) IR of an operator's kernel.")
    Term.(const run $ spec_arg $ params_term $ before $ cuda $ dump_ir_term)

let time_cmd =
  let print_report spec params latency (t : Alcop_gpusim.Timing.kernel_timing) =
    Printf.printf "schedule:       %s\n"
      (Alcop_perfmodel.Params.to_string params);
    Printf.printf "latency:        %.0f cycles (%.1f us)\n" latency
      (Alcop_hw.Hw_config.cycles_to_us hw latency);
    Printf.printf "waves:          %d (%d TBs/SM, limited by %s)\n"
      t.Alcop_gpusim.Timing.n_waves t.Alcop_gpusim.Timing.tbs_per_sm
      t.Alcop_gpusim.Timing.occupancy_limiter;
    Printf.printf "wave / tail:    %.0f / %.0f cycles\n"
      t.Alcop_gpusim.Timing.wave_cycles t.Alcop_gpusim.Timing.tail_cycles;
    Printf.printf "LLC miss rate:  %.2f\n" t.Alcop_gpusim.Timing.miss_rate;
    Printf.printf "TC utilization: %.0f%%\n"
      (100.0 *. Alcop_gpusim.Timing.compute_utilization t);
    (match t.Alcop_gpusim.Timing.wave_busy with
     | Some b when b.Alcop_gpusim.Timing.cycles > 0.0 ->
       let frac x = 100.0 *. Float.min 1.0 (x /. b.Alcop_gpusim.Timing.cycles) in
       Printf.printf
         "wave busy:      compute %.0f%% / DRAM %.0f%% / LLC %.0f%% / smem %.0f%%\n"
         (frac b.Alcop_gpusim.Timing.compute_busy)
         (frac b.Alcop_gpusim.Timing.dram_busy)
         (frac b.Alcop_gpusim.Timing.llc_busy)
         (frac b.Alcop_gpusim.Timing.smem_busy)
     | _ -> ());
    Printf.printf "TFLOPS:         %.1f\n"
      (float_of_int (Alcop_sched.Op_spec.flops spec)
       /. (latency /. hw.Alcop_hw.Hw_config.clock_ghz)
       /. 1000.0);
    match Alcop_perfmodel.Model.predict hw spec params with
    | Ok p ->
      Printf.printf "analytical:     %.0f cycles (%s-bound main loop)\n"
        p.Alcop_perfmodel.Model.cycles
        (if p.Alcop_perfmodel.Model.smem_bound then "load" else "compute")
    | Error _ -> ()
  in
  let run spec params trace_out no_cache store_dir no_store =
    match trace_out with
    | Some path ->
      (* The Chrome trace wants the real compile phases, so this path
         compiles cold and consults neither the memo nor the store. *)
      install_file_sink Alcop_obs.Sinks.chrome_trace_file path;
      let c = or_exit (Compiler.compile ~hw params spec) in
      print_report spec params c.Compiler.latency_cycles c.Compiler.timing;
      Alcop_obs.Obs.reset ();
      Printf.printf "Chrome trace written to %s (open in chrome://tracing)\n"
        path
    | None ->
      (* Evaluation-grade query: servable by the in-memory cache, the
         on-disk store (a warm run in a *fresh process* never compiles),
         or a cold compile — whichever tier answers first. *)
      let session = session_of ?store_dir ~no_store ~no_cache () in
      (match Session.timing session params spec with
       | Ok r ->
         print_report spec params r.Session.latency_cycles r.Session.timing;
         if not no_cache then begin
           Printf.printf "%s\n" (Session.summary session);
           print_store_summary session
         end
       | Error msg ->
         Printf.eprintf "compile error: %s\n" msg;
         exit 1)
  in
  let trace_out =
    Arg.(value & opt (some string) None
         & info [ "trace-out" ] ~docv:"FILE"
             ~doc:"Write a Chrome trace-event JSON file of the compile \
                   phases and simulator gauges.")
  in
  Cmd.v
    (Cmd.info "time" ~doc:"Simulate one schedule and print the breakdown.")
    Term.(const run $ spec_arg $ params_term $ trace_out $ no_cache_term
          $ store_dir_term $ no_store_term)

(* alcop profile: replay the simulated launch with the recording on and
   print where every cycle went; optionally export the simulated-time
   Chrome trace and compare the analytical/bottleneck models against the
   simulator over the whole Fig. 10 suite. *)
let profile_cmd =
  let dashboard params =
    Printf.printf
      "\n== model accuracy dashboard (schedule %s) ==\n"
      (Alcop_perfmodel.Params.to_string params);
    Printf.printf "%-14s %12s %12s %12s %10s %10s  %-7s %-10s %s\n" "operator"
      "analytical" "bottleneck" "simulator" "resid(an)" "resid(bt)" "model"
      "sim-stall" "agree";
    let ana_rs = ref [] and btl_rs = ref [] in
    List.iter
      (fun spec ->
        let name = spec.Alcop_sched.Op_spec.name in
        match Compiler.profile ~hw params spec with
        | Error e ->
          Printf.printf "%-14s %s\n" name
            ("compile fail: " ^ Compiler.error_kind e)
        | Ok p ->
          let sim =
            p.Alcop_gpusim.Profile.p_timing.Alcop_gpusim.Timing.total_cycles
          in
          let dominant =
            Alcop_gpusim.Timing.stall_class_name
              (Alcop_gpusim.Profile.dominant_stall p)
          in
          (match Alcop_perfmodel.Model.predict hw spec params with
           | Error f ->
             Format.printf "%-14s model failure: %a@." name
               Alcop_gpusim.Occupancy.pp_failure f
           | Ok m ->
             let ana = m.Alcop_perfmodel.Model.cycles in
             let memory_bound = m.Alcop_perfmodel.Model.smem_bound in
             let r_ana = Alcop_perfmodel.Residual.make ~predicted:ana ~actual:sim in
             ana_rs := r_ana :: !ana_rs;
             let btl = Alcop_perfmodel.Bottleneck.predict_cycles hw spec params in
             let btl_str, resid_btl_str =
               match btl with
               | Some b ->
                 let r = Alcop_perfmodel.Residual.make ~predicted:b ~actual:sim in
                 btl_rs := r :: !btl_rs;
                 ( Printf.sprintf "%12.0f" b,
                   Printf.sprintf "%+9.1f%%"
                     (100.0 *. r.Alcop_perfmodel.Residual.signed_rel) )
               | None -> (Printf.sprintf "%12s" "-", Printf.sprintf "%10s" "-")
             in
             Printf.printf "%-14s %12.0f %s %12.0f %+9.1f%% %s  %-7s %-10s %s\n"
               name ana btl_str sim
               (100.0 *. r_ana.Alcop_perfmodel.Residual.signed_rel)
               resid_btl_str
               (Alcop_perfmodel.Residual.model_bound_name ~memory_bound)
               dominant
               (if Alcop_perfmodel.Residual.bound_agreement ~memory_bound
                     ~sim_stall:dominant
                then "yes" else "NO")))
      Alcop_workloads.Suites.fig10;
    let pct v = 100.0 *. v in
    Printf.printf "mean |residual|: analytical %.1f%%"
      (pct (Alcop_perfmodel.Residual.mean_abs !ana_rs));
    if !btl_rs <> [] then
      Printf.printf "  bottleneck %.1f%%"
        (pct (Alcop_perfmodel.Residual.mean_abs !btl_rs));
    print_newline ()
  in
  let run spec params trace_out jsonl_out compare_model =
    let p = or_exit (Compiler.profile ~hw params spec) in
    print_string (Alcop_gpusim.Profile.report p);
    let events = Alcop_gpusim.Profile.events p in
    (match trace_out with
     | Some path ->
       write_output path (fun path ->
           Alcop_obs.Sinks.(
             emit_all (chrome_trace_file ~ts_to_us:Fun.id path) events));
       Printf.printf
         "\nChrome trace (simulated time, 1 cycle = 1 us) written to %s\n" path
     | None -> ());
    (match jsonl_out with
     | Some path ->
       write_output path (fun path ->
           Alcop_obs.Sinks.(emit_all (jsonl_file path) events));
       Printf.printf "JSONL event log written to %s\n" path
     | None -> ());
    if compare_model then dashboard params
  in
  let trace_out =
    Arg.(value & opt (some string) None
         & info [ "trace-out" ] ~docv:"FILE"
             ~doc:"Write a Chrome trace-event JSON file of *simulated* time: \
                   per-threadblock stall timelines and per-stage async-copy \
                   tracks (open in chrome://tracing or Perfetto).")
  in
  let jsonl_out =
    Arg.(value & opt (some string) None
         & info [ "jsonl-out" ] ~docv:"FILE"
             ~doc:"Write the same profile events as a JSONL log.")
  in
  let compare_model =
    Arg.(value & flag
         & info [ "compare-model" ]
             ~doc:"Append a model-accuracy dashboard: analytical (Table I) \
                   and bottleneck predictions vs. the simulator over the \
                   Fig. 10 suite, with residuals and the stall class each \
                   model's bound assumption gets wrong.")
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:"Profile one schedule inside the simulated GPU: stall \
             attribution per pipeline stage, roofline, and a simulated-time \
             Chrome trace.")
    Term.(const run $ spec_arg $ params_term $ trace_out $ jsonl_out
          $ compare_model)

let method_conv =
  Arg.enum
    [ ("grid", Alcop_tune.Tuner.Grid); ("xgb", Alcop_tune.Tuner.Xgb);
      ("analytical", Alcop_tune.Tuner.Analytical_only);
      ("xgb+", Alcop_tune.Tuner.Analytical_xgb) ]

(* The pipeline observatory's feature record of every trial that
   compiled, keyed by space index: the [features] of the tuning log. The
   tuning session kept only evaluation records, so each trial is compiled
   and recorded again. *)
let trial_features spec (r : Alcop_tune.Tuner.result) =
  Array.to_list r.Alcop_tune.Tuner.trials
  |> List.filter_map (fun (trial : Alcop_tune.Tuner.trial) ->
         match trial.cost with
         | None -> None
         | Some _ ->
           Compiler.profile ~hw trial.params spec
           |> Result.to_option
           |> Option.map (fun p ->
                  ( trial.index,
                    Alcop_gpusim.Pipeview.(features (of_profile p)) )))

let tune_cmd =
  let run spec method_ budget seed log log_jsonl no_cache store_dir no_store
      jobs =
    (match log_jsonl with
     | Some path -> install_file_sink Alcop_obs.Sinks.jsonl_file path
     | None -> ());
    let session = session_of ?store_dir ~no_store ~no_cache () in
    let evaluate = Variants.evaluator ~hw ~session Variants.alcop spec in
    let space = Variants.space Variants.alcop spec in
    Printf.printf "space: %d schedules; method: %s; budget: %d\n%!"
      (Array.length space)
      (Alcop_tune.Tuner.method_to_string method_)
      budget;
    let result =
      with_jobs jobs @@ fun pool ->
      Alcop_tune.Tuner.run ?pool ~hw ~spec ~space ~evaluate ~budget ~seed
        method_
    in
    Array.iteri
      (fun i (t : Alcop_tune.Tuner.trial) ->
        Printf.printf "%3d  %-60s %s\n" (i + 1)
          (Alcop_perfmodel.Params.to_string t.Alcop_tune.Tuner.params)
          (match t.Alcop_tune.Tuner.cost with
           | Some c -> Printf.sprintf "%.0f cycles" c
           | None -> "compile fail"))
      result.Alcop_tune.Tuner.trials;
    (match Alcop_tune.Tuner.best result with
     | Some best ->
       Printf.printf "best in %d trials: %.0f cycles\n"
         (Array.length result.Alcop_tune.Tuner.trials) best
     | None -> Printf.printf "no trial compiled\n");
    if not no_cache then begin
      Printf.printf "%s\n" (Session.summary session);
      print_store_summary session
    end;
    (* The JSONL log records the tuning run; it closes before the
       feature record compiles the trials again. *)
    if Option.is_some log_jsonl then Alcop_obs.Obs.reset ();
    (match log with
     | Some path ->
       write_text path
         (Alcop_tune.Tuning_log.to_json ~features:(trial_features spec result)
            ~spec_name:spec.Alcop_sched.Op_spec.name ~method_ ~seed result
          ^ "\n");
       Printf.printf "tuning log written to %s\n" path
     | None -> ());
    Option.iter (Printf.printf "JSONL event log written to %s\n") log_jsonl
  in
  let method_ =
    Arg.(value & opt method_conv Alcop_tune.Tuner.Analytical_xgb
         & info [ "m"; "method" ] ~doc:"grid | xgb | analytical | xgb+.")
  in
  let budget =
    Arg.(value & opt budget_conv 20
         & info [ "budget" ] ~doc:"Measurement budget (at least 1).")
  in
  let seed = Arg.(value & opt int 2023 & info [ "seed" ] ~doc:"Random seed.") in
  let log =
    Arg.(value & opt (some string) None
         & info [ "log" ] ~docv:"FILE" ~doc:"Write a JSON tuning log.")
  in
  let log_jsonl =
    Arg.(value & opt (some string) None
         & info [ "log-jsonl" ] ~docv:"FILE"
             ~doc:"Write a JSONL event log (one record per trial, with \
                   best-so-far cost — enough to reconstruct the search \
                   curve).")
  in
  Cmd.v (Cmd.info "tune" ~doc:"Tune an operator's schedule.")
    Term.(const run $ spec_arg $ method_ $ budget $ seed $ log $ log_jsonl
          $ no_cache_term $ store_dir_term $ no_store_term $ jobs_term)

(* alcop perf: profile the *host* runtime — the compiler's own wall-clock
   across worker domains — while it tunes an operator, then print the
   Amdahl/speedup-loss report (doc/hostprof.md). The profiling window
   opens before the pool spawns and closes after it joins, so every
   worker's full lifetime is on its track; collection stays outside the
   capture/replay path, so any --log-jsonl telemetry written here is
   byte-identical to an unprofiled run (CI diffs it). *)
let perf_cmd =
  let run spec method_ budget seed jobs no_cache trace_out json_out log_jsonl =
    (match log_jsonl with
     | Some path -> install_file_sink Alcop_obs.Sinks.jsonl_file path
     | None -> ());
    (* A fresh session (not the registry one): perf measures the tuning
       hot path as the tuners run it. *)
    let session =
      if no_cache then Session.create ~hw ~cache:false ()
      else Session.create ~hw ()
    in
    let evaluate = Variants.evaluator ~hw ~session Variants.alcop spec in
    let space = Variants.space Variants.alcop spec in
    let budget = if budget = 0 then Array.length space else budget in
    Alcop_obs.Hostprof.start ();
    let result =
      with_jobs jobs @@ fun pool ->
      Alcop_tune.Tuner.run ?pool ~hw ~spec ~space ~evaluate ~budget ~seed
        method_
    in
    let profile = Alcop_obs.Hostprof.stop () in
    Printf.printf "space: %d schedules; method: %s; budget: %d\n"
      (Array.length space)
      (Alcop_tune.Tuner.method_to_string method_)
      budget;
    (match Alcop_tune.Tuner.best result with
     | Some best -> Printf.printf "best: %.0f cycles\n\n" best
     | None -> Printf.printf "no trial compiled\n\n");
    print_string (Alcop_obs.Hostprof.report profile);
    Session.publish_entries_gauge session;
    if not no_cache then Printf.printf "%s\n" (Session.summary session);
    (match trace_out with
     | Some path ->
       write_output path (fun path ->
           Alcop_obs.Sinks.(
             emit_all (chrome_trace_file path)
               (Alcop_obs.Hostprof.events profile)));
       Printf.printf
         "host Chrome trace (one track per domain) written to %s\n" path
     | None -> ());
    (match json_out with
     | Some path ->
       write_text path
         (Alcop_obs.Json.to_string (Alcop_obs.Hostprof.json_of_profile profile)
          ^ "\n");
       Printf.printf "host profile JSON written to %s\n" path
     | None -> ());
    (match log_jsonl with
     | Some path ->
       Alcop_obs.Obs.reset ();
       Printf.printf "JSONL event log written to %s\n" path
     | None -> ());
    (* the accounting contract, enforced on every run *)
    match Alcop_obs.Hostprof.check profile with
    | Ok () -> ()
    | Error msg ->
      Printf.eprintf "hostprof telescoping violation: %s\n" msg;
      exit 3
  in
  let method_ =
    Arg.(value & opt method_conv Alcop_tune.Tuner.Grid
         & info [ "m"; "method" ] ~doc:"grid | xgb | analytical | xgb+.")
  in
  let budget =
    Arg.(value & opt (count_conv ~min:0 "budget") 0
         & info [ "budget" ]
             ~doc:"Measurement budget (0 = the whole schedule space).")
  in
  let seed = Arg.(value & opt int 2023 & info [ "seed" ] ~doc:"Random seed.") in
  let trace_out =
    Arg.(value & opt (some string) None
         & info [ "trace-out" ] ~docv:"FILE"
             ~doc:"Write a Chrome trace of *host* time: one track per \
                   domain (coordinator + workers), task spans with queue \
                   latency, idle/lock-wait intervals.")
  in
  let json_out =
    Arg.(value & opt (some string) None
         & info [ "json-out" ] ~docv:"FILE"
             ~doc:"Write the machine-readable host profile (schema \
                   alcop-hostprof-v1).")
  in
  let log_jsonl =
    Arg.(value & opt (some string) None
         & info [ "log-jsonl" ] ~docv:"FILE"
             ~doc:"Also write the ordinary (simulated-work) JSONL telemetry \
                   — byte-identical to an unprofiled run at any -j.")
  in
  Cmd.v
    (Cmd.info "perf"
       ~doc:"Profile the compiler's own host runtime while tuning an \
             operator: per-domain busy/queue/lock/gc/idle decomposition \
             (telescoping to 100% of each worker's wall), Amdahl expected \
             speedup, top contended locks, allocation-heaviest passes.")
    Term.(const run $ spec_arg $ method_ $ budget $ seed $ jobs_term
          $ no_cache_term $ trace_out $ json_out $ log_jsonl)

let model_cmd =
  let run spec params =
    match Alcop_perfmodel.Model.predict hw spec params with
    | Error f ->
      Format.printf "schedule cannot launch: %a@." Alcop_gpusim.Occupancy.pp_failure f;
      exit 1
    | Ok m ->
      let open Alcop_perfmodel.Model in
      Printf.printf "Table I analytical model for %s\n"
        (Alcop_perfmodel.Params.to_string params);
      Printf.printf "  T_kernel       = %10.0f cycles (T_threadblk x %d batches)\n"
        m.cycles m.n_batches;
      Printf.printf "  T_threadblk    = %10.0f\n" m.t_threadblk;
      Printf.printf "    T_init       = %10.0f  (first smem + reg chunk)\n" m.t_init;
      Printf.printf "    T_main_loop  = %10.0f  (%s-bound)\n" m.t_main_loop
        (if m.smem_bound then "loading" else "compute");
      Printf.printf "    T_epilogue   = %10.0f\n" m.t_epilogue;
      Printf.printf "  T_smem_load    = %10.0f  per K iteration\n" m.t_smem_load;
      Printf.printf "  T_smem_use     = %10.0f  (inner pipeline)\n" m.t_smem_use;
      Printf.printf "  T_reg_load     = %10.0f\n" m.t_reg_load;
      Printf.printf "  T_compute      = %10.0f  per register loop\n" m.t_compute;
      Printf.printf "  N_tb_per_SM    = %10d\n" m.tbs_per_sm;
      (match
         Alcop_perfmodel.Bottleneck.predict_cycles hw spec params,
         Session.evaluate (Session.for_hw hw) params spec
       with
       | Some b, Some sim ->
         Printf.printf "  bottleneck model: %.0f cycles; simulator: %.0f cycles\n"
           b sim
       | _ -> ())
  in
  Cmd.v
    (Cmd.info "model"
       ~doc:"Print the Table I analytical prediction, term by term.")
    Term.(const run $ spec_arg $ params_term)

(* alcop explain: the per-buffer pipelinability report (which of the
   paper's three legality rules passed or failed, and why), the per-phase
   compile timings, and the simulator's busy/occupancy gauges. *)
let explain_cmd =
  let run spec params dump_ir =
    install_dump_ir dump_ir;
    let sink, events = Alcop_obs.Obs.memory_sink () in
    Alcop_obs.Obs.add_sink sink;
    (* A cold compile: the per-pass spans below are real compile timings. *)
    let result = Compiler.compile ~hw params spec in
    let captured = events () in
    (* Simulator gauges only: the [pass.<p>.ms] host timings are above. *)
    let gauges =
      List.filter
        (fun (name, _) -> String.starts_with ~prefix:"timing." name)
        (Alcop_obs.Obs.gauges ())
    in
    Alcop_obs.Obs.reset ();
    Printf.printf "operator:  %s\n" (Format.asprintf "%a" Alcop_sched.Op_spec.pp spec);
    Printf.printf "schedule:  %s\n\n" (Alcop_perfmodel.Params.to_string params);
    let verdicts =
      match result with
      | Ok c ->
        Some
          (Alcop_pipeline.Analysis.verdicts ~hw
             ~hints:c.Compiler.lowered.Alcop_sched.Lower.hints
             c.Compiler.lowered.Alcop_sched.Lower.kernel)
      | Error (Compiler.Legality_rejected { verdicts; _ }) -> Some verdicts
      | Error _ -> None
    in
    print_endline "== pipelinability (paper Sec. II-A legality rules) ==";
    (match verdicts with
     | Some vs -> Format.printf "%a@." Alcop_pipeline.Analysis.pp_verdicts vs
     | None ->
       print_endline
         "(not reached: compilation failed before the pipelining pass)");
    print_endline "";
    print_endline "== compile phases (wall clock) ==";
    List.iter
      (fun (ev : Alcop_obs.Obs.event) ->
        match ev with
        | Alcop_obs.Obs.Span_end { name; dur; depth; _ } when depth > 0 ->
          Printf.printf "  %-20s %10.3f ms\n" name (1e3 *. dur)
        | _ -> ())
      captured;
    if gauges <> [] then begin
      print_endline "";
      print_endline "== simulator gauges ==";
      List.iter
        (fun (name, v) -> Printf.printf "  %-24s %10.4g\n" name v)
        gauges
    end;
    print_endline "";
    match result with
    | Ok c ->
      Printf.printf "compile OK: %.0f cycles (%.1f us)\n"
        c.Compiler.latency_cycles
        (Alcop_hw.Hw_config.cycles_to_us hw c.Compiler.latency_cycles)
    | Error e ->
      Printf.printf "compile FAILED (%s): %s\n" (Compiler.error_kind e)
        (Compiler.error_to_string e);
      exit 1
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:"Explain one schedule: the per-buffer legality verdicts of the \
             pipelining pass, the per-phase compile timings and the \
             simulator gauges.")
    Term.(const run $ spec_arg $ params_term $ dump_ir_term)

(* alcop explain-pipeline: the pipeline observatory (doc/pipeview.md) —
   per-stage buffer occupancy timelines, per-wait prefetch slack, a
   five-term partition of the critical threadblock's cycles, and (with
   --compare) an exact integer telescoping of the latency delta between
   two stage configurations of the same tiling. *)
let stage_pair_conv =
  let parse s =
    let bad () =
      Error (`Msg (Printf.sprintf "bad stage pair %s (want SMEMxREG, e.g. 3x2)" s))
    in
    match String.split_on_char 'x' s with
    | [ a; b ] ->
      (match (int_of_string_opt a, int_of_string_opt b) with
       | Some smem, Some reg when smem >= 1 && reg >= 1 -> Ok (smem, reg)
       | _ -> bad ())
    | _ -> bad ()
  in
  Arg.conv (parse, fun fmt (s, r) -> Format.fprintf fmt "%dx%d" s r)

let explain_pipeline_cmd =
  let with_stages (params : Alcop_perfmodel.Params.t) (smem_stages, reg_stages) =
    Alcop_perfmodel.Params.make ~swizzle:params.Alcop_perfmodel.Params.swizzle
      ~inner_fuse:params.Alcop_perfmodel.Params.inner_fuse
      ~tiling:params.Alcop_perfmodel.Params.tiling ~smem_stages ~reg_stages ()
  in
  let view spec params =
    Alcop_gpusim.Pipeview.of_profile (or_exit (Compiler.profile ~hw params spec))
  in
  let write_html path html =
    write_text path html;
    Printf.printf "HTML report written to %s\n" path
  in
  let run spec params compare html jsonl_out =
    match compare with
    | Some (pair_a, pair_b) ->
      let params_a = with_stages params pair_a
      and params_b = with_stages params pair_b in
      let label_a = Printf.sprintf "%dx%d" (fst pair_a) (snd pair_a)
      and label_b = Printf.sprintf "%dx%d" (fst pair_b) (snd pair_b) in
      let a = view spec params_a in
      let b = view spec params_b in
      print_string
        (Alcop_gpusim.Pipeview.compare_report ~label_a ~label_b a b);
      (match jsonl_out with
       | Some path ->
         write_output path (fun path ->
             Alcop_obs.Sinks.(
               emit_all (jsonl_file path) (Alcop_gpusim.Pipeview.events b)));
         Printf.printf "JSONL event log (schedule %s) written to %s\n"
           label_b path
       | None -> ());
      (match html with
       | Some path ->
         write_html path (Exp_report.pipeview_compare_page ~label_a ~label_b a b)
       | None -> ())
    | None ->
      let v = view spec params in
      print_string (Alcop_gpusim.Pipeview.report v);
      (match Alcop_perfmodel.Model.predict hw spec params with
       | Ok m ->
         let predicted =
           Alcop_perfmodel.Model.predicted_smem_slack m
             ~smem_stages:params.Alcop_perfmodel.Params.smem_stages
         in
         Printf.printf
           "predicted smem slack (Table I): %+.0f cycles per iteration (%s)\n"
           predicted
           (if predicted >= 0.0 then "latency hidden" else "exposed")
       | Error _ -> ());
      (match jsonl_out with
       | Some path ->
         write_output path (fun path ->
             Alcop_obs.Sinks.(
               emit_all (jsonl_file path) (Alcop_gpusim.Pipeview.events v)));
         Printf.printf "JSONL event log written to %s\n" path
       | None -> ());
      (match html with
       | Some path ->
         write_html path (Exp_report.pipeview_page v)
       | None -> ())
  in
  let compare =
    Arg.(value & opt (some (t2 ~sep:',' stage_pair_conv stage_pair_conv)) None
         & info [ "compare" ] ~docv:"SxR,SxR"
             ~doc:"Analyze two stage configurations of the same tiling \
                   (e.g. 1x1,3x2) and telescope the latency delta into \
                   slack/occupancy/sync terms, in exact integer cycles.")
  in
  let html =
    Arg.(value & opt (some string) None
         & info [ "html" ] ~docv:"FILE"
             ~doc:"Write a self-contained HTML report: stage-occupancy \
                   waterfall, prefetch-slack histogram, cycle partition \
                   (and the telescoped delta under --compare).")
  in
  let jsonl_out =
    Arg.(value & opt (some string) None
         & info [ "jsonl-out" ] ~docv:"FILE"
             ~doc:"Write the observatory events (feature record, per-wait \
                   slack points, occupancy spans) as a JSONL log.")
  in
  Cmd.v
    (Cmd.info "explain-pipeline"
       ~doc:"Pipeline observatory: per-stage buffer occupancy, prefetch \
             slack and sync-wait attribution for one schedule, or an exact \
             telescoped latency delta between two (doc/pipeview.md).")
    Term.(const run $ spec_arg $ params_term $ compare $ html $ jsonl_out)

let verify_cmd =
  let run spec params =
    if Alcop_sched.Op_spec.flops spec > 200_000_000 then begin
      Printf.eprintf
        "operator too large for the functional interpreter; pick a small shape\n";
      exit 1
    end;
    match Compiler.verify (or_exit (Compiler.compile ~hw params spec)) with
    | Ok diff -> Printf.printf "OK: max |err| = %g\n" diff
    | Error diff ->
      Printf.printf "MISMATCH: max |err| = %g\n" diff;
      exit 1
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:"Execute the pipelined kernel functionally and compare against \
             the host reference.")
    Term.(const run $ spec_arg $ params_term)

(* alcop trace summary|diff: offline analytics over JSONL event logs
   (written by --jsonl-out / --log-jsonl or any Sinks.jsonl consumer). *)
let load_trace path =
  match Alcop_obs.Trace_reader.load path with
  | Ok t ->
    if t.Alcop_obs.Trace_reader.tr_skipped > 0 then
      Printf.eprintf "warning: %s: skipped %d malformed line%s\n" path
        t.Alcop_obs.Trace_reader.tr_skipped
        (if t.Alcop_obs.Trace_reader.tr_skipped = 1 then "" else "s");
    t
  | Error msg ->
    Printf.eprintf "cannot read trace %s: %s\n" path msg;
    exit 1

let trace_file_arg ~p ~docv =
  Arg.(required & pos p (some file) None
       & info [] ~docv ~doc:"JSONL event log.")

let trace_summary_cmd =
  let run path =
    List.iter print_endline (Alcop_obs.Analytics.summary_lines (load_trace path))
  in
  Cmd.v
    (Cmd.info "summary"
       ~doc:"Summarize a JSONL event log: span table with duration \
             percentiles, critical path, counters, gauges, histograms.")
    Term.(const run $ trace_file_arg ~p:0 ~docv:"TRACE")

let trace_diff_cmd =
  let run old_path new_path =
    let old_trace = load_trace old_path and new_trace = load_trace new_path in
    List.iter print_endline
      (Alcop_obs.Analytics.diff_lines ~old_trace ~new_trace)
  in
  Cmd.v
    (Cmd.info "diff"
       ~doc:"Diff two JSONL event logs: per-span-name duration deltas and, \
             for profiler traces, the stall-class cycle deltas whose sum \
             accounts exactly for the total cycle delta.")
    Term.(const run $ trace_file_arg ~p:0 ~docv:"OLD"
          $ trace_file_arg ~p:1 ~docv:"NEW")

let trace_cmd =
  Cmd.group
    (Cmd.info "trace"
       ~doc:"Offline analytics over JSONL event logs (summary, diff).")
    [ trace_summary_cmd; trace_diff_cmd ]

let report_cmd =
  let run out results_dir bench_json jobs =
    write_text out
      (with_jobs jobs (fun pool ->
           Exp_report.generate ~hw ?pool ~results_dir ~bench_json ()));
    Printf.printf "HTML report written to %s\n" out
  in
  let out =
    Arg.(value & opt string "report.html"
         & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Output HTML file.")
  in
  let results_dir =
    Arg.(value & opt string "results"
         & info [ "results-dir" ] ~docv:"DIR"
             ~doc:"Directory with the figure CSVs written by `bench csv`; \
                   figures are recomputed when absent.")
  in
  let bench_json =
    Arg.(value & opt string "BENCH_gpusim.json"
         & info [ "bench-json" ] ~docv:"FILE"
             ~doc:"Selfbench record (schema alcop-selfbench-v2).")
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:"Write the self-contained HTML experiment report: figures 10, \
             12 and 13, the compiler selfbench, and a stall-class diff \
             explaining the pipelining speedup. Single file, inline SVG, \
             no scripts.")
    Term.(const run $ out $ results_dir $ bench_json $ jobs_term)

(* alcop cache: inspect and garbage-collect the persistent artifact store.
   Both subcommands open the store directly (no session involved), so the
   numbers describe what is on disk, not this process's traffic. *)
let cache_cmd =
  let print_usage st =
    let entries, bytes = Store.usage st in
    Printf.printf "store:    %s%s\n" (Store.root st)
      (if Store.enabled st then "" else "  (disabled: not writable)");
    Printf.printf "entries:  %d\n" entries;
    Printf.printf "size:     %.1f KiB (gc cap %.1f MiB)\n"
      (float_of_int bytes /. 1024.0)
      (float_of_int Store.max_bytes /. 1024.0 /. 1024.0)
  in
  let stats_cmd =
    let run store_dir =
      let st = Store.create ?root:store_dir () in
      print_usage st
    in
    Cmd.v
      (Cmd.info "stats" ~doc:"Print the store's location, entry count and size.")
      Term.(const run $ store_dir_term)
  in
  let gc_cmd =
    let run store_dir max_mib =
      let st = Store.create ?root:store_dir () in
      let max_bytes =
        Option.map (fun m -> m * 1024 * 1024) max_mib
      in
      let removed = Store.gc st ?max_bytes () in
      Printf.printf "evicted:  %d entries\n" removed;
      print_usage st
    in
    let max_mib =
      Arg.(value & opt (some mib_conv) None
           & info [ "max-mib" ] ~docv:"MIB"
               ~doc:"Evict least-recently-used entries until the store fits \
                     under MIB mebibytes (default: the built-in cap).")
    in
    Cmd.v
      (Cmd.info "gc"
         ~doc:"Evict least-recently-used entries until the store fits under \
               its size cap.")
      Term.(const run $ store_dir_term $ max_mib)
  in
  Cmd.group
    (Cmd.info "cache"
       ~doc:"Inspect or garbage-collect the persistent artifact store.")
    [ stats_cmd; gc_cmd ]

let () =
  (* ALCOP_FIXED_TS=1: stamp every event with t=0. With a stateless clock,
     parallel runs replay worker telemetry into byte-identical streams, so
     CI can byte-diff -j 1 against -j N logs (doc/parallelism.md). *)
  (match Sys.getenv_opt "ALCOP_FIXED_TS" with
   | Some ("" | "0") | None -> ()
   | Some _ -> Alcop_obs.Obs.set_clock (fun () -> 0.0));
  let exits =
    Cmd.Exit.info 1
      ~doc:"on a compile error, an unreadable input or an unwritable output."
    :: Cmd.Exit.info 2 ~doc:"on an unknown $(b,--dump-ir-after) pass."
    :: Cmd.Exit.info 3
         ~doc:"when $(b,perf)'s host profile does not sum to wall time."
    :: Cmd.Exit.defaults
  in
  let info =
    Cmd.info "alcop" ~version:"1.0" ~exits
      ~doc:"ALCOP: automatic load-compute pipelining on a simulated AI-GPU."
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [ ops_cmd; show_cmd; time_cmd; profile_cmd; perf_cmd; model_cmd;
            tune_cmd; explain_cmd; explain_pipeline_cmd; verify_cmd; trace_cmd;
            report_cmd; cache_cmd ]))
