(* Per-pass minor-word allocation of one cold compile, each pass measured
   in isolation after two warmup runs. The numbers printed here are what
   the per-pass ceilings in test/test_packed.ml were calibrated against
   (set at roughly 2x the measured cost); rerun this after changing a
   front-half pass to recalibrate. See doc/hostprof.md, "Per-pass
   allocation budgets". *)

let hw = Alcop_hw.Hw_config.ampere_a100

let () =
  let spec = Alcop_workloads.Suites.mm_rn50_fc in
  let tiling =
    Alcop_sched.Tiling.make ~tb_m:64 ~tb_n:64 ~tb_k:32 ~warp_m:32 ~warp_n:32
      ~warp_k:16 ()
  in
  let params =
    Alcop_perfmodel.Params.make ~tiling ~smem_stages:3 ~reg_stages:2 ()
  in
  let measure name f =
    ignore (f ());
    ignore (f ());
    let w0 = Gc.minor_words () in
    let r = f () in
    let dw = Gc.minor_words () -. w0 in
    Printf.printf "%-24s %10.0f minor words\n%!" name dw;
    r
  in
  let sched =
    measure "schedule" (fun () ->
        Alcop_sched.Schedule.default_gemm ~smem_stages:3 ~reg_stages:2 spec
          tiling)
  in
  let lowered = measure "lower" (fun () -> Alcop_sched.Lower.run sched) in
  let result =
    measure "pipeline" (fun () ->
        match
          Alcop_pipeline.Pass.run ~hw ~hints:lowered.Alcop_sched.Lower.hints
            lowered.Alcop_sched.Lower.kernel
        with
        | Ok r -> r
        | Error _ -> failwith "pipeline failed")
  in
  let analysis =
    measure "pipeline-analysis" (fun () ->
        match
          Alcop_pipeline.Analysis.run ~hw ~hints:lowered.Alcop_sched.Lower.hints
            lowered.Alcop_sched.Lower.kernel
        with
        | Ok a -> a
        | Error _ -> failwith "analysis failed")
  in
  ignore
    (measure "pipeline-transform" (fun () ->
         Alcop_pipeline.Transform.run analysis lowered.Alcop_sched.Lower.kernel));
  ignore
    (measure "pipeline-validate" (fun () ->
         Alcop_ir.Validate.check_exn
           result.Alcop_pipeline.Pass.kernel));
  let groups = Alcop_pipeline.Pass.groups result in
  let kernel = result.Alcop_pipeline.Pass.kernel in
  let program =
    measure "trace-extract" (fun () ->
        Alcop_gpusim.Trace.extract_program ~groups kernel)
  in
  Printf.printf "program events: %d\n" (Alcop_gpusim.Trace.length program);
  let session = Alcop.Session.create ~hw ~cache:false () in
  ignore
    (measure "full-compile" (fun () -> Alcop.Session.compile session params spec));
  ignore
    (measure "fingerprint" (fun () ->
         Alcop.Fingerprint.compile_key ~hw ~extra_regs_per_thread:0 params spec));
  (* simulate alone, via the compiled request *)
  (match Alcop.Session.compile session params spec with
   | Ok c ->
     ignore
       (measure "timing-run" (fun () ->
            Alcop_gpusim.Timing.run c.Alcop.Compiler.timing_request))
   | Error _ -> ())
