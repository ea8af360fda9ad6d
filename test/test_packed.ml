(* Equivalence gate of the packed-program replay datapath.

   [Legacy_sim] is a frozen copy of the boxed-event wave simulator as it
   stood before the packed refactor. These properties drive both engines
   over random schedules — unstructured event soups and structured
   multi-stage pipelines, scope-synchronized and not — and demand exact
   equality: wave latencies, busy counters, the full advance/flight
   probe streams (hence per-class stall breakdowns; the packed side's
   recording projects onto them), at -j 1 and -j 4. They are what
   allowed the legacy replay path to be deleted from the library.

   Also here: the recording's own stream contract and the allocation
   budgets of a cold compile+simulate. *)

open Alcop_gpusim

let hw = Alcop_hw.Hw_config.ampere_a100
let gshared = "pipe.shared.ko"
let greg = "pipe.register.ki"

type sched = { events : Trace.event array; cfg : Timing.config }

let sched_to_string s =
  Format.asprintf "tbs=%d sms=%d warps=%d miss=%.1f pen=%.1f io=%.1f bar=[%s]@ %a"
    s.cfg.Timing.residents s.cfg.Timing.active_sms s.cfg.Timing.warps_per_tb
    s.cfg.Timing.miss_rate s.cfg.Timing.smem_penalty
    s.cfg.Timing.issue_overhead
    (String.concat "," s.cfg.Timing.barrier_groups)
    (Format.pp_print_list
       ~pp_sep:(fun f () -> Format.pp_print_string f "; ")
       Trace.pp_event)
    (Array.to_list s.events)

(* Unstructured schedules: arbitrary event orders exercise every edge of
   the batch-ordinal precomputation — waits before commits, unbalanced
   commits, group-less async loads, back-to-back barriers. *)
let gen_event =
  let open QCheck.Gen in
  let any_group = oneofl [ None; Some gshared; Some greg ] in
  let some_group = oneofl [ gshared; greg ] in
  let bytes = oneofl [ 128; 512; 2048; 16384; 131072 ] in
  frequency
    [ ( 4,
        let* level = oneofl [ Trace.From_global; Trace.From_shared ] in
        let* bytes = bytes in
        let* async = bool in
        let* group = any_group in
        return (Trace.Load { level; bytes; async; group }) );
      ( 2,
        let* flops = oneofl [ 2048; 65536; 409600 ] in
        return (Trace.Compute { flops }) );
      (1, let* b = bytes in return (Trace.Store { bytes = b }));
      ( 2,
        let* g = some_group in
        let* sync = bool in
        return (Trace.Commit { group = g; sync }) );
      ( 2,
        let* g = some_group in
        let* sync = bool in
        return (Trace.Wait_oldest { group = g; sync }) );
      ( 1,
        let* g = some_group in
        let* stages = int_range 2 4 in
        return (Trace.Acquire { group = g; stages }) );
      (1, let* g = some_group in return (Trace.Release g));
      (1, return Trace.Barrier) ]

(* Structured schedules: the shape the pipelining pass actually emits —
   a [stages - 1]-deep prologue then a steady-state loop, optionally with
   a register-level (non-synchronized) inner pipeline. *)
let structured ~stages ~iters ~bytes ~flops ~reg =
  let acq = Trace.Acquire { group = gshared; stages } in
  let aload b =
    Trace.Load
      { level = Trace.From_global; bytes = b; async = true;
        group = Some gshared }
  in
  let sload b =
    Trace.Load
      { level = Trace.From_shared; bytes = b; async = reg;
        group = (if reg then Some greg else None) }
  in
  let commit_sh = Trace.Commit { group = gshared; sync = true } in
  let wait_sh = Trace.Wait_oldest { group = gshared; sync = true } in
  let prologue =
    List.concat
      (List.init (stages - 1) (fun _ -> [ acq; aload bytes; commit_sh ]))
  in
  let iter _ =
    [ acq; aload bytes; commit_sh; wait_sh ]
    @ (if reg then
         [ sload (bytes / 4);
           Trace.Commit { group = greg; sync = false };
           Trace.Wait_oldest { group = greg; sync = false } ]
       else [ sload (bytes / 4) ])
    @ [ Trace.Compute { flops }; Trace.Release gshared ]
  in
  prologue
  @ List.concat (List.init iters iter)
  @ [ Trace.Barrier; Trace.Store { bytes } ]

let gen_sched =
  let open QCheck.Gen in
  let* events =
    oneof
      [ (let* n = int_range 8 60 in
         list_repeat n gen_event >|= Array.of_list);
        (let* stages = int_range 2 4 in
         let* iters = int_range 3 10 in
         let* bytes = oneofl [ 2048; 16384; 131072 ] in
         let* flops = oneofl [ 65536; 409600 ] in
         let* reg = bool in
         return (Array.of_list (structured ~stages ~iters ~bytes ~flops ~reg)))
      ]
  in
  let* residents = int_range 1 4 in
  let* active_sms = oneofl [ 1; 2; 8; 108 ] in
  let* warps_per_tb = int_range 1 8 in
  let* miss_rate = oneofl [ 0.0; 0.3; 1.0 ] in
  let* smem_penalty = oneofl [ 1.0; 2.0; 3.0 ] in
  let* issue_overhead = oneofl [ 0.0; 4.0 ] in
  let* barrier_groups = oneofl [ []; [ gshared ]; [ gshared; greg ] ] in
  return
    { events;
      cfg =
        { Timing.hw; residents; active_sms; warps_per_tb; miss_rate;
          smem_penalty; issue_overhead; barrier_groups } }

let arb_sched = QCheck.make ~print:sched_to_string gen_sched

let collecting () =
  let advs : Legacy_sim.advance list ref = ref [] in
  let fls : Legacy_sim.flight list ref = ref [] in
  ( { Legacy_sim.on_advance = (fun a -> advs := a :: !advs);
      on_flight = (fun f -> fls := f :: !fls) },
    advs, fls )

(* A recorded packed replay, projected onto the legacy probe streams: its
   [Interval] and [Flight] events, newest first like [collecting]. *)
let recorded_streams cfg (program : Trace.program) =
  let rc = Timing.recording () in
  let r = Timing.simulate_program ~recording:rc cfg program in
  let name g = if g >= 0 then Some program.Trace.groups.(g) else None in
  let advs, fls =
    Timing.fold
      (fun (advs, fls) -> function
        | Timing.Interval { tb; cls; group; ordinal; start; stop } ->
          ( { Legacy_sim.adv_tb = tb; adv_class = cls; adv_group = name group;
              adv_ordinal = ordinal; adv_start = start; adv_stop = stop }
            :: advs,
            fls )
        | Timing.Flight { tb; group; batch; async; level; bytes; issue; landed }
          ->
          ( advs,
            { Legacy_sim.fl_tb = tb; fl_group = name group; fl_batch = batch;
              fl_async = async; fl_level = level; fl_bytes = bytes;
              fl_issue = issue; fl_land = landed }
            :: fls )
        | _ -> (advs, fls))
      ([], []) rc
  in
  (r, advs, fls)

(* Latency + busy equivalence, no probe: the tuner-facing fast path. *)
let prop_results_equal =
  QCheck.Test.make ~name:"packed replay == legacy (latencies, busy)"
    ~count:150 arb_sched (fun s ->
      let legacy = Legacy_sim.simulate_wave s.cfg s.events in
      let packed = Timing.simulate_program s.cfg (Trace.pack s.events) in
      legacy = packed)

(* Probe equivalence: the complete advance and flight streams — classes,
   groups, batch ordinals, interval endpoints, order — must be
   bit-identical, which subsumes every per-class stall breakdown. *)
let prop_probe_streams_equal =
  QCheck.Test.make ~name:"packed replay == legacy (probe streams)"
    ~count:120 arb_sched (fun s ->
      let lp, ladv, lfl = collecting () in
      let lr = Legacy_sim.simulate_wave ~probe:lp s.cfg s.events in
      let pr, padv, pfl = recorded_streams s.cfg (Trace.pack s.events) in
      lr = pr && !ladv = padv && !lfl = pfl)

(* Same, over real compiler output: traces extracted from random
   pipelined kernels (reusing the property-test generator), with the
   packed side fed by [extract_program] directly — covering the
   extraction rewrite, not just [pack]. *)
let prop_compiled_equal =
  QCheck.Test.make ~name:"packed replay == legacy (compiled kernels)"
    ~count:25 Test_property.arb_case (fun c ->
      match Test_property.compile_case c with
      | None -> QCheck.assume_fail ()
      | Some (_, _, kernel, groups) ->
        let program = Trace.extract_program ~groups kernel in
        let events = Trace.decode program in
        let barrier_groups =
          List.filter_map
            (fun (g : Alcop_pipeline.Analysis.group) ->
              if g.Alcop_pipeline.Analysis.synchronized then
                Some g.Alcop_pipeline.Analysis.id
              else None)
            groups
        in
        let cfg =
          { Timing.hw; residents = 2; active_sms = 8; warps_per_tb = 4;
            miss_rate = 0.5; smem_penalty = 1.0; issue_overhead = 4.0;
            barrier_groups }
        in
        let lp, ladv, lfl = collecting () in
        let lr = Legacy_sim.simulate_wave ~probe:lp cfg events in
        let pr, padv, pfl = recorded_streams cfg program in
        lr = pr && !ladv = padv && !lfl = pfl)

(* The recording's stream contract on compiled kernels: no wait finishes
   before its batch is ready or before it begins, and each threadblock's
   intervals run contiguously from 0 to its drain's finish. *)
let prop_recording_contract =
  QCheck.Test.make
    ~name:"recording: consumes finish after ready, intervals tile each TB"
    ~count:25 Test_property.arb_case (fun c ->
      match Test_property.compile_case c with
      | None -> QCheck.assume_fail ()
      | Some (_, _, kernel, groups) ->
        let program = Trace.extract_program ~groups kernel in
        let cfg =
          { Timing.hw; residents = 3; active_sms = 8; warps_per_tb = 4;
            miss_rate = 0.5; smem_penalty = 1.0; issue_overhead = 4.0;
            barrier_groups = [] }
        in
        let rc = Timing.recording () in
        ignore (Timing.simulate_program ~recording:rc cfg program);
        let reached = Array.make cfg.Timing.residents 0.0 in
        let ok =
          Timing.fold
            (fun ok -> function
              | Timing.Consume { start; ready; finish; _ } ->
                ok && finish >= ready && finish >= start
              | Timing.Interval { tb; start; stop; _ } ->
                let contiguous = start = reached.(tb) in
                reached.(tb) <- stop;
                ok && contiguous
              | _ -> ok)
            true rc
        in
        ok && reached = Timing.finish_times rc)

(* The packed form is lossless: decoding every index of [pack events]
   returns the original boxed event — including the new sync bit on
   commits and waits ([flag_sync_group]), which distinguishes
   scope-synchronized pipeline protocols from scoreboard-only register
   pipelines in the flags column. *)
let prop_pack_decode_roundtrip =
  QCheck.Test.make ~name:"decode (pack events) == events (incl. sync flag)"
    ~count:200 arb_sched (fun s ->
      let p = Trace.pack s.events in
      Trace.decode p = s.events
      && (let ok = ref true in
          Array.iteri
            (fun i ev ->
              let synced =
                Bigarray.Array1.get p.Trace.flags i
                land Trace.flag_sync_group <> 0
              in
              match ev with
              (* acquire/release are scope-protocol by definition *)
              | Trace.Acquire _ | Trace.Release _ ->
                if not synced then ok := false
              | Trace.Commit { sync; _ } | Trace.Wait_oldest { sync; _ } ->
                if synced <> sync then ok := false
              | _ -> ())
            s.events;
          !ok))

(* The extractor and [pack] push rows through one builder, so on a real
   compiled kernel, packing the decoded events must reproduce every
   column the extractor emitted, batch ordinals and ring depths included.
   [group_stages] and [group_bytes] are left out: the extractor takes
   them exactly from the pipeline analysis, while [pack] can only derive
   them from the events (acquire arguments, per-batch async-load bytes). *)
let prop_pack_matches_extractor =
  QCheck.Test.make ~name:"pack (decode p) == extract_program columns"
    ~count:25 Test_property.arb_case (fun c ->
      match Test_property.compile_case c with
      | None -> QCheck.assume_fail ()
      | Some (_, _, kernel, groups) ->
        let p = Trace.extract_program ~groups kernel in
        let q = Trace.pack (Trace.decode p) in
        p.Trace.n = q.Trace.n
        && p.Trace.opcode = q.Trace.opcode
        && p.Trace.arg = q.Trace.arg
        && p.Trace.group = q.Trace.group
        && p.Trace.flags = q.Trace.flags
        && p.Trace.batch = q.Trace.batch
        && p.Trace.groups = q.Trace.groups
        && p.Trace.group_depth = q.Trace.group_depth
        && p.Trace.group_sync = q.Trace.group_sync)

let request_of_sched s total_tbs =
  { Timing.hw; program = Trace.pack s.events; total_tbs; warps_per_tb = 4;
    smem_per_tb = 49152; regs_per_thread = 64; grid_m = 8; grid_n = 8;
    grid_z = 4; tb_m = 64; tb_n = 64; tb_k = 32; elem_bytes = 2;
    swizzle = true; jitter_key = 17;
    barrier_groups = s.cfg.Timing.barrier_groups }

(* Whole-kernel runs must be bit-identical between -j 1 (inline) and
   -j 4 (full and tail wave on separate domains). *)
let test_parallel_waves_identical () =
  let rand = Random.State.make [| 0xA1C0; 42 |] in
  let scheds = QCheck.Gen.generate ~n:100 ~rand gen_sched in
  Alcop_par.Pool.with_pool ~jobs:4 (fun pool ->
      List.iteri
        (fun i s ->
          let total_tbs =
            match i mod 4 with 0 -> 1 | 1 -> 200 | 2 -> 500 | _ -> 5000
          in
          let req = request_of_sched s total_tbs in
          let seq = Timing.run req in
          let par = Timing.run ~pool req in
          if seq <> par then
            Alcotest.failf "-j1 / -j4 timing mismatch on schedule %d" i)
        scheds)

let test_empty_trace () =
  let cfg =
    { Timing.hw; residents = 3; active_sms = 8; warps_per_tb = 4;
      miss_rate = 1.0; smem_penalty = 1.0; issue_overhead = 4.0;
      barrier_groups = [] }
  in
  Alcotest.(check bool) "empty trace identical" true
    (Legacy_sim.simulate_wave cfg [||]
     = Timing.simulate_program cfg (Trace.pack [||]))

(* Allocation budget of one cold compile+simulate (ROADMAP item 5): the
   packed datapath landed at roughly 1.85e4 minor words; the ceiling is
   ~2x that so creep is caught by `dune runtest` without flaking on
   compiler-version noise. *)
(* Per-pass minor-word ceilings, roughly 2x the measured value of each pass
   on the fig10 workload below, so a regression names the guilty pass
   instead of drowning in a whole-compile number. Measured (2026-08):
   lower 1.6e3, pipeline 5.4e3, trace-extract 1.1e3, simulate 1.6e2,
   full compile+simulate 9.4e3 — down from the 1.85e4 the old single
   3.7e4 budget guarded. Fingerprint measured 825 (2026-10), with the hw
   config digested once per config value; a key that re-renders the hw
   document allocates ~2.3e3 and fails its ceiling. *)
let alloc_budget_full = 13_000.0
let alloc_budget_lower = 3_500.0
let alloc_budget_pipeline = 9_000.0
let alloc_budget_trace_extract = 2_500.0
let alloc_budget_simulate = 1_000.0
let alloc_budget_fingerprint = 1_700.0

(* With observability on, [Timing.run] records its representative wave
   for the [timing.stall.*] gauges. Writing the recording allocates
   nothing per event and the gauges read its columns in place, so a
   per-event allocation shows up here: measured 2.3e3 minor words on the
   budget schedule, and the ceiling is ~2x that. *)
let alloc_budget_simulate_traced = 4_500.0

let budget_spec () =
  let spec = Alcop_workloads.Suites.mm_rn50_fc in
  let tiling =
    Alcop_sched.Tiling.make ~tb_m:64 ~tb_n:64 ~tb_k:32 ~warp_m:32 ~warp_n:32
      ~warp_k:16 ()
  in
  let params =
    Alcop_perfmodel.Params.make ~tiling ~smem_stages:3 ~reg_stages:2 ()
  in
  (spec, tiling, params)

(* Warm twice (one-time lazies, domain-local scratch growth), then measure
   the third run. *)
let measured_minor_words f =
  ignore (f ());
  ignore (f ());
  let w0 = Gc.minor_words () in
  ignore (f ());
  Gc.minor_words () -. w0

let check_budget name budget f =
  let dw = measured_minor_words f in
  Alcotest.(check bool)
    (Printf.sprintf "%s allocates %.0f minor words (budget %.0f)" name dw
       budget)
    true (dw < budget)

let test_allocation_budget () =
  let spec, _tiling, params = budget_spec () in
  let session = Alcop.Session.create ~hw ~cache:false () in
  check_budget "cold compile+simulate" alloc_budget_full (fun () ->
      Alcop.Session.compile session params spec)

let test_per_pass_budgets () =
  let spec, tiling, params = budget_spec () in
  let sched =
    Alcop_sched.Schedule.default_gemm ~smem_stages:3 ~reg_stages:2 spec tiling
  in
  check_budget "lower" alloc_budget_lower (fun () ->
      Alcop_sched.Lower.run sched);
  let lowered = Alcop_sched.Lower.run sched in
  let run_pipeline () =
    match
      Alcop_pipeline.Pass.run ~hw ~hints:lowered.Alcop_sched.Lower.hints
        lowered.Alcop_sched.Lower.kernel
    with
    | Ok r -> r
    | Error _ -> Alcotest.fail "pipeline pass rejected the budget kernel"
  in
  check_budget "pipeline" alloc_budget_pipeline run_pipeline;
  let piped = run_pipeline () in
  let groups = Alcop_pipeline.Pass.groups piped in
  let kernel = piped.Alcop_pipeline.Pass.kernel in
  check_budget "trace-extract" alloc_budget_trace_extract (fun () ->
      Alcop_gpusim.Trace.extract_program ~groups kernel);
  let session = Alcop.Session.create ~hw ~cache:false () in
  (match Alcop.Session.compile session params spec with
   | Ok c ->
     check_budget "simulate" alloc_budget_simulate (fun () ->
         Alcop_gpusim.Timing.run c.Alcop.Compiler.timing_request)
   | Error _ -> Alcotest.fail "budget compile failed");
  check_budget "fingerprint" alloc_budget_fingerprint (fun () ->
      Alcop.Fingerprint.compile_key ~hw ~extra_regs_per_thread:0 params spec)

let test_traced_simulate_budget () =
  let spec, _tiling, params = budget_spec () in
  let session = Alcop.Session.create ~hw ~cache:false () in
  match Alcop.Session.compile session params spec with
  | Error _ -> Alcotest.fail "budget compile failed"
  | Ok c ->
    Alcop_obs.Obs.reset ();
    Alcop_obs.Obs.record ();
    Fun.protect ~finally:Alcop_obs.Obs.reset (fun () ->
        check_budget "simulate, observability on"
          alloc_budget_simulate_traced (fun () ->
            Alcop_gpusim.Timing.run c.Alcop.Compiler.timing_request))

let suite =
  [ ( "packed",
      [ QCheck_alcotest.to_alcotest prop_pack_decode_roundtrip;
        QCheck_alcotest.to_alcotest prop_results_equal;
        QCheck_alcotest.to_alcotest prop_probe_streams_equal;
        QCheck_alcotest.to_alcotest prop_compiled_equal;
        Alcotest.test_case "-j1 == -j4 over 100 random schedules" `Quick
          test_parallel_waves_identical;
        Alcotest.test_case "empty trace" `Quick test_empty_trace;
        Alcotest.test_case "allocation budget per cold compile" `Quick
          test_allocation_budget;
        Alcotest.test_case "allocation budgets per pass" `Quick
          test_per_pass_budgets;
        Alcotest.test_case "allocation budget, traced simulate" `Quick
          test_traced_simulate_budget;
        QCheck_alcotest.to_alcotest prop_recording_contract;
        QCheck_alcotest.to_alcotest prop_pack_matches_extractor ] ) ]
