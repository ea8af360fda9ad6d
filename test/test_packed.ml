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

type sched = { events : Boxed_trace.event array; cfg : Timing.config }

let sched_to_string s =
  Format.asprintf "tbs=%d sms=%d warps=%d miss=%.1f pen=%.1f io=%.1f bar=[%s]@ %a"
    s.cfg.Timing.residents s.cfg.Timing.active_sms s.cfg.Timing.warps_per_tb
    s.cfg.Timing.miss_rate s.cfg.Timing.smem_penalty
    s.cfg.Timing.issue_overhead
    (String.concat "," s.cfg.Timing.barrier_groups)
    (Format.pp_print_list
       ~pp_sep:(fun f () -> Format.pp_print_string f "; ")
       Boxed_trace.pp_event)
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
        return (Boxed_trace.Load { level; bytes; async; group }) );
      ( 2,
        let* flops = oneofl [ 2048; 65536; 409600 ] in
        return (Boxed_trace.Compute { flops }) );
      (1, let* b = bytes in return (Boxed_trace.Store { bytes = b }));
      ( 2,
        let* g = some_group in
        let* sync = bool in
        return (Boxed_trace.Commit { group = g; sync }) );
      ( 2,
        let* g = some_group in
        let* sync = bool in
        return (Boxed_trace.Wait_oldest { group = g; sync }) );
      ( 1,
        let* g = some_group in
        let* stages = int_range 2 4 in
        return (Boxed_trace.Acquire { group = g; stages }) );
      (1, let* g = some_group in return (Boxed_trace.Release g));
      (1, return Boxed_trace.Barrier) ]

(* Structured schedules: the shape the pipelining pass actually emits —
   a [stages - 1]-deep prologue then a steady-state loop, optionally with
   a register-level (non-synchronized) inner pipeline. *)
let structured ~stages ~iters ~bytes ~flops ~reg =
  let acq = Boxed_trace.Acquire { group = gshared; stages } in
  let aload b =
    Boxed_trace.Load
      { level = Trace.From_global; bytes = b; async = true;
        group = Some gshared }
  in
  let sload b =
    Boxed_trace.Load
      { level = Trace.From_shared; bytes = b; async = reg;
        group = (if reg then Some greg else None) }
  in
  let commit_sh = Boxed_trace.Commit { group = gshared; sync = true } in
  let wait_sh = Boxed_trace.Wait_oldest { group = gshared; sync = true } in
  let prologue =
    List.concat
      (List.init (stages - 1) (fun _ -> [ acq; aload bytes; commit_sh ]))
  in
  let iter _ =
    [ acq; aload bytes; commit_sh; wait_sh ]
    @ (if reg then
         [ sload (bytes / 4);
           Boxed_trace.Commit { group = greg; sync = false };
           Boxed_trace.Wait_oldest { group = greg; sync = false } ]
       else [ sload (bytes / 4) ])
    @ [ Boxed_trace.Compute { flops }; Boxed_trace.Release gshared ]
  in
  prologue
  @ List.concat (List.init iters iter)
  @ [ Boxed_trace.Barrier; Boxed_trace.Store { bytes } ]

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
  (* Fig. 10 waves reach 32 residents; three or more tied at t = 0 (zero
     issue overhead) exercise the engine's run-ahead tie rule. *)
  let* residents = int_range 1 32 in
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

(* The part of a wave result the frozen engine computes: latency and busy
   counters. *)
let busy (r : Timing.wave_result) =
  { Legacy_sim.cycles = r.Timing.cycles; compute_busy = r.Timing.compute_busy;
    dram_busy = r.Timing.dram_busy; llc_busy = r.Timing.llc_busy;
    smem_busy = r.Timing.smem_busy }

let collecting () =
  let advs : Legacy_sim.advance list ref = ref [] in
  let fls : Legacy_sim.flight list ref = ref [] in
  ( { Legacy_sim.on_advance = (fun a -> advs := a :: !advs);
      on_flight = (fun f -> fls := f :: !fls) },
    advs, fls )

let stall_fields (r : Timing.wave_result) =
  Timing.
    [ (Compute, r.stall_compute); (Dram_bw, r.stall_dram_bw);
      (Llc_bw, r.stall_llc_bw); (Smem_port, r.stall_smem_port);
      (Sync_wait, r.stall_sync_wait); (Issue, r.stall_issue) ]

(* The engine attributes every wave itself, recorded or not. Its stall
   fractions must equal the recording's account: per class, the critical
   threadblock's interval cycles ([Timing.fold ~tb:(critical_tb rc)])
   over the wave's cycles, to within 1e-12 relative; and the classes must
   sum to that threadblock's finish time, which is the wave's cycles. *)
let stalls_match_recording (r : Timing.wave_result) rc =
  let cycles = r.Timing.cycles in
  let crit = Timing.critical_tb rc in
  let totals = Array.make (List.length Timing.all_stall_classes) 0.0 in
  Timing.fold ~tb:crit
    (fun () -> function
      | Timing.Interval { cls; start; stop; _ } ->
        let k = Timing.stall_class_index cls in
        totals.(k) <- totals.(k) +. (stop -. start)
      | _ -> ())
    () rc;
  let close a b =
    Float.abs (a -. b) <= 1e-12 *. Float.max (Float.abs a) (Float.abs b)
  in
  let expected cls =
    if cycles > 0.0 then totals.(Timing.stall_class_index cls) /. cycles
    else 0.0
  in
  let classes_sum =
    List.fold_left (fun acc (_, f) -> acc +. (f *. cycles)) 0.0 (stall_fields r)
  in
  List.for_all (fun (cls, f) -> close f (expected cls)) (stall_fields r)
  && totals.(Timing.stall_class_index Timing.Launch) = 0.0
  && (cycles = 0.0
      || (cycles = (Timing.finish_times rc).(crit)
          && Float.abs (classes_sum -. cycles) <= 1e-9 *. cycles))

(* A recorded packed replay, projected onto the legacy probe streams: its
   [Interval] and [Flight] events, newest first like [collecting], with
   whether its stall fractions match the recording. *)
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
  (busy r, stalls_match_recording r rc, advs, fls)

(* Latency + busy equivalence, no probe: the tuner-facing fast path. *)
let prop_results_equal =
  QCheck.Test.make ~name:"packed replay == legacy (latencies, busy)"
    ~count:150 arb_sched (fun s ->
      let legacy = Legacy_sim.simulate_wave s.cfg s.events in
      let packed = Timing.simulate_program s.cfg (Boxed_trace.pack s.events) in
      legacy = busy packed)

(* Probe equivalence: the complete advance and flight streams — classes,
   groups, batch ordinals, interval endpoints, order — must be
   bit-identical, which subsumes every per-class stall breakdown. *)
let prop_probe_streams_equal =
  QCheck.Test.make ~name:"packed replay == legacy (probe streams)"
    ~count:120 arb_sched (fun s ->
      let lp, ladv, lfl = collecting () in
      let lr = Legacy_sim.simulate_wave ~probe:lp s.cfg s.events in
      let pr, stalls_ok, padv, pfl =
        recorded_streams s.cfg (Boxed_trace.pack s.events)
      in
      lr = pr && stalls_ok && !ladv = padv && !lfl = pfl)

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
        let events = Boxed_trace.decode program in
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
        let pr, stalls_ok, padv, pfl = recorded_streams cfg program in
        lr = pr && stalls_ok && !ladv = padv && !lfl = pfl)

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

(* [stalls_match_recording] on every recorded wave of whole launches,
   compiled from the small property cases (tail-only launches, split-K)
   and from random variant-space points of the Fig. 10 operators (full
   waves as well as tails). *)
let fig10_spaces =
  lazy
    (Array.of_list
       (List.map
          (fun spec -> (spec, Alcop.Variants.space Alcop.Variants.alcop spec))
          Alcop_workloads.Suites.fig10))

let arb_launch =
  let open QCheck.Gen in
  let small =
    map
      (fun (c : Test_property.case) ->
        ( Test_property.spec_of c,
          Alcop_perfmodel.Params.make ~tiling:c.Test_property.tiling
            ~smem_stages:c.Test_property.smem_stages
            ~reg_stages:c.Test_property.reg_stages () ))
      Test_property.gen_case
  in
  let fig10 =
    map2
      (fun op pt ->
        let spaces = Lazy.force fig10_spaces in
        let spec, space = spaces.(op mod Array.length spaces) in
        (spec, space.(pt mod Array.length space)))
      nat nat
  in
  QCheck.make
    ~print:(fun (spec, params) ->
      spec.Alcop_sched.Op_spec.name ^ " "
      ^ Alcop_perfmodel.Params.to_string params)
    (oneof [ small; fig10 ])

let prop_engine_stalls_match_recording =
  QCheck.Test.make ~name:"engine stall fractions == recording fold"
    ~count:40 arb_launch (fun (spec, params) ->
      match Alcop.Compiler.compile ~hw params spec with
      | Error _ -> QCheck.assume_fail ()
      | Ok c ->
        let req = c.Alcop.Compiler.timing_request in
        let timing, waves = Timing.run_recorded req in
        let wave_ok (w : Timing.recorded_wave) =
          w.Timing.rw_result.Timing.cycles > 0.0
          && stalls_match_recording w.Timing.rw_result w.Timing.rw_recording
        in
        (* recording changes nothing the run reports *)
        timing = Timing.run req && waves <> [] && List.for_all wave_ok waves)

(* The packed form is lossless: decoding every index of [pack events]
   returns the original boxed event — including the new sync bit on
   commits and waits ([flag_sync_group]), which distinguishes
   scope-synchronized pipeline protocols from scoreboard-only register
   pipelines in the flags column. *)
let prop_pack_decode_roundtrip =
  QCheck.Test.make ~name:"decode (pack events) == events (incl. sync flag)"
    ~count:200 arb_sched (fun s ->
      let p = Boxed_trace.pack s.events in
      Boxed_trace.decode p = s.events
      && (let ok = ref true in
          Array.iteri
            (fun i ev ->
              let synced =
                Bigarray.Array1.get p.Trace.flags i
                land Trace.flag_sync_group <> 0
              in
              match ev with
              (* acquire/release are scope-protocol by definition *)
              | Boxed_trace.Acquire _ | Boxed_trace.Release _ ->
                if not synced then ok := false
              | Boxed_trace.Commit { sync; _ } | Boxed_trace.Wait_oldest { sync; _ } ->
                if synced <> sync then ok := false
              | _ -> ())
            s.events;
          !ok))

(* On a real compiled kernel, packing the decoded events must reproduce
   every column the extractor emitted, batch ordinals and ring depths
   included. [Boxed_trace.pack] computes those with its own recurrence,
   sharing no code with the extractor's builder, so the two check each
   other.
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
        let q = Boxed_trace.pack (Boxed_trace.decode p) in
        p.Trace.n = q.Trace.n
        && p.Trace.opcode = q.Trace.opcode
        && p.Trace.arg = q.Trace.arg
        && p.Trace.group = q.Trace.group
        && p.Trace.flags = q.Trace.flags
        && p.Trace.batch = q.Trace.batch
        && p.Trace.groups = q.Trace.groups
        && p.Trace.group_depth = q.Trace.group_depth
        && p.Trace.group_sync = q.Trace.group_sync)

let test_empty_trace () =
  let cfg =
    { Timing.hw; residents = 3; active_sms = 8; warps_per_tb = 4;
      miss_rate = 1.0; smem_penalty = 1.0; issue_overhead = 4.0;
      barrier_groups = [] }
  in
  Alcotest.(check bool) "empty trace identical" true
    (Legacy_sim.simulate_wave cfg [||]
     = busy (Timing.simulate_program cfg (Boxed_trace.pack [||])))

(* Allocation budget of one cold compile+simulate (ROADMAP item 5): the
   packed datapath landed at roughly 1.85e4 minor words; the ceiling is
   ~2x that so creep is caught by `dune runtest` without flaking on
   compiler-version noise. *)
(* Per-pass minor-word ceilings, roughly 2x the measured value of each pass
   on the fig10 workload below, so a regression names the guilty pass
   instead of drowning in a whole-compile number. Measured (2026-08):
   lower 1.6e3, pipeline 5.4e3, trace-extract 1.1e3, simulate 1.6e2,
   full compile+simulate 9.4e3 — down from the 1.85e4 the old single
   3.7e4 budget guarded. With the allocation-free validator (which both
   [lower] and [pipeline] run) and [String.equal] name lookups: lower 963,
   pipeline 4,323, [Validate.check] of the pipelined kernel 57 (1,098
   before), full compile+simulate 7,384. With extraction resolving the
   body into domain-local scratch and [Analysis] naming groups without
   [Printf]: trace-extract 146 (1,108 before: a closure tree, three
   tables and filtered group lists per call), full compile+simulate
   6,342. The trace-extract ceiling is that change's 250-word target,
   ~1.7x; the full ceiling keeps the ~1.75x ratio it had over 7,384.
   With the pipelining pass building little beyond the kernel it returns
   (no closure per node, no key lists or sorts in the analysis, shared
   stage slices): pipeline 1,243 (4,243 before); its ceiling is
   ~1.5x that. With [Stmt.seq] copying no list it has nothing to
   flatten and the scope lookups of [Hw_config] building no partial
   application: lower 897, pipeline 1,198, full compile+simulate
   3,228. With every wave attributing its stalls (cause mixes and
   per-class totals kept in scratch on every run): simulate 135, up from
   132, and its ceiling is ~1.5x that. A polymorphic mix copy that boxed
   every float it moved made it 1,695. With the stage-free schedule and
   the lowered kernel reused across the stage counts of one tiling: full
   compile+simulate 3,217 cold, 1,866 for a stage sibling, whose ceiling
   is ~1.5x that. *)
let alloc_budget_full = 11_000.0
let alloc_budget_sibling = 2_800.0
let alloc_budget_lower = 2_000.0
let alloc_budget_pipeline = 1_800.0
let alloc_budget_validate = 120.0
let alloc_budget_trace_extract = 250.0
let alloc_budget_simulate = 200.0

(* Ceilings of the store-served evaluation path, ~1.5x the measured
   value. With the JSON emitter escaping through a fresh buffer per
   string, a parser that boxed every byte it peeked and a key tree built
   through [List.map], a key took 825 minor words, a memo hit 842 and a
   store-served [Session.timing] through a fresh session 3,406; each of
   those fails its ceiling. Now: key 307, memo hit 324, store-served
   936. *)
let alloc_budget_fingerprint = 450.0
let alloc_budget_session_hit = 500.0
let alloc_budget_store_served = 1_400.0

(* A session once opened with a 1,024-bucket table: 1,025 words put
   straight on the major heap by every fresh session, where no minor-word
   ceiling sees them. *)
let major_budget_store_served = 200.0

(* With observability on, [Timing.run] simulates exactly as without and
   then publishes its [timing.*] gauges from the kernel timing. When it
   recorded its representative wave for the stall gauges it measured
   2.2e3 minor words on the budget schedule; now 549, and the ceiling is
   ~1.5x that. *)
let alloc_budget_simulate_traced = 850.0

(* Arrays past the minor heap's size limit are allocated straight on the
   major heap, where no minor-word budget sees them. A traced
   [Timing.run] once built a fresh recording per run, whose columns grew
   by doubling into such arrays: 18,444 direct major words per run
   on the budget schedule. It records nothing now, so a warm traced run
   allocates none. *)
let major_budget_simulate_traced = 1_000.0

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
   the third run. [before] runs ahead of each run, outside the measured
   window. *)
let measured_minor_words ?(before = ignore) f =
  before ();
  ignore (f ());
  before ();
  ignore (f ());
  before ();
  let w0 = Gc.minor_words () in
  ignore (f ());
  Gc.minor_words () -. w0

(* Words allocated directly on the major heap by the third of three runs:
   major words minus those promoted from the minor heap. [Gc.counters]
   reads the domain's live counts; [Gc.quick_stat]'s major words only
   move at a collection. *)
let measured_direct_major_words f =
  ignore (f ());
  ignore (f ());
  let _, promoted0, major0 = Gc.counters () in
  ignore (f ());
  let _, promoted1, major1 = Gc.counters () in
  major1 -. major0 -. (promoted1 -. promoted0)

let check_budget ?before name budget f =
  let dw = measured_minor_words ?before f in
  Alcotest.(check bool)
    (Printf.sprintf "%s allocates %.0f minor words (budget %.0f)" name dw
       budget)
    true (dw < budget)

(* [Compiler.compile] reuses the stage-free schedule and the lowered
   kernel of the last tiling its domain compiled. A cold compile is one
   whose domain last compiled another tiling; a stage sibling's follows
   a point of the same tiling with other stage counts. *)
let test_allocation_budget () =
  let spec, _tiling, params = budget_spec () in
  let compile p () = Alcop.Compiler.compile ~hw p spec in
  let other =
    Alcop_perfmodel.Params.make
      ~tiling:
        (Alcop_sched.Tiling.make ~tb_m:32 ~tb_n:32 ~tb_k:32 ~warp_m:16
           ~warp_n:16 ~warp_k:16 ())
      ~smem_stages:1 ~reg_stages:1 ()
  in
  let sibling =
    { params with Alcop_perfmodel.Params.smem_stages = 2; reg_stages = 1 }
  in
  check_budget "cold compile+simulate" alloc_budget_full
    ~before:(fun () -> ignore (compile other ()))
    (compile params);
  check_budget "stage-sibling compile+simulate" alloc_budget_sibling
    ~before:(fun () -> ignore (compile sibling ()))
    (compile params)

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
  check_budget "validate (pipelined kernel)" alloc_budget_validate (fun () ->
      Alcop_ir.Validate.check kernel);
  check_budget "trace-extract" alloc_budget_trace_extract (fun () ->
      Alcop_gpusim.Trace.extract_program ~groups kernel);
  (match Alcop.Compiler.compile ~hw params spec with
   | Ok c ->
     check_budget "simulate" alloc_budget_simulate (fun () ->
         Alcop_gpusim.Timing.run c.Alcop.Compiler.timing_request)
   | Error _ -> Alcotest.fail "budget compile failed");
  check_budget "fingerprint" alloc_budget_fingerprint (fun () ->
      Alcop.Fingerprint.compile_key ~hw ~extra_regs_per_thread:0 params spec)

let test_evaluation_budgets () =
  let spec, _tiling, params = budget_spec () in
  let session = Alcop.Session.create ~hw () in
  check_budget "session memo hit" alloc_budget_session_hit (fun () ->
      Alcop.Session.evaluate session params spec);
  (* The first call fills the store; the measured third is served from
     it, through a session as fresh as a new process's. *)
  Temp_dir.with_dir "alcop-budget-store" @@ fun root ->
  let store = Alcop.Store.create ~root () in
  let served () =
    Alcop.Session.timing (Alcop.Session.create ~hw ~store ()) params spec
  in
  check_budget "store-served timing, fresh session" alloc_budget_store_served
    served;
  let dw = measured_direct_major_words served in
  Alcotest.(check bool)
    (Printf.sprintf
       "store-served timing, fresh session, allocates %.0f direct major \
        words (budget %.0f)"
       dw major_budget_store_served)
    true
    (dw < major_budget_store_served);
  Alcotest.(check int) "every call after the first was served by the store" 5
    (Alcop.Store.stats store).Alcop.Store.hits

let test_traced_simulate_budget () =
  let spec, _tiling, params = budget_spec () in
  match Alcop.Compiler.compile ~hw params spec with
  | Error _ -> Alcotest.fail "budget compile failed"
  | Ok c ->
    Alcop_obs.Obs.reset ();
    Alcop_obs.Obs.record ();
    Fun.protect ~finally:Alcop_obs.Obs.reset (fun () ->
        let run () = Alcop_gpusim.Timing.run c.Alcop.Compiler.timing_request in
        check_budget "simulate, observability on" alloc_budget_simulate_traced
          run;
        let dw = measured_direct_major_words run in
        Alcotest.(check bool)
          (Printf.sprintf
             "simulate, observability on, allocates %.0f direct major words \
              (budget %.0f)"
             dw major_budget_simulate_traced)
          true
          (dw < major_budget_simulate_traced))

let suite =
  [ ( "packed",
      [ QCheck_alcotest.to_alcotest prop_pack_decode_roundtrip;
        QCheck_alcotest.to_alcotest prop_results_equal;
        QCheck_alcotest.to_alcotest prop_probe_streams_equal;
        QCheck_alcotest.to_alcotest prop_compiled_equal;
        Alcotest.test_case "empty trace" `Quick test_empty_trace;
        Alcotest.test_case "allocation budget per cold compile" `Quick
          test_allocation_budget;
        Alcotest.test_case "allocation budgets per pass" `Quick
          test_per_pass_budgets;
        Alcotest.test_case "allocation budgets per store-served evaluation"
          `Quick test_evaluation_budgets;
        Alcotest.test_case "allocation budget, traced simulate" `Quick
          test_traced_simulate_budget;
        QCheck_alcotest.to_alcotest prop_recording_contract;
        QCheck_alcotest.to_alcotest prop_engine_stalls_match_recording;
        QCheck_alcotest.to_alcotest prop_pack_matches_extractor ] ) ]
