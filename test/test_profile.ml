(* Simulated-time profiler tests: the telescoping stall-attribution
   invariant (per-threadblock class cycles sum exactly to the
   threadblock's wave cycles), the Fig. 1b direction (more pipeline
   stages hide more wait stall), the per-stage bucket bounds, and the
   validity of the exported simulated-time Chrome trace under the
   in-repo JSON parser. *)

open Alcop_sched
open Alcop_gpusim

let hw = Alcop_hw.Hw_config.default

let profile_of ?(smem_stages = 3) ?(reg_stages = 2) () =
  let spec =
    match Alcop_workloads.Suites.find "MM_RN50_FC" with
    | Some s -> s
    | None -> Alcotest.fail "MM_RN50_FC missing from the suite"
  in
  let tiling =
    Tiling.make ~tb_m:64 ~tb_n:64 ~tb_k:32 ~warp_m:32 ~warp_n:32 ~warp_k:16 ()
  in
  let params =
    Alcop_perfmodel.Params.make ~tiling ~smem_stages ~reg_stages ()
  in
  match Alcop.Compiler.compile ~hw params spec with
  | Error e -> Alcotest.failf "compile failed: %s" (Alcop.Compiler.error_to_string e)
  | Ok c ->
    Profile.run ~op:"MM_RN50_FC" c.Alcop.Compiler.timing_request

(* Every simulated cycle of every threadblock is attributed to exactly one
   stall class: the recorded intervals are contiguous from 0 to the
   threadblock's finish time, so the per-class sums telescope to
   [tb_cycles] (up to float addition noise), in every wave. *)
let test_stall_cycles_sum_to_wave_cycles () =
  let p = profile_of () in
  Alcotest.(check bool) "at least one wave" true (p.Profile.p_waves <> []);
  List.iter
    (fun (w : Timing.recorded_wave) ->
      let cycles = w.Timing.rw_result.Timing.cycles in
      for tb = 0 to w.Timing.rw_config.Timing.residents - 1 do
        (* contiguity: each interval starts where the previous stopped *)
        let _ =
          Timing.fold
            (fun prev -> function
              | Timing.Interval { tb = i; start; stop; _ } when i = tb ->
                Alcotest.(check (float 1e-6)) "segments contiguous" prev start;
                stop
              | _ -> prev)
            0.0 w.Timing.rw_recording
        in
        let tb_cycles = Profile.tb_cycles w tb in
        let class_sum =
          List.fold_left
            (fun acc cls -> acc +. Profile.class_cycles w tb cls)
            0.0 Timing.all_stall_classes
        in
        let tol = 1e-9 *. Float.max 1.0 tb_cycles in
        Alcotest.(check bool)
          (Printf.sprintf "wave %s tb %d: classes sum to tb_cycles"
             w.Timing.rw_label tb)
          true
          (Float.abs (class_sum -. tb_cycles) <= tol);
        (* the slowest threadblock defines the wave *)
        Alcotest.(check bool) "tb within wave" true (tb_cycles <= cycles +. tol)
      done;
      Alcotest.(check (float 1e-6)) "critical tb defines wave cycles" cycles
        (Profile.tb_cycles w (Profile.critical w)))
    p.Profile.p_waves

(* Per-stage buckets: stage slots of wait stalls lie in [0, stages) of
   their group, and sum to at most the group's total wait stall. *)
let test_per_stage_buckets_bounded () =
  let p = profile_of () in
  match Profile.representative p with
  | None -> Alcotest.fail "no wave"
  | Some w ->
    let per_stage = Profile.stage_stalls p w (Profile.critical w) in
    Alcotest.(check bool) "has per-stage buckets" true (per_stage <> []);
    List.iter
      (fun ((gid, stage), cyc) ->
        let stages =
          if Array.mem gid p.Profile.p_program.Trace.groups then
            Profile.stages_of p gid
          else Alcotest.failf "unknown group %s" gid
        in
        Alcotest.(check bool)
          (Printf.sprintf "%s stage %d within [0,%d)" gid stage stages)
          true
          (stage >= 0 && stage < stages);
        Alcotest.(check bool) "bucket non-negative" true (cyc >= 0.0))
      per_stage

(* The Fig. 1b story, now measurable: a 4-stage pipeline hides strictly
   more load latency than the unpipelined (1-stage) schedule, i.e. its
   Sync_wait + Dram_bw stall total is strictly smaller on MM_RN50_FC. *)
let test_more_stages_less_stall () =
  let stall_of p =
    match Profile.representative p with
    | None -> Alcotest.fail "no wave"
    | Some w ->
      let tb = Profile.critical w in
      Profile.class_cycles w tb Timing.Sync_wait
      +. Profile.class_cycles w tb Timing.Dram_bw
  in
  let unpipelined = stall_of (profile_of ~smem_stages:1 ~reg_stages:1 ()) in
  let pipelined = stall_of (profile_of ~smem_stages:4 ~reg_stages:2 ()) in
  Alcotest.(check bool)
    (Printf.sprintf "4-stage stall (%.0f) < 1-stage stall (%.0f)" pipelined
       unpipelined)
    true
    (pipelined < unpipelined)

(* The report's stall table covers 100% of the critical threadblock. *)
let test_report_sums_to_100_percent () =
  let p = profile_of () in
  let report = Profile.report p in
  let has_total =
    let needle = "total      100.0%" in
    let n = String.length needle and m = String.length report in
    let rec scan i =
      if i + n > m then false
      else if String.sub report i n = needle then true
      else scan (i + 1)
    in
    scan 0
  in
  Alcotest.(check bool) "report prints a 100.0% total row" true has_total

(* The exported Chrome trace parses under the in-repo JSON parser, has no
   negative timestamps, routes onto per-threadblock tracks, and labels at
   least one per-stage copy track. *)
let test_chrome_trace_valid () =
  let p = profile_of () in
  let buf = Buffer.create 4096 in
  let sink =
    Alcop_obs.Sinks.chrome_trace ~ts_to_us:Fun.id (Buffer.add_string buf)
  in
  Alcop_obs.Sinks.emit_all sink (Profile.events p);
  let open Alcop_obs in
  match Json.of_string (String.trim (Buffer.contents buf)) with
  | Error e -> Alcotest.fail e
  | Ok doc ->
    (match Json.member "traceEvents" doc with
     | Some (Json.List events) ->
       Alcotest.(check bool) "has events" true (List.length events > 10);
       let stage_tracks = ref 0 in
       List.iter
         (fun e ->
           (match Option.bind (Json.member "ts" e) Json.number with
            | Some t ->
              Alcotest.(check bool) "ts non-negative" true (t >= 0.0)
            | None ->
              (* metadata events carry no ts *)
              Alcotest.(check bool) "only metadata lacks ts" true
                (Json.member "ph" e = Some (Json.Str "M")));
           if Json.member "name" e = Some (Json.Str "thread_name") then
             match Json.member "args" e with
             | Some args ->
               (match Json.member "name" args with
                | Some (Json.Str label) ->
                  (* per-stage copy tracks are named "tb<i> <group> s<stage>" *)
                  if String.length label > 2
                     && String.sub label (String.length label - 2) 2 = "s0"
                  then incr stage_tracks
                | _ -> ())
             | None -> ())
         events;
       Alcotest.(check bool) "has per-stage copy tracks" true
         (!stage_tracks > 0);
       let reserved_leaks =
         List.filter
           (fun e ->
             match Json.member "args" e with
             | Some (Json.Obj fields) ->
               List.exists
                 (fun (k, _) -> String.length k > 0 && k.[0] = '#')
                 fields
             | _ -> false)
           events
       in
       Alcotest.(check int) "reserved fields stripped from args" 0
         (List.length reserved_leaks)
     | _ -> Alcotest.fail "no traceEvents array")

(* [timing.stall.*] gauges ride along with a plain [Timing.run] when
   observability is on, and cover the critical threadblock exactly. *)
let test_run_publishes_stall_gauges () =
  Alcop_obs.Obs.reset ();
  Alcop_obs.Obs.record ();
  Fun.protect ~finally:Alcop_obs.Obs.reset @@ fun () ->
  let p = profile_of () in
  ignore p;
  let gauges = Alcop_obs.Obs.gauges () in
  let stall_sum =
    List.fold_left
      (fun acc (name, v) ->
        if String.length name > 13 && String.sub name 0 13 = "timing.stall." then
          acc +. v
        else acc)
      0.0 gauges
  in
  Alcotest.(check bool)
    (Printf.sprintf "stall gauge fractions sum to 1 (got %f)" stall_sum)
    true
    (Float.abs (stall_sum -. 1.0) < 1e-6)

let suite =
  [ ( "profile",
      [ Alcotest.test_case "stall classes sum to wave cycles" `Quick
          test_stall_cycles_sum_to_wave_cycles;
        Alcotest.test_case "per-stage buckets bounded" `Quick
          test_per_stage_buckets_bounded;
        Alcotest.test_case "more stages, less stall (Fig. 1b)" `Quick
          test_more_stages_less_stall;
        Alcotest.test_case "report sums to 100%" `Quick
          test_report_sums_to_100_percent;
        Alcotest.test_case "chrome trace valid + routed" `Quick
          test_chrome_trace_valid;
        Alcotest.test_case "Timing.run publishes stall gauges" `Quick
          test_run_publishes_stall_gauges ] ) ]
