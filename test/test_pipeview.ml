(* The pipeline observatory (Pipeview): the five-term cycle partition
   telescopes to the critical threadblock's wave cycles on real compiled
   schedules, prefetch-slack signs come out right on hand-built
   exposed-latency and fully-hidden schedules, schedule comparison is an
   exact integer telescoping, and the feature record is bit-identical
   between -j 1 and -j 4 compiles. *)

open Alcop_gpusim

let hw = Alcop_hw.Hw_config.ampere_a100
let gshared = "pipe.shared.ko"

let occupancy =
  Result.get_ok
    (Occupancy.compute hw ~smem_per_tb:49152 ~warps_per_tb:4
       ~regs_per_thread:64)

let request_of_events ?(barrier_groups = [ gshared ]) events =
  { Timing.hw; program = Boxed_trace.pack events; total_tbs = 32; warps_per_tb = 4;
    occupancy; grid_m = 8; grid_n = 4;
    grid_z = 1; tb_m = 64; tb_n = 64; tb_k = 32; elem_bytes = 2;
    swizzle = true; jitter_key = 17; barrier_groups }

(* A [stages]-deep scope-synchronized pipeline: prologue then steady
   state, with load size and compute cost as the slack dials. *)
let pipeline_events ~stages ~iters ~bytes ~flops =
  let acq = Boxed_trace.Acquire { group = gshared; stages } in
  let aload =
    Boxed_trace.Load
      { level = Trace.From_global; bytes; async = true; group = Some gshared }
  in
  let commit = Boxed_trace.Commit { group = gshared; sync = true } in
  let wait = Boxed_trace.Wait_oldest { group = gshared; sync = true } in
  let prologue =
    List.concat (List.init (stages - 1) (fun _ -> [ acq; aload; commit ]))
  in
  let iter _ =
    [ acq; aload; commit; wait; Boxed_trace.Compute { flops };
      Boxed_trace.Release gshared ]
  in
  Array.of_list
    (prologue @ List.concat (List.init iters iter) @ [ Boxed_trace.Barrier ])

let view_of_events events =
  Pipeview.of_profile (Profile.run (request_of_events events))

let check_telescopes v =
  let sum = List.fold_left (fun acc (_, c) -> acc +. c) 0.0 v.Pipeview.pv_terms in
  let tol = 1e-6 *. Float.max 1.0 v.Pipeview.pv_wave_cycles in
  if Float.abs (sum -. v.Pipeview.pv_wave_cycles) > tol then
    Alcotest.failf "partition does not telescope: sum %.6f vs wave %.6f" sum
      v.Pipeview.pv_wave_cycles

(* Telescoping on real compiler output, across pipelined and unpipelined
   schedules: the five terms partition the critical TB's cycles. *)
let compiled_view ~smem_stages ~reg_stages () =
  let spec = Alcop_workloads.Suites.mm_rn50_fc in
  let tiling =
    Alcop_sched.Tiling.make ~tb_m:64 ~tb_n:64 ~tb_k:32 ~warp_m:32 ~warp_n:32
      ~warp_k:16 ()
  in
  let params =
    Alcop_perfmodel.Params.make ~tiling ~smem_stages ~reg_stages ()
  in
  match Alcop.Compiler.profile ~hw params spec with
  | Ok p -> Pipeview.of_profile p
  | Error e -> Alcotest.fail (Alcop.Compiler.error_to_string e)

let test_partition_telescopes () =
  List.iter
    (fun (s, r) -> check_telescopes (compiled_view ~smem_stages:s ~reg_stages:r ()))
    [ (1, 1); (2, 1); (3, 2); (4, 2) ];
  (* and on hand-built pipelines at both extremes *)
  check_telescopes
    (view_of_events
       (pipeline_events ~stages:2 ~iters:6 ~bytes:131072 ~flops:2048));
  check_telescopes
    (view_of_events (pipeline_events ~stages:3 ~iters:6 ~bytes:128 ~flops:409600))

(* Huge loads, negligible compute: the pipeline cannot hide the copy
   latency, so waits start before their batch lands — negative slack,
   nonzero exposed cycles, and a nonzero "exposed" partition term. *)
let test_slack_negative_when_exposed () =
  let v =
    view_of_events
      (pipeline_events ~stages:2 ~iters:6 ~bytes:131072 ~flops:2048)
  in
  let g =
    match v.Pipeview.pv_groups with
    | [ g ] -> g
    | gs -> Alcotest.failf "expected one group, got %d" (List.length gs)
  in
  Alcotest.(check bool) "min slack negative" true
    (g.Pipeview.gv_min_slack < 0.0);
  Alcotest.(check bool) "exposed cycles positive" true
    (g.Pipeview.gv_exposed_cycles > 0.0);
  Alcotest.(check bool) "exposed term positive" true
    (List.assoc "exposed" v.Pipeview.pv_terms > 0.0)

(* Tiny loads, huge compute: every steady-state batch lands long before
   its consumer waits — positive slack, and essentially no exposure. *)
let test_slack_positive_when_hidden () =
  let v =
    view_of_events
      (pipeline_events ~stages:3 ~iters:6 ~bytes:128 ~flops:409600)
  in
  let g =
    match v.Pipeview.pv_groups with
    | [ g ] -> g
    | gs -> Alcotest.failf "expected one group, got %d" (List.length gs)
  in
  Alcotest.(check bool) "mean slack positive" true
    (g.Pipeview.gv_mean_slack > 0.0);
  Alcotest.(check bool) "some wait has positive slack" true
    (List.exists (fun s -> s.Pipeview.sl_slack > 0.0) v.Pipeview.pv_slacks);
  (* the exposed share is dwarfed by compute *)
  Alcotest.(check bool) "exposure below compute" true
    (List.assoc "exposed" v.Pipeview.pv_terms
     < List.assoc "compute" v.Pipeview.pv_terms)

(* Schedule comparison is an exact integer telescoping by construction;
   assert the contract anyway, against a real pipelining delta. *)
let test_compare_exact () =
  let a = compiled_view ~smem_stages:1 ~reg_stages:1 () in
  let b = compiled_view ~smem_stages:3 ~reg_stages:2 () in
  let cmp = Pipeview.compare_views a b in
  let sum_d =
    List.fold_left (fun acc t -> acc + t.Pipeview.dt_delta) 0 cmp.Pipeview.cmp_terms
  in
  Alcotest.(check int) "term deltas sum to total delta"
    cmp.Pipeview.cmp_total_delta sum_d;
  Alcotest.(check int) "totals subtract" cmp.Pipeview.cmp_total_delta
    (cmp.Pipeview.cmp_total_b - cmp.Pipeview.cmp_total_a);
  Alcotest.(check int) "side A totals its terms" cmp.Pipeview.cmp_total_a
    (List.fold_left (fun acc t -> acc + t.Pipeview.dt_a) 0 cmp.Pipeview.cmp_terms)

let suite =
  [ ( "pipeview",
      [ Alcotest.test_case "five-term partition telescopes" `Quick
          test_partition_telescopes;
        Alcotest.test_case "negative slack on exposed latency" `Quick
          test_slack_negative_when_exposed;
        Alcotest.test_case "positive slack when hidden" `Quick
          test_slack_positive_when_hidden;
        Alcotest.test_case "compare telescopes exactly (integer cycles)"
          `Quick test_compare_exact ] ) ]
