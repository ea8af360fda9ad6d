(* Unit tests of the discrete-event timing engine on hand-constructed
   traces: closed-form latencies for pure compute, bandwidth-bound loads,
   barrier semantics, pipelined overlap, multi-threadblock contention and
   the scoreboard lookahead. These pin the engine's semantics independently
   of the compiler above it. *)

open Alcop_gpusim

let hw = Alcop_hw.Hw_config.ampere_a100

let cfg ?(residents = 1) ?(active_sms = 108) ?(miss_rate = 1.0)
    ?(warps_per_tb = 4) ?(barrier_groups = []) () =
  { Timing.hw; residents; active_sms; warps_per_tb; miss_rate;
    smem_penalty = 1.0; issue_overhead = 0.0; barrier_groups }

let run ?residents ?active_sms ?miss_rate ?warps_per_tb ?barrier_groups events =
  Timing.simulate_program
    (cfg ?residents ?active_sms ?miss_rate ?warps_per_tb ?barrier_groups ())
    (Boxed_trace.pack (Array.of_list events))

let compute flops = Boxed_trace.Compute { flops }
let gload bytes = Boxed_trace.Load { level = Trace.From_global; bytes; async = false; group = None }
let aload bytes g =
  Boxed_trace.Load { level = Trace.From_global; bytes; async = true; group = Some g }

let check_cycles name expected actual =
  Alcotest.(check (float 1.0)) name expected actual

let test_pure_compute () =
  (* 4 warps: util = 1; 2048 flops/cycle. *)
  let r = run [ compute 204800; compute 204800 ] in
  check_cycles "two back-to-back computes" 200.0 r.Timing.cycles

let test_compute_underutilized () =
  (* 1 warp: util = 1/4 -> rate 512 flops/cycle. *)
  let r = run ~warps_per_tb:1 [ compute 51200 ] in
  check_cycles "quarter rate" 100.0 r.Timing.cycles

let test_sync_load_blocks_next_compute () =
  (* scoreboard lookahead: the FIRST compute does not wait for the load
     issued just before it; the SECOND does. *)
  let bytes = 110300 in
  (* service = bytes / (1103/108 per-SM share) ~ 10800 cyc; plus latency *)
  let r = run [ gload bytes; compute 2048; compute 2048 ] in
  let service = float_of_int bytes /. (1103.0 /. 108.0) in
  let expected = service +. hw.Alcop_hw.Hw_config.dram_latency +. 1.0 in
  Alcotest.(check bool)
    (Printf.sprintf "second compute waits the load (%.0f ~ %.0f)" r.Timing.cycles expected)
    true
    (Float.abs (r.Timing.cycles -. expected) < 5.0)

let test_barrier_waits_all_loads () =
  let bytes = 11030 in
  let r = run [ gload bytes; Boxed_trace.Barrier; compute 2048 ] in
  let service = float_of_int bytes /. (1103.0 /. 108.0) in
  let expected = service +. hw.Alcop_hw.Hw_config.dram_latency +. 1.0 in
  Alcotest.(check bool) "barrier exposes the load" true
    (Float.abs (r.Timing.cycles -. expected) < 5.0)

let test_async_pipeline_overlap () =
  (* Two-stage pipeline, load far smaller than compute: the steady state is
     compute-bound and loads vanish behind it. *)
  let g = "p" in
  let iter i =
    [ aload 128 g; Boxed_trace.Commit { group = g; sync = true }; Boxed_trace.Wait_oldest { group = g; sync = true }; compute 2048000 ]
    |> fun l -> if i = 0 then (aload 128 g :: Boxed_trace.Commit { group = g; sync = true } :: l) else l
  in
  let events = List.concat (List.init 4 iter) in
  let r = run events in
  (* 4 computes of 1000 cycles each dominate *)
  Alcotest.(check bool)
    (Printf.sprintf "compute-bound (%.0f in [4000, 4400])" r.Timing.cycles)
    true
    (r.Timing.cycles >= 4000.0 && r.Timing.cycles < 4400.0)

let test_wait_blocks_until_oldest () =
  let g = "p" in
  let bytes = 110300 in
  let service = float_of_int bytes /. (1103.0 /. 108.0) in
  let r =
    run [ aload bytes g; Boxed_trace.Commit { group = g; sync = true }; Boxed_trace.Wait_oldest { group = g; sync = true }; compute 2048 ]
  in
  let expected = service +. hw.Alcop_hw.Hw_config.dram_latency +. 1.0 in
  Alcotest.(check bool) "wait exposes the async load" true
    (Float.abs (r.Timing.cycles -. expected) < 5.0)

let test_bandwidth_contention_across_tbs () =
  (* Two resident threadblocks sharing the DRAM server take twice as long
     as one for bandwidth-bound work. *)
  let events = [ gload 1103000; Boxed_trace.Barrier ] in
  let one = run ~residents:1 events in
  let two = run ~residents:2 events in
  Alcotest.(check bool)
    (Printf.sprintf "2 TBs ~ 2x (%.0f vs %.0f)" two.Timing.cycles one.Timing.cycles)
    true
    (two.Timing.cycles > one.Timing.cycles *. 1.8)

let test_compute_multiplexing_hides_loads () =
  (* One TB alternating load/compute is latency-bound; four TBs fill the
     gaps and push tensor-core utilization up. *)
  let g = "p" in
  let iter _ =
    [ aload 1024 g; Boxed_trace.Commit { group = g; sync = true }; Boxed_trace.Wait_oldest { group = g; sync = true }; compute 204800 ]
  in
  let events = List.concat (List.init 8 iter) in
  let one = run ~residents:1 events in
  let four = run ~residents:4 events in
  (* four TBs do 4x the work; if multiplexing hides latency the wave takes
     well under 4x the single-TB time *)
  Alcotest.(check bool)
    (Printf.sprintf "multiplexing helps (%.0f < 2.5 * %.0f)" four.Timing.cycles
       one.Timing.cycles)
    true
    (four.Timing.cycles < 2.5 *. one.Timing.cycles);
  Alcotest.(check bool) "utilization grows" true
    (four.Timing.compute_busy /. four.Timing.cycles
     > one.Timing.compute_busy /. one.Timing.cycles *. 1.5)

let test_boundary_flushes_lookahead () =
  (* A synchronized-group wait acts as a hoisting boundary: the first
     compute after it must wait for its own (post-boundary) loads, so the
     second compute serializes after the load while without the boundary it
     overlaps. The kernel end waits for all loads in both cases; only the
     compute tail differs. *)
  let g = "p" in
  let bytes = 110300 in
  let tail = 204800 (* 100 cycles at full rate *) in
  let events =
    [ aload 16 g; Boxed_trace.Commit { group = g; sync = true }; Boxed_trace.Wait_oldest { group = g; sync = true }; gload bytes;
      compute tail; compute tail ]
  in
  let with_boundary = run ~barrier_groups:[ g ] events in
  let without_boundary = run events in
  let delta = with_boundary.Timing.cycles -. without_boundary.Timing.cycles in
  Alcotest.(check bool)
    (Printf.sprintf "boundary serializes one compute tail (delta %.0f ~ 100)"
       delta)
    true
    (delta > 80.0 && delta < 120.0)

let test_empty_trace () =
  let r = run [] in
  check_cycles "empty" 0.0 r.Timing.cycles

let test_store_counted_at_kernel_end () =
  let r = run [ Boxed_trace.Store { bytes = 110300 } ] in
  Alcotest.(check bool) "store drains before the kernel ends" true
    (r.Timing.cycles > 100.0)

let test_deterministic_jitter_bounds () =
  for key = 0 to 200 do
    let j = Timing.jitter key in
    Alcotest.(check bool) "within 3%" true (j >= 0.97 && j <= 1.03);
    Alcotest.(check (float 0.0)) "stable" j (Timing.jitter key)
  done

let test_bank_conflict_penalty () =
  Alcotest.(check (float 1e-9)) "swizzled" 1.0
    (Timing.bank_conflict_penalty ~swizzle:true ~tb_k:64 ~elem_bytes:2);
  Alcotest.(check bool) "unswizzled power-of-two worst" true
    (Timing.bank_conflict_penalty ~swizzle:false ~tb_k:64 ~elem_bytes:2
     > Timing.bank_conflict_penalty ~swizzle:false ~tb_k:24 ~elem_bytes:2)

let suite =
  [ ( "des",
      [ Alcotest.test_case "pure compute" `Quick test_pure_compute;
        Alcotest.test_case "compute underutilized" `Quick
          test_compute_underutilized;
        Alcotest.test_case "scoreboard lookahead" `Quick
          test_sync_load_blocks_next_compute;
        Alcotest.test_case "barrier waits all loads" `Quick
          test_barrier_waits_all_loads;
        Alcotest.test_case "async pipeline overlap" `Quick
          test_async_pipeline_overlap;
        Alcotest.test_case "wait blocks until oldest" `Quick
          test_wait_blocks_until_oldest;
        Alcotest.test_case "bandwidth contention" `Quick
          test_bandwidth_contention_across_tbs;
        Alcotest.test_case "multiplexing hides loads" `Quick
          test_compute_multiplexing_hides_loads;
        Alcotest.test_case "boundary flushes lookahead" `Quick
          test_boundary_flushes_lookahead;
        Alcotest.test_case "empty trace" `Quick test_empty_trace;
        Alcotest.test_case "store drains" `Quick test_store_counted_at_kernel_end;
        Alcotest.test_case "jitter bounds" `Quick test_deterministic_jitter_bounds;
        Alcotest.test_case "bank conflict penalty" `Quick
          test_bank_conflict_penalty ] ) ]
