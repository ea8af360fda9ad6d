(* The ordering study of paper Fig. 5: inlining an element-wise producer
   versus pipelining its consumer buffer.

   The operator is a MatMul whose A input first goes through an element-wise
   function f (here a GELU). Three compilation strategies:

   1. materialize:       compute f(A) as its own kernel, then a pipelined
                          GEMM reads the materialized tensor;
   2. inline-then-pipe:  fuse f into the shared-memory copy first — the copy
                          becomes synchronous, and pipelining it is then
                          refused by legality rule 1 (case 1 of Fig. 5);
   3. pipe-then-inline:  pipeline first, then inline — the cache read is
                          retargeted past f and f fuses into the downstream
                          synchronous register copy (case 2), so the kernel
                          is both fused and pipelined.

   The example prints each strategy's legality outcome and simulated
   latency, and functionally verifies strategy 3. *)

open Alcop
open Alcop_ir
open Alcop_sched

let hw = Alcop_hw.Hw_config.default

let spec =
  Op_spec.matmul ~name:"fusion_study" ~m:128 ~n:128 ~k:512 ~a_op:"gelu" ()

let tiling =
  Tiling.make ~tb_m:64 ~tb_n:64 ~tb_k:32 ~warp_m:32 ~warp_n:32 ~warp_k:16 ()

let () =
  Format.printf "operator: %a with f = gelu on input A@.@." Op_spec.pp spec;

  (* Strategy 1: keep f(A) materialized. *)
  Format.printf "strategy 1: materialize f(A), then pipeline the GEMM@.";
  let s1 =
    Schedule.default_gemm ~smem_stages:3 ~reg_stages:2 ~inline_elemwise:false
      spec tiling
  in
  let l1 = Lower.run s1 in
  Format.printf "    materialized tensors: %s@."
    (String.concat ", "
       (List.map (fun (t, _, _) -> t) l1.Lower.materialize));
  let c1 =
    match Compiler.compile ~hw
            (Alcop_perfmodel.Params.make ~tiling
               ~smem_stages:3 ~reg_stages:2 ()) spec with
    | Ok c -> c
    | Error e -> failwith (Compiler.error_to_string e)
  in
  ignore c1;

  (* Strategy 2: inline first (case 1) — then try to pipeline. *)
  Format.printf "@.strategy 2: inline f into the smem copy, then pipeline (case 1)@.";
  let s2 = Schedule.create spec in
  let s2, a_sh = Schedule.cache_read s2 "A_f" Buffer.Shared in
  let s2, _ = Schedule.cache_read s2 a_sh Buffer.Register in
  let s2, b_sh = Schedule.cache_read s2 "B" Buffer.Shared in
  let s2, _ = Schedule.cache_read s2 b_sh Buffer.Register in
  let s2 = Schedule.tile s2 tiling in
  let s2 = Schedule.inline s2 "A_f" in
  (match Schedule.pipeline s2 a_sh ~stages:3 with
   | _ -> Format.printf "    unexpectedly accepted!@."
   | exception Schedule.Schedule_error e ->
     Format.printf "    refused: %a@." Schedule.pp_error e);

  (* Strategy 3: pipeline first, then inline (case 2). *)
  Format.printf "@.strategy 3: pipeline, then inline (case 2)@.";
  let s3 = Schedule.create spec in
  let s3, a_sh = Schedule.cache_read s3 "A_f" Buffer.Shared in
  let s3, a_reg = Schedule.cache_read s3 a_sh Buffer.Register in
  let s3, b_sh = Schedule.cache_read s3 "B" Buffer.Shared in
  let s3, _ = Schedule.cache_read s3 b_sh Buffer.Register in
  let s3 = Schedule.tile s3 tiling in
  let s3 = Schedule.pipeline s3 a_sh ~stages:3 in
  let s3 = Schedule.pipeline s3 b_sh ~stages:3 in
  let s3 = Schedule.inline s3 "A_f" in
  Format.printf "    f now rides on the synchronous copy into %s@." a_reg;
  let l3 = Lower.run s3 in
  (match
     Alcop_pipeline.Pass.run ~hw ~hints:l3.Lower.hints l3.Lower.kernel
   with
   | Error r ->
     Format.printf "    unexpected rejection: %a@."
       Alcop_pipeline.Analysis.pp_rejection r
   | Ok result ->
     Format.printf "    pipelined groups: %d; materialized tensors: %d@."
       (List.length (Alcop_pipeline.Pass.groups result))
       (List.length l3.Lower.materialize));

  (* Compare latencies of the two viable strategies using the compile
     pipeline (strategy 3 is what default_gemm produces for this spec). *)
  Format.printf "@.simulated latencies:@.";
  let time label ~inline_elemwise =
    let sched =
      Schedule.default_gemm ~smem_stages:3 ~reg_stages:1 ~inline_elemwise spec
        tiling
    in
    let lowered = Lower.run sched in
    match
      Alcop_pipeline.Pass.run ~hw ~hints:lowered.Lower.hints
        lowered.Lower.kernel
    with
    | Error _ -> ()
    | Ok result ->
      let groups = Alcop_pipeline.Pass.groups result in
      let kernel = result.Alcop_pipeline.Pass.kernel in
      let stats =
        Alcop_gpusim.Trace.stats_of_program
          (Alcop_gpusim.Trace.extract_program ~groups kernel)
      in
      Format.printf "    %-28s trace: %d events, %d global bytes/TB%s@." label
        stats.Alcop_gpusim.Trace.n_events
        stats.Alcop_gpusim.Trace.global_load_bytes
        (if lowered.Lower.materialize = [] then ""
         else " + a separate f(A) kernel")
  in
  time "fused (case 2):" ~inline_elemwise:true;
  time "materialized:" ~inline_elemwise:false;
  let p = Alcop_perfmodel.Params.make ~tiling ~smem_stages:3 ~reg_stages:1 () in
  (match Compiler.compile ~hw p spec with
   | Ok c ->
     Format.printf "    end-to-end latency (fused): %.0f cycles@."
       c.Compiler.latency_cycles;
     (match Compiler.verify c with
      | Ok diff -> Format.printf "    functional check: OK (max |err| = %g)@." diff
      | Error diff -> Format.printf "    functional check: MISMATCH %g@." diff)
   | Error e -> Format.printf "    compile error: %s@." (Compiler.error_to_string e))
