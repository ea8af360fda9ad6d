(* Tests for the schedule layer: dataflow graph rewriting, primitive
   ordering (paper Sec. II-B) and the inlining-versus-pipelining
   interaction of Fig. 5. *)

open Alcop_ir
open Alcop_sched

let spec = Op_spec.matmul ~name:"sched_test" ~m:128 ~n:128 ~k:128 ()

let spec_elem =
  Op_spec.matmul ~name:"sched_elem" ~m:128 ~n:128 ~k:128 ~a_op:"relu" ()

let tiling =
  Tiling.make ~tb_m:64 ~tb_n:64 ~tb_k:32 ~warp_m:32 ~warp_n:32 ~warp_k:16 ()

let default_chain sched =
  let sched, a_sh = Schedule.cache_read sched "A" Buffer.Shared in
  let sched, a_reg = Schedule.cache_read sched a_sh Buffer.Register in
  (sched, a_sh, a_reg)

(* --- dataflow --- *)

let test_of_spec_stages () =
  let g = Dataflow.of_spec spec in
  Alcotest.(check int) "stages" 3 (List.length g.Dataflow.stages);
  Alcotest.(check bool) "output" true (Dataflow.mem g "C")

let test_of_spec_with_elemwise () =
  let g = Dataflow.of_spec spec_elem in
  Alcotest.(check int) "stages" 4 (List.length g.Dataflow.stages);
  match (Dataflow.find_exn g "C").Dataflow.kind with
  | Dataflow.Gemm { a; _ } -> Alcotest.(check string) "gemm reads A_f" "A_f" a
  | _ -> Alcotest.fail "C is not a gemm"

let test_cache_read_retargets () =
  let g = Dataflow.of_spec spec in
  let g, name = Dataflow.cache_read g "A" Buffer.Shared in
  Alcotest.(check string) "name" "A_sh" name;
  (match (Dataflow.find_exn g "C").Dataflow.kind with
   | Dataflow.Gemm { a; _ } -> Alcotest.(check string) "retargeted" "A_sh" a
   | _ -> Alcotest.fail "C is not a gemm");
  let g, name2 = Dataflow.cache_read g "A_sh" Buffer.Register in
  Alcotest.(check string) "second level strips suffix" "A_reg" name2;
  let chain, root =
    Dataflow.cache_chain g
      (match (Dataflow.find_exn g "C").Dataflow.kind with
       | Dataflow.Gemm { a; _ } -> a
       | _ -> assert false)
  in
  Alcotest.(check (list string)) "chain" [ "A_sh"; "A_reg" ] chain;
  Alcotest.(check string) "root" "A" root

let test_consumers_producer () =
  let g = Dataflow.of_spec spec in
  let g, _ = Dataflow.cache_read g "A" Buffer.Shared in
  Alcotest.(check (list string)) "consumers of A" [ "A_sh" ]
    (List.map (fun (s : Dataflow.stage) -> s.Dataflow.name) (Dataflow.consumers g "A"));
  Alcotest.(check (option string)) "producer" (Some "A") (Dataflow.producer g "A_sh")

let test_remove_elemwise_rewires () =
  let g = Dataflow.of_spec spec_elem in
  let g2 = Dataflow.remove_elemwise g "A_f" in
  Alcotest.(check bool) "stage gone" false (Dataflow.mem g2 "A_f");
  (match (Dataflow.find_exn g2 "C").Dataflow.kind with
   | Dataflow.Gemm { a; _ } -> Alcotest.(check string) "rewired to A" "A" a
   | _ -> Alcotest.fail "C is not a gemm");
  Alcotest.check_raises "not elemwise"
    (Invalid_argument "Dataflow.remove_elemwise: C is not element-wise")
    (fun () -> ignore (Dataflow.remove_elemwise g "C"))

let test_set_fused_guards () =
  let g = Dataflow.of_spec spec in
  Alcotest.check_raises "not a cache read"
    (Invalid_argument "Dataflow.set_fused: C is not a cache read")
    (fun () -> ignore (Dataflow.set_fused g "C" "relu"))

let test_hints_api () =
  let h = Alcop_pipeline.Hints.make ~buffer:"X" ~stages:3 () in
  let t = Alcop_pipeline.Hints.add Alcop_pipeline.Hints.empty h in
  Alcotest.(check bool) "mem" true (Alcop_pipeline.Hints.mem t "X");
  Alcotest.(check (list string)) "buffers" [ "X" ] (Alcop_pipeline.Hints.buffers t);
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Hints.add: duplicate hint for buffer X")
    (fun () -> ignore (Alcop_pipeline.Hints.add t h));
  Alcotest.check_raises "stages >= 2"
    (Invalid_argument "Hints.make: a pipeline needs at least 2 stages")
    (fun () -> ignore (Alcop_pipeline.Hints.make ~buffer:"Y" ~stages:1 ()))

(* --- ordering rules --- *)

let test_tile_before_pipeline_required () =
  let sched = Schedule.create spec in
  let sched, a_sh, _ = default_chain sched in
  match Schedule.pipeline sched a_sh ~stages:3 with
  | exception Schedule.Schedule_error e ->
    Alcotest.(check string) "primitive" "pipeline" e.Schedule.primitive
  | _ -> Alcotest.fail "pipelining before tiling must fail"

let test_cache_read_after_pipeline_rejected () =
  let sched = Schedule.create spec in
  let sched, a_sh, _ = default_chain sched in
  let sched = Schedule.tile sched tiling in
  let sched = Schedule.pipeline sched a_sh ~stages:2 in
  match Schedule.cache_read sched "B" Buffer.Shared with
  | exception Schedule.Schedule_error e ->
    Alcotest.(check string) "primitive" "cache_read" e.Schedule.primitive
  | _ -> Alcotest.fail "cache_read after pipeline must fail"

let test_pipeline_non_cache_stage_rejected () =
  let sched = Schedule.create spec in
  let sched = Schedule.tile sched tiling in
  match Schedule.pipeline sched "C" ~stages:2 with
  | exception Schedule.Schedule_error e ->
    Alcotest.(check bool) "mentions rule 1" true
      (String.length e.Schedule.reason > 0)
  | _ -> Alcotest.fail "pipelining a gemm stage must fail"

let test_double_tile_rejected () =
  let sched = Schedule.tile (Schedule.create spec) tiling in
  match Schedule.tile sched tiling with
  | exception Schedule.Schedule_error _ -> ()
  | _ -> Alcotest.fail "double tiling must fail"

let test_invalid_tiling_rejected () =
  let bad = Tiling.make ~tb_m:48 ~tb_n:64 ~tb_k:32 ~warp_m:16 ~warp_n:32 ~warp_k:16 () in
  match Schedule.tile (Schedule.create spec) bad with
  | exception Schedule.Schedule_error _ -> ()
  | _ -> Alcotest.fail "48 does not divide 128"

(* --- Fig. 5: inline x pipeline ordering --- *)

(* Case 1: inlining first fuses f into the shared-memory copy; pipelining
   that buffer afterwards violates rule 1. *)
let test_inline_then_pipeline_fails () =
  let sched = Schedule.create spec_elem in
  let sched, a_sh = Schedule.cache_read sched "A_f" Buffer.Shared in
  let sched, _ = Schedule.cache_read sched a_sh Buffer.Register in
  let sched = Schedule.tile sched tiling in
  let sched = Schedule.inline sched "A_f" in
  (* the elemwise stage is gone and the smem copy is fused *)
  (match (Dataflow.find_exn sched.Schedule.graph a_sh).Dataflow.kind with
   | Dataflow.Cache_read { fused = Some "relu"; src = "A"; _ } -> ()
   | k -> Alcotest.failf "unexpected kind %s" (Dataflow.kind_to_string k));
  match Schedule.pipeline sched a_sh ~stages:3 with
  | exception Schedule.Schedule_error e ->
    Alcotest.(check bool) "rule 1 fires" true
      (String.length e.Schedule.reason > 0)
  | _ -> Alcotest.fail "case 1 must refuse pipelining"

(* Case 2: pipelining first; inlining then retargets the cache read past the
   element-wise stage and pushes f into the downstream synchronous copy. *)
let test_pipeline_then_inline_succeeds () =
  let sched = Schedule.create spec_elem in
  let sched, a_sh = Schedule.cache_read sched "A_f" Buffer.Shared in
  let sched, a_reg = Schedule.cache_read sched a_sh Buffer.Register in
  let sched = Schedule.tile sched tiling in
  let sched = Schedule.pipeline sched a_sh ~stages:3 in
  let sched = Schedule.inline sched "A_f" in
  (match (Dataflow.find_exn sched.Schedule.graph a_sh).Dataflow.kind with
   | Dataflow.Cache_read { fused = None; src = "A"; _ } -> ()
   | k -> Alcotest.failf "smem copy must stay async, got %s"
            (Dataflow.kind_to_string k));
  (match (Dataflow.find_exn sched.Schedule.graph a_reg).Dataflow.kind with
   | Dataflow.Cache_read { fused = Some "relu"; _ } -> ()
   | k -> Alcotest.failf "register copy must carry the op, got %s"
            (Dataflow.kind_to_string k));
  Alcotest.(check bool) "elemwise stage removed" true
    (not (Dataflow.mem sched.Schedule.graph "A_f"))

let test_inline_without_downstream_fails () =
  (* Pipelining both levels leaves no synchronous copy to carry the op. *)
  let sched = Schedule.create spec_elem in
  let sched, a_sh = Schedule.cache_read sched "A_f" Buffer.Shared in
  let sched, a_reg = Schedule.cache_read sched a_sh Buffer.Register in
  let sched = Schedule.tile sched tiling in
  let sched = Schedule.pipeline sched a_sh ~stages:3 in
  let sched = Schedule.pipeline sched a_reg ~stages:2 in
  match Schedule.inline sched "A_f" with
  | exception Schedule.Schedule_error _ -> ()
  | _ -> Alcotest.fail "inlining must fail when every downstream copy is pipelined"

let test_default_gemm_schedule () =
  let sched = Schedule.default_gemm ~smem_stages:3 ~reg_stages:2 spec tiling in
  Alcotest.(check int) "pipeline hints" 4
    (List.length sched.Schedule.pipeline_hints);
  Alcotest.(check bool) "tiled" true (sched.Schedule.tiling <> None)

let test_default_gemm_disable_levels () =
  let sched = Schedule.default_gemm ~smem_stages:1 ~reg_stages:1 spec tiling in
  Alcotest.(check int) "no hints" 0 (List.length sched.Schedule.pipeline_hints)

(* --- tiling helper --- *)

let test_tiling_derived_quantities () =
  Alcotest.(check int) "warps" 4 (Tiling.warps tiling);
  Alcotest.(check int) "tbs" 4 (Tiling.threadblocks tiling spec);
  Alcotest.(check int) "k iters" 4 (Tiling.k_iters tiling spec);
  Alcotest.(check int) "ki iters" 2 (Tiling.ki_iters tiling);
  Alcotest.(check int) "smem bytes" ((64 + 64) * 32 * 2)
    (Tiling.smem_tile_bytes tiling 2)

let test_tiling_granule_check () =
  let bad = Tiling.make ~tb_m:64 ~tb_n:64 ~tb_k:32 ~warp_m:8 ~warp_n:32 ~warp_k:16 () in
  match Tiling.validate bad spec with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "warp_m=8 must violate the MMA granule"

(* Zero or negative tile dimensions are a structured validation error, and
   a compile of one fails with a compile error instead of raising
   Division_by_zero. *)
let test_tiling_nonpositive_rejected () =
  let spec = Op_spec.matmul ~name:"zero_tile" ~m:64 ~n:64 ~k:128 () in
  List.iter
    (fun (tb_m, tb_n, tb_k, warp_m, warp_n, warp_k) ->
      let tiling = Tiling.make ~tb_m ~tb_n ~tb_k ~warp_m ~warp_n ~warp_k () in
      (match Tiling.validate tiling spec with
       | Error _ -> ()
       | Ok () -> Alcotest.fail "non-positive tile validated");
      let params =
        Alcop_perfmodel.Params.make ~tiling ~smem_stages:2 ~reg_stages:1 ()
      in
      match Alcop.Compiler.compile params spec with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "non-positive tile compiled")
    [ (0, 0, 0, 16, 16, 16); (64, 64, 32, 0, 32, 16);
      (64, -64, 32, 32, 32, 16); (64, 64, 32, 32, 32, -16) ]

let suite =
  [ ( "schedule",
      [ Alcotest.test_case "dataflow of spec" `Quick test_of_spec_stages;
        Alcotest.test_case "dataflow with elemwise" `Quick test_of_spec_with_elemwise;
        Alcotest.test_case "cache_read retargets" `Quick test_cache_read_retargets;
        Alcotest.test_case "consumers/producer" `Quick test_consumers_producer;
        Alcotest.test_case "remove_elemwise rewires" `Quick
          test_remove_elemwise_rewires;
        Alcotest.test_case "set_fused guards" `Quick test_set_fused_guards;
        Alcotest.test_case "hints api" `Quick test_hints_api;
        Alcotest.test_case "tile before pipeline" `Quick
          test_tile_before_pipeline_required;
        Alcotest.test_case "cache_read after pipeline" `Quick
          test_cache_read_after_pipeline_rejected;
        Alcotest.test_case "pipeline non-cache stage" `Quick
          test_pipeline_non_cache_stage_rejected;
        Alcotest.test_case "double tile" `Quick test_double_tile_rejected;
        Alcotest.test_case "invalid tiling" `Quick test_invalid_tiling_rejected;
        Alcotest.test_case "Fig5 case 1: inline then pipeline" `Quick
          test_inline_then_pipeline_fails;
        Alcotest.test_case "Fig5 case 2: pipeline then inline" `Quick
          test_pipeline_then_inline_succeeds;
        Alcotest.test_case "inline without downstream" `Quick
          test_inline_without_downstream_fails;
        Alcotest.test_case "default gemm schedule" `Quick test_default_gemm_schedule;
        Alcotest.test_case "default gemm disable levels" `Quick
          test_default_gemm_disable_levels;
        Alcotest.test_case "tiling quantities" `Quick test_tiling_derived_quantities;
        Alcotest.test_case "tiling granule" `Quick test_tiling_granule_check;
        Alcotest.test_case "non-positive tile rejected" `Quick
          test_tiling_nonpositive_rejected ] ) ]
