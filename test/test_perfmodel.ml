(* Analytical performance model tests (paper Table I) and the bottleneck
   baseline. *)

open Alcop_sched
open Alcop_perfmodel

let hw = Alcop_hw.Hw_config.ampere_a100

let spec = Op_spec.matmul ~name:"pm_test" ~m:1024 ~n:64 ~k:2048 ()

let tiling =
  Tiling.make ~tb_m:64 ~tb_n:64 ~tb_k:32 ~warp_m:32 ~warp_n:32 ~warp_k:16 ()

let params ?(smem_stages = 3) ?(reg_stages = 2) () =
  Params.make ~tiling ~smem_stages ~reg_stages ()

(* --- the pipeline latency rule of Fig. 9 --- *)

let test_pipeline_latency_compute_bound () =
  (* T_load well hidden: loop latency is just use time. *)
  let t, load_bound =
    Model.pipeline_latency ~t_load:10.0 ~t_use:100.0 ~n_loop:8 ~n_pipe:2 ~n_mplx:1
  in
  Alcotest.(check (float 1e-9)) "compute bound" 800.0 t;
  Alcotest.(check bool) "not load bound" false load_bound

let test_pipeline_latency_load_bound () =
  let t, load_bound =
    Model.pipeline_latency ~t_load:1000.0 ~t_use:10.0 ~n_loop:8 ~n_pipe:2 ~n_mplx:1
  in
  Alcotest.(check (float 1e-9)) "load bound" (1010.0 *. 8.0 /. 2.0) t;
  Alcotest.(check bool) "load bound flag" true load_bound

let test_pipeline_latency_boundary () =
  (* exactly at the criterion: T_load = (pipe*mplx - 1) * T_use *)
  let t, load_bound =
    Model.pipeline_latency ~t_load:30.0 ~t_use:10.0 ~n_loop:4 ~n_pipe:2 ~n_mplx:2
  in
  Alcotest.(check (float 1e-9)) "boundary is compute bound" 40.0 t;
  Alcotest.(check bool) "flag" false load_bound

let test_more_stages_help_when_load_bound () =
  let latency n_pipe =
    fst
      (Model.pipeline_latency ~t_load:1000.0 ~t_use:10.0 ~n_loop:8 ~n_pipe
         ~n_mplx:1)
  in
  Alcotest.(check bool) "4 stages < 2 stages" true (latency 4 < latency 2);
  Alcotest.(check bool) "monotone" true (latency 3 < latency 2)

let test_multiplexing_substitutes_stages () =
  (* With enough parallel workers, even 1-stage loops reach compute bound. *)
  let t, _ =
    Model.pipeline_latency ~t_load:50.0 ~t_use:10.0 ~n_loop:8 ~n_pipe:1 ~n_mplx:8
  in
  Alcotest.(check (float 1e-9)) "hidden by multiplexing" 80.0 t

(* --- full model --- *)

let test_predict_structure () =
  match Model.predict hw spec (params ()) with
  | Error f -> Alcotest.failf "unexpected failure: %a" Alcop_gpusim.Occupancy.pp_failure f
  | Ok p ->
    Alcotest.(check bool) "positive" true (p.Model.cycles > 0.0);
    Alcotest.(check bool) "components sum" true
      (Float.abs
         (p.Model.t_threadblk
          -. (p.Model.t_init +. p.Model.t_main_loop +. p.Model.t_epilogue))
       < 1e-6);
    Alcotest.(check bool) "batches >= 1" true (p.Model.n_batches >= 1)

let test_model_prefers_pipelining_on_long_k () =
  let c stages =
    Option.get (Model.predict_cycles hw spec (params ~smem_stages:stages ()))
  in
  Alcotest.(check bool) "3 stages <= 1 stage" true (c 3 <= c 1)

let test_model_rejects_oversized () =
  let big =
    Tiling.make ~tb_m:256 ~tb_n:128 ~tb_k:64 ~warp_m:64 ~warp_n:64 ~warp_k:32 ()
  in
  let p = Params.make ~tiling:big ~smem_stages:4 ~reg_stages:2 () in
  Alcotest.(check bool) "rejected" true (Model.predict_cycles hw spec p = None)

(* The analytical model should correlate with the simulator: over a sample
   of schedules, ranking agreement (Spearman-ish sign test) must be well
   above chance. *)
let test_model_correlates_with_simulator () =
  let space =
    Alcop_tune.Space.enumerate ~restriction:Alcop_tune.Space.full spec
  in
  let sample =
    List.filteri (fun i _ -> i mod 17 = 0) (Array.to_list space)
  in
  let evaluate = Alcop.Session.evaluator (Alcop.Session.create ~hw ()) spec in
  let pairs =
    List.filter_map
      (fun p ->
        match Model.predict_cycles hw spec p, evaluate p with
        | Some pred, Some meas -> Some (pred, meas)
        | _ -> None)
      sample
  in
  Alcotest.(check bool) "enough pairs" true (List.length pairs > 20);
  let agree = ref 0 and total = ref 0 in
  let arr = Array.of_list pairs in
  Array.iteri
    (fun i (p1, m1) ->
      Array.iteri
        (fun j (p2, m2) ->
          if i < j && p1 <> p2 && m1 <> m2 then begin
            incr total;
            if (p1 < p2) = (m1 < m2) then incr agree
          end)
        arr)
    arr;
  let rate = float_of_int !agree /. float_of_int (max 1 !total) in
  Alcotest.(check bool)
    (Printf.sprintf "pairwise ranking agreement %.2f > 0.65" rate)
    true (rate > 0.65)

(* --- bottleneck baseline --- *)

let test_bottleneck_stage_agnostic () =
  (* The paper's criticism: the bottleneck model cannot see stage counts. *)
  let c stages =
    Option.get (Bottleneck.predict_cycles hw spec (params ~smem_stages:stages ()))
  in
  Alcotest.(check (float 1e-9)) "same for 1 and 4 stages" (c 1) (c 4)

let test_bottleneck_positive_and_below_peak () =
  match Bottleneck.predict_cycles hw spec (params ()) with
  | None -> Alcotest.fail "bottleneck model must predict"
  | Some c ->
    let ideal_compute =
      float_of_int (Op_spec.flops spec)
      /. float_of_int (hw.Alcop_hw.Hw_config.tensor_core_flops_per_cycle
                       * hw.Alcop_hw.Hw_config.num_sms)
    in
    Alcotest.(check bool) "at least compute time" true (c >= ideal_compute -. 1e-6)

(* --- features --- *)

let test_features_shape () =
  let f = Features.extract hw spec (params ()) in
  Alcotest.(check int) "dimension" Features.dim (Array.length f);
  Array.iter
    (fun x ->
      Alcotest.(check bool) "finite" true (Float.is_finite x))
    f

let test_features_distinguish_stages () =
  let f1 = Features.extract hw spec (params ~smem_stages:2 ()) in
  let f2 = Features.extract hw spec (params ~smem_stages:4 ()) in
  Alcotest.(check bool) "different" true (f1 <> f2)

(* [Params.to_string] and [Tiling.to_string] are built without [Printf];
   the jitter behind every simulated cycle count hashes their bytes, so
   they must equal the [Printf] formats they replaced on any params,
   including split-K tilings, negative fields and both flags off. *)
let printf_params_to_string (p : Params.t) =
  let t = p.Params.tiling in
  Printf.sprintf "%s smem_stages=%d reg_stages=%d%s%s"
    (Printf.sprintf "tb(%dx%dx%d)/warp(%dx%dx%d)%s" t.Tiling.tb_m t.Tiling.tb_n
       t.Tiling.tb_k t.Tiling.warp_m t.Tiling.warp_n t.Tiling.warp_k
       (if t.Tiling.split_k > 1 then Printf.sprintf "/split%d" t.Tiling.split_k
        else ""))
    p.Params.smem_stages p.Params.reg_stages
    (if p.Params.swizzle then "" else " noswizzle")
    (if p.Params.inner_fuse then "" else " nofuse")

let gen_params =
  let open QCheck.Gen in
  let dim = oneof [ int_range 1 512; int_range (-3) 0; map (fun b -> 1 lsl b) (int_range 0 12); return max_int ] in
  let* tb_m = dim and* tb_n = dim and* tb_k = dim in
  let* warp_m = dim and* warp_n = dim and* warp_k = dim in
  let* split_k = oneof [ return 1; int_range 2 16; int_range (-2) 0 ] in
  let* smem_stages = int_range 1 1_000_000 and* reg_stages = int_range 1 8 in
  let* swizzle = bool and* inner_fuse = bool in
  let tiling = Tiling.make ~split_k ~tb_m ~tb_n ~tb_k ~warp_m ~warp_n ~warp_k () in
  return (Params.make ~swizzle ~inner_fuse ~tiling ~smem_stages ~reg_stages ())

let prop_to_string_matches_printf =
  QCheck.Test.make ~name:"Params.to_string == Printf format" ~count:1000
    (QCheck.make ~print:printf_params_to_string gen_params) (fun p ->
      String.equal (Params.to_string p) (printf_params_to_string p)
      && Params.key "op" p = Hashtbl.hash ("op", printf_params_to_string p))

let suite =
  [ ( "perfmodel",
      [ Alcotest.test_case "pipeline latency compute bound" `Quick
          test_pipeline_latency_compute_bound;
        Alcotest.test_case "pipeline latency load bound" `Quick
          test_pipeline_latency_load_bound;
        Alcotest.test_case "pipeline latency boundary" `Quick
          test_pipeline_latency_boundary;
        Alcotest.test_case "more stages help" `Quick
          test_more_stages_help_when_load_bound;
        Alcotest.test_case "multiplexing substitutes stages" `Quick
          test_multiplexing_substitutes_stages;
        Alcotest.test_case "predict structure" `Quick test_predict_structure;
        Alcotest.test_case "model prefers pipelining on long K" `Quick
          test_model_prefers_pipelining_on_long_k;
        Alcotest.test_case "model rejects oversized" `Quick
          test_model_rejects_oversized;
        Alcotest.test_case "model correlates with simulator" `Slow
          test_model_correlates_with_simulator;
        Alcotest.test_case "bottleneck stage agnostic" `Quick
          test_bottleneck_stage_agnostic;
        Alcotest.test_case "bottleneck lower bound" `Quick
          test_bottleneck_positive_and_below_peak;
        Alcotest.test_case "features shape" `Quick test_features_shape;
        Alcotest.test_case "features distinguish stages" `Quick
          test_features_distinguish_stages;
        QCheck_alcotest.to_alcotest prop_to_string_matches_printf ] ) ]
