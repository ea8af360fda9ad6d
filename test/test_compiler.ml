(* Tests for the top-level compile pipeline, compiler variants, library
   oracle, XLA-like baseline and end-to-end evaluation. *)

open Alcop_sched
open Alcop

let hw = Alcop_hw.Hw_config.ampere_a100

let spec = Op_spec.matmul ~name:"comp_test" ~m:256 ~n:128 ~k:512 ()

let tiling =
  Tiling.make ~tb_m:64 ~tb_n:64 ~tb_k:32 ~warp_m:32 ~warp_n:32 ~warp_k:16 ()

let params = Alcop_perfmodel.Params.make ~tiling ~smem_stages:3 ~reg_stages:2 ()

let test_compile_ok () =
  match Compiler.compile ~hw params spec with
  | Error e -> Alcotest.fail (Compiler.error_to_string e)
  | Ok c ->
    Alcotest.(check bool) "positive latency" true (c.Compiler.latency_cycles > 0.0);
    Alcotest.(check int) "two pipeline groups" 2 (List.length c.Compiler.groups);
    Alcotest.(check bool) "trace non-empty" true
      (Alcop_gpusim.Trace.length c.Compiler.program > 0)

let test_compile_verifies_numerically () =
  let small = Op_spec.matmul ~name:"comp_verify" ~m:64 ~n:64 ~k:128 () in
  let t32 = Tiling.make ~tb_m:32 ~tb_n:32 ~tb_k:16 ~warp_m:16 ~warp_n:16 ~warp_k:16 () in
  let p = Alcop_perfmodel.Params.make ~tiling:t32 ~smem_stages:3 ~reg_stages:2 () in
  match Compiler.compile ~hw p small with
  | Error e -> Alcotest.fail (Compiler.error_to_string e)
  | Ok c ->
    (match Compiler.verify c with
     | Ok _ -> ()
     | Error diff -> Alcotest.failf "numerical mismatch: %g" diff)

let test_compile_materialized_elemwise () =
  let s = Op_spec.matmul ~name:"comp_mat" ~m:64 ~n:64 ~k:128 ~a_op:"relu" () in
  let t32 = Tiling.make ~tb_m:32 ~tb_n:32 ~tb_k:16 ~warp_m:16 ~warp_n:16 ~warp_k:16 () in
  let p = Alcop_perfmodel.Params.make ~tiling:t32 ~smem_stages:3 ~reg_stages:1 () in
  match Compiler.compile ~hw p s with
  | Error e -> Alcotest.fail (Compiler.error_to_string e)
  | Ok c ->
    (* default schedule inlines, so nothing to materialize, and the result
       must still match the reference (relu applied). *)
    Alcotest.(check int) "inlined" 0 (List.length c.Compiler.lowered.Lower.materialize);
    (match Compiler.verify c with
     | Ok _ -> ()
     | Error diff -> Alcotest.failf "mismatch %g" diff)

let test_evaluator_caches_and_fails () =
  let evaluate = Session.evaluator (Session.create ~hw ()) spec in
  let ok = evaluate params in
  Alcotest.(check bool) "compiles" true (ok <> None);
  let big =
    Alcop_perfmodel.Params.make
      ~tiling:(Tiling.make ~tb_m:256 ~tb_n:128 ~tb_k:64 ~warp_m:64 ~warp_n:64 ~warp_k:32 ())
      ~smem_stages:4 ~reg_stages:2 ()
  in
  Alcotest.(check bool) "oversized fails" true (evaluate big = None);
  Alcotest.(check bool) "cache stable" true (evaluate params = ok)

(* --- the launch check before lowering --- *)

(* Shared memory the compiled kernel allocates, read off the pipelined
   IR: the figure the launch check computes from the params alone. *)
let kernel_smem_bytes (c : Compiler.compiled) =
  List.fold_left
    (fun acc (b : Alcop_ir.Buffer.t) ->
      if Alcop_ir.Buffer.scope_equal b.Alcop_ir.Buffer.scope Alcop_ir.Buffer.Shared
      then acc + Alcop_ir.Buffer.size_bytes b
      else acc)
    0
    (Alcop_ir.Stmt.allocs c.Compiler.kernel.Alcop_ir.Kernel.body)

(* Random operators across every spec shape the compiler takes: matmul,
   batched and conv2d, with and without element-wise producers and an
   epilogue, on ad-hoc shapes: small ones put split-K in the space, large
   ones tiles too big to launch. *)
let gen_spec =
  let open QCheck.Gen in
  let op = option ~ratio:0.3 (oneofl [ "relu"; "scale2"; "gelu" ]) in
  let dim = oneofl [ 32; 48; 64; 96; 128; 192; 256; 512 ] in
  let kdim = oneofl [ 64; 96; 128; 256; 512; 1024 ] in
  oneof
    [ map
        (fun ((m, n, k), (a_op, b_op, epilogue)) ->
          Op_spec.matmul ?a_op ?b_op ?epilogue ~name:"prop_mm" ~m ~n ~k ())
        (pair (triple dim dim kdim) (triple op op op));
      map
        (fun ((batch, m, n, k), (a_op, epilogue)) ->
          Op_spec.batched_matmul ?a_op ?epilogue ~name:"prop_bmm" ~batch ~m
            ~n ~k ())
        (pair (quad (int_range 1 4) dim dim kdim) (pair op op));
      map
        (fun ((cn, ch, ci), (co, kk, epilogue)) ->
          Op_spec.conv2d ?epilogue ~name:"prop_conv"
            { Op_spec.cn; ci; ch; cw = ch; co; ckh = kk; ckw = kk;
              stride = 1; pad = kk / 2 })
        (pair
           (triple (int_range 1 2) (oneofl [ 4; 8; 16 ]) (oneofl [ 16; 32; 64 ]))
           (triple (oneofl [ 32; 64; 128 ]) (oneofl [ 1; 3 ]) op)) ]

let gen_point =
  QCheck.Gen.(
    quad gen_spec (oneofl Variants.all) (int_bound 0x3FFFFFFF) (pair bool bool))

let prop_launch_footprint =
  QCheck.Test.make ~count:300
    ~name:"launch check agrees with the compiled kernel"
    (QCheck.make
       ~print:(fun (s, (v : Variants.t), i, _) ->
         Printf.sprintf "%s %s point %d" (Format.asprintf "%a" Op_spec.pp s)
           v.Variants.name i)
       gen_point)
    (fun (s, v, i, (swizzle, inner_fuse)) ->
      let space = Variants.space v s in
      QCheck.assume (Array.length space > 0);
      let p =
        { space.(i mod Array.length space) with
          Alcop_perfmodel.Params.swizzle; inner_fuse }
      in
      let extra = Variants.extra_regs v s p in
      let launch =
        Alcop_perfmodel.Params.launch ~extra_regs_per_thread:extra hw
          (Alcop_ir.Dtype.size_bytes s.Op_spec.dtype) p
      in
      match Compiler.compile ~hw ~extra_regs_per_thread:extra p s, launch with
      | Ok c, Ok _ ->
        let allocated = kernel_smem_bytes c in
        let smem =
          c.Compiler.timing_request.Alcop_gpusim.Timing.occupancy
            .Alcop_gpusim.Occupancy.smem_per_tb
        in
        allocated = smem
        || QCheck.Test.fail_reportf "kernel allocates %d shared bytes, request %d"
             allocated smem
      | Error (Compiler.Launch_failed f), Error f' -> f = f'
      | Error (Compiler.Launch_failed _), Ok _ | _, Error _ -> false
      (* a lowering or legality failure of a launchable point *)
      | Error _, Ok _ -> true)

let test_rejected_before_lowering () =
  let big =
    Alcop_perfmodel.Params.make
      ~tiling:(Tiling.make ~tb_m:256 ~tb_n:128 ~tb_k:64 ~warp_m:64 ~warp_n:64 ~warp_k:32 ())
      ~smem_stages:4 ~reg_stages:2 ()
  in
  Alcop_obs.Obs.record ();
  Fun.protect ~finally:Alcop_obs.Obs.reset @@ fun () ->
  let expected = Alcop_perfmodel.Params.launch hw 2 big in
  (match Compiler.compile ~hw big spec, expected with
   | Error (Compiler.Launch_failed f), Error f' ->
     Alcotest.(check bool) "same failure as Params.launch" true (f = f');
     Alcotest.(check string) "shared memory" "shared memory per threadblock"
       f.Alcop_gpusim.Occupancy.resource
   | Error e, _ -> Alcotest.failf "wrong failure: %s" (Compiler.error_to_string e)
   | Ok _, _ -> Alcotest.fail "oversized schedule compiled");
  List.iter
    (fun (pass, runs) ->
      Alcotest.(check int) ("pass." ^ pass ^ ".runs") runs
        (Alcop_obs.Obs.counter_value ("pass." ^ pass ^ ".runs")))
    [ ("schedule", 1); ("lower", 0); ("pipeline", 0); ("trace", 0); ("timing", 0) ];
  Alcotest.(check int) "compile.fail.launch" 1
    (Alcop_obs.Obs.counter_value "compile.fail.launch")

(* A stage count whose footprint product would wrap reads as the
   exhausted resource: the products saturate instead. *)
let test_huge_stages_saturate () =
  List.iter
    (fun stages ->
      let resource p =
        match Alcop_perfmodel.Params.launch hw 2 p with
        | Error f -> f.Alcop_gpusim.Occupancy.resource
        | Ok _ -> "launches"
      in
      Alcotest.(check string) "smem stages" "shared memory per threadblock"
        (resource { params with Alcop_perfmodel.Params.smem_stages = stages });
      Alcotest.(check string) "reg stages" "registers per thread"
        (resource { params with Alcop_perfmodel.Params.reg_stages = stages }))
    [ 1 lsl 51; 1_000_000_000_000_000; max_int ]

(* --- variants --- *)

let small_spec = Op_spec.matmul ~name:"comp_var" ~m:512 ~n:64 ~k:1024 ()

let test_variant_ordering () =
  (* On a long-reduction small-output shape, the paper's ordering must
     hold: ALCOP <= ALCOP w/o ML <= TVM, and TVM DB ~ TVM. *)
  let best v = Option.get (Variants.best_latency ~hw v small_spec) in
  let tvm = best Variants.tvm in
  let alcop = best Variants.alcop in
  let no_ml = best Variants.alcop_no_ml in
  let no_ml_ms = best Variants.alcop_no_ml_ms in
  Alcotest.(check bool)
    (Printf.sprintf "ALCOP (%.0f) < TVM (%.0f)" alcop tvm)
    true (alcop < tvm);
  Alcotest.(check bool)
    (Printf.sprintf "ALCOP (%.0f) <= no-ML (%.0f)" alcop no_ml)
    true (alcop <= no_ml);
  Alcotest.(check bool)
    (Printf.sprintf "no-ML (%.0f) <= no-ML-MS (%.0f)" no_ml no_ml_ms)
    true (no_ml <= no_ml_ms);
  Alcotest.(check bool)
    (Printf.sprintf "no-ML-MS (%.0f) <= TVM (%.0f)" no_ml_ms tvm)
    true (no_ml_ms <= tvm)

let test_variant_spaces_nested () =
  let n v = Array.length (Variants.space v small_spec) in
  Alcotest.(check bool) "tvm smallest" true (n Variants.tvm < n Variants.alcop);
  Alcotest.(check bool) "no_ml between" true
    (n Variants.alcop_no_ml < n Variants.alcop)

let test_tvm_db_register_cost () =
  let p2 =
    Alcop_perfmodel.Params.make ~tiling ~smem_stages:2 ~reg_stages:1 ()
  in
  Alcotest.(check bool) "db costs registers" true
    (Variants.extra_regs Variants.tvm_db small_spec p2 > 0);
  Alcotest.(check int) "cp.async costs none" 0
    (Variants.extra_regs Variants.alcop_no_ml_ms small_spec p2)

(* --- library oracle and XLA --- *)

let test_library_close_to_alcop () =
  let lib = Option.get (Library_oracle.best_latency ~hw small_spec) in
  let alcop = Option.get (Variants.best_latency ~hw Variants.alcop small_spec) in
  let ratio = lib /. alcop in
  Alcotest.(check bool)
    (Printf.sprintf "library/alcop ratio %.2f in [0.6, 1.3]" ratio)
    true
    (ratio > 0.6 && ratio < 1.3)

let test_xla_on_matmul_is_library_backed () =
  (* XLA dispatches plain MatMuls to the library: it may beat ALCOP there
     (as cuBLAS does), but only within the dispatch overhead of the library
     oracle itself. *)
  let xla = Option.get (Xla_like.latency ~hw small_spec) in
  let lib = Option.get (Library_oracle.best_latency ~hw small_spec) in
  Alcotest.(check bool)
    (Printf.sprintf "xla (%.0f) ~ library (%.0f)" xla lib)
    true
    (xla >= lib && xla <= lib *. 1.1)

let test_xla_loses_on_batched_matmul () =
  (* Batched matmuls go through XLA's own unpipelined codegen plus layout
     copies: ALCOP must win. *)
  let spec =
    Op_spec.batched_matmul ~name:"comp_xla_bmm" ~batch:16 ~m:256 ~n:64 ~k:256 ()
  in
  let xla = Option.get (Xla_like.latency ~hw spec) in
  let alcop = Option.get (Variants.best_latency ~hw Variants.alcop spec) in
  Alcotest.(check bool)
    (Printf.sprintf "alcop (%.0f) < xla (%.0f)" alcop xla)
    true (alcop < xla)

(* --- workloads --- *)

let test_suite_shapes_have_spaces () =
  List.iter
    (fun s ->
      let space = Variants.space Variants.alcop s in
      Alcotest.(check bool)
        (s.Op_spec.name ^ " has schedules")
        true
        (Array.length space > 0))
    Alcop_workloads.Suites.fig10

let test_model_ops_have_spaces () =
  List.iter
    (fun (m : Alcop_workloads.Models.t) ->
      List.iter
        (fun (s, count) ->
          Alcotest.(check bool) (s.Op_spec.name ^ " count") true (count > 0);
          let space = Variants.space Variants.alcop s in
          Alcotest.(check bool)
            (s.Op_spec.name ^ " has schedules")
            true
            (Array.length space > 0))
        m.Alcop_workloads.Models.ops)
    Alcop_workloads.Models.all

let test_conv_implicit_gemm_dims () =
  let c =
    Op_spec.conv2d ~name:"conv_dims"
      { Op_spec.cn = 2; ci = 16; ch = 8; cw = 8; co = 32; ckh = 3; ckw = 3;
        stride = 1; pad = 1 }
  in
  Alcotest.(check int) "M = n*oh*ow" (2 * 8 * 8) c.Op_spec.m;
  Alcotest.(check int) "N = oc" 32 c.Op_spec.n;
  Alcotest.(check int) "K = ic*kh*kw" (16 * 9) c.Op_spec.k

let test_arithmetic_intensity () =
  let balanced = Op_spec.matmul ~name:"ai" ~m:1024 ~n:1024 ~k:1024 () in
  let skinny = Op_spec.matmul ~name:"ai2" ~m:1024 ~n:16 ~k:1024 () in
  Alcotest.(check bool) "square has higher intensity" true
    (Op_spec.arithmetic_intensity balanced > Op_spec.arithmetic_intensity skinny)

let suite =
  [ ( "compiler",
      [ Alcotest.test_case "compile ok" `Quick test_compile_ok;
        Alcotest.test_case "compile verifies numerically" `Quick
          test_compile_verifies_numerically;
        Alcotest.test_case "inlined elemwise compiles" `Quick
          test_compile_materialized_elemwise;
        Alcotest.test_case "evaluator cache and failure" `Quick
          test_evaluator_caches_and_fails;
        Alcotest.test_case "rejected before lowering" `Quick
          test_rejected_before_lowering;
        QCheck_alcotest.to_alcotest prop_launch_footprint;
        Alcotest.test_case "huge stages saturate" `Quick
          test_huge_stages_saturate;
        Alcotest.test_case "variant ordering" `Slow test_variant_ordering;
        Alcotest.test_case "variant spaces nested" `Quick test_variant_spaces_nested;
        Alcotest.test_case "tvm db register cost" `Quick test_tvm_db_register_cost;
        Alcotest.test_case "library close to alcop" `Slow test_library_close_to_alcop;
        Alcotest.test_case "xla library-backed on matmul" `Slow
          test_xla_on_matmul_is_library_backed;
        Alcotest.test_case "xla loses on batched matmul" `Slow
          test_xla_loses_on_batched_matmul;
        Alcotest.test_case "suite shapes have spaces" `Quick
          test_suite_shapes_have_spaces;
        Alcotest.test_case "model ops have spaces" `Quick test_model_ops_have_spaces;
        Alcotest.test_case "conv implicit gemm dims" `Quick
          test_conv_implicit_gemm_dims;
        Alcotest.test_case "arithmetic intensity" `Quick test_arithmetic_intensity ] ) ]

(* --- the lowering slot --- *)

(* A compile served from the domain's lowering slot must equal a cold
   compile of the same point: the same pipelined and lowered kernels,
   groups, latency bits and error. A domain starts with an empty slot, so
   a compile on a freshly spawned domain is cold by construction.

   A case is a sequence of runs. A run compiles 1 to 4 stage-count points
   of one of two tilings back to back, on one of two operators of equal
   shape (so they share tilings) that differ in their element-wise
   producers;
   with a producer, whether it is inlined depends on the stage counts
   (Fig. 5), so the lowered graph changes within a run. Stage counts up
   to 5 and 3 reach launch and legality failures, and an untileable
   tiling a schedule failure. No lowering failure is reachable through
   [Compiler.compile] (every reachable schedule lowers), so a case may
   also lower an untiled schedule through [Compiler.lower_point] between
   compiles: it must fail as [Lower.run] does and leave the slot serving
   exact results. *)
type slot_step =
  | Compile_point of int * Alcop_perfmodel.Params.t
  | Lower_untiled

let gen_slot_case =
  let open QCheck.Gen in
  let op = option ~ratio:0.6 (oneofl [ "relu"; "scale2" ]) in
  let* spec = gen_spec in
  let* a_op = op and* b_op = op and* epilogue = op in
  let twin = { spec with Op_spec.name = "prop_twin"; a_op; b_op; epilogue } in
  let space = Variants.space Variants.alcop spec in
  let point =
    let* smem_stages = int_range 1 5 and* reg_stages = int_range 1 3 in
    let* swizzle = bool and* inner_fuse = bool in
    return (smem_stages, reg_stages, swizzle, inner_fuse)
  in
  (* Runs draw their tiling from two, so a run often meets the slot
     holding its own tiling under the other operator. *)
  let* tilings = pair (int_bound 0x3FFFFFFF) (int_bound 0x3FFFFFFF) in
  let run =
    let* which = int_bound 1 and* first = bool in
    let i = if first then fst tilings else snd tilings in
    let* untileable = map (fun n -> n = 0) (int_bound 9) in
    let* points = list_size (int_range 1 4) point in
    let* lower_untiled = map (fun n -> n = 0) (int_bound 4) in
    let tiling =
      if untileable || Array.length space = 0 then
        Tiling.make ~tb_m:(2 * spec.Op_spec.m) ~tb_n:32 ~tb_k:32 ~warp_m:16
          ~warp_n:16 ~warp_k:16 ()
      else space.(i mod Array.length space).Alcop_perfmodel.Params.tiling
    in
    return
      (List.concat_map
         (fun (smem_stages, reg_stages, swizzle, inner_fuse) ->
           let p =
             Alcop_perfmodel.Params.make ~swizzle ~inner_fuse ~tiling
               ~smem_stages ~reg_stages ()
           in
           Compile_point (which, p)
           :: (if lower_untiled then [ Lower_untiled ] else []))
         points)
  in
  let* runs = list_size (int_range 2 5) run in
  return ([| spec; twin |], List.concat runs)

let slot_case_to_string (specs, steps) =
  String.concat "\n"
    (Format.asprintf "%a / %a" Op_spec.pp specs.(0) Op_spec.pp specs.(1)
    :: List.map
         (function
           | Compile_point (i, p) ->
             Printf.sprintf "  compile %d %s" i
               (Alcop_perfmodel.Params.to_string p)
           | Lower_untiled -> "  lower an untiled schedule")
         steps)

(* Everything of a compile's result a caller can observe. *)
let compile_outcome = function
  | Ok (c : Compiler.compiled) ->
    Ok
      ( ( Alcop_ir.Kernel.to_string c.Compiler.kernel,
          Alcop_ir.Kernel.to_string c.Compiler.lowered.Lower.kernel,
          Option.map Alcop_ir.Kernel.to_string
            c.Compiler.lowered.Lower.reduce,
          c.Compiler.lowered.Lower.materialize ),
        ( c.Compiler.groups,
          Int64.bits_of_float c.Compiler.latency_cycles,
          c.Compiler.schedule,
          c.Compiler.lowered.Lower.schedule == c.Compiler.schedule,
          c.Compiler.lowered.Lower.hints
          = c.Compiler.schedule.Schedule.pipeline_hints ) )
  | Error e -> Error (Compiler.error_kind e, Compiler.error_to_string e)

let prop_slot_equals_cold =
  QCheck.Test.make ~count:100
    ~name:"compile served from the lowering slot == cold compile"
    (QCheck.make ~print:slot_case_to_string gen_slot_case)
    (fun (specs, steps) ->
      List.for_all
        (function
          | Compile_point (i, p) ->
            let served = compile_outcome (Compiler.compile ~hw p specs.(i)) in
            let cold =
              Domain.join
                (Domain.spawn (fun () ->
                     compile_outcome (Compiler.compile ~hw p specs.(i))))
            in
            served = cold
            || QCheck.Test.fail_reportf "%s: served %s, cold %s"
                 (Alcop_perfmodel.Params.to_string p)
                 (match served with Ok _ -> "ok" | Error (k, _) -> k)
                 (match cold with Ok _ -> "ok" | Error (k, _) -> k)
          | Lower_untiled ->
            (match Compiler.lower_point (Schedule.create specs.(0)) with
             | exception Lower.Lowering_error _ -> true
             | _ -> false))
        steps)

(* Spawns domains: runs after Test_obs's fork-based test. *)
let domain_suite =
  [ ("compiler-slot", [ QCheck_alcotest.to_alcotest prop_slot_equals_cold ]) ]
