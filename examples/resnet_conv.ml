(* Convolution through implicit GEMM, pipelined.

   The paper applies pipelining to Conv2D by scheduling it as an implicit
   GEMM (im2col). This example builds a small ResNet-style 3x3 convolution,
   verifies the pipelined kernel end-to-end against a direct convolution
   (padding and all), and then times a ResNet-50 stage convolution under the
   TVM baseline and ALCOP. *)

open Alcop
open Alcop_sched
open Alcop_gpusim

let hw = Alcop_hw.Hw_config.default

let () =
  (* --- correctness: small conv, direct reference --- *)
  let shape =
    { Op_spec.cn = 2; ci = 16; ch = 8; cw = 8; co = 32; ckh = 3; ckw = 3;
      stride = 1; pad = 1 }
  in
  let spec = Op_spec.conv2d ~name:"example_conv" shape in
  Format.printf "small conv as implicit GEMM: %a@." Op_spec.pp spec;
  let tiling =
    Tiling.make ~tb_m:32 ~tb_n:32 ~tb_k:16 ~warp_m:16 ~warp_n:16 ~warp_k:16 ()
  in
  let params =
    Alcop_perfmodel.Params.make ~tiling ~smem_stages:3 ~reg_stages:2 ()
  in
  let compiled =
    match Compiler.compile ~hw params spec with
    | Ok c -> c
    | Error e -> failwith (Compiler.error_to_string e)
  in
  let image = Tensor.random ~seed:11 [ shape.Op_spec.cn; shape.Op_spec.ci;
                                       shape.Op_spec.ch; shape.Op_spec.cw ] in
  let weights = Tensor.random ~seed:12 [ shape.Op_spec.co; shape.Op_spec.ci;
                                         shape.Op_spec.ckh; shape.Op_spec.ckw ] in
  let a = Reference.im2col shape image in
  let b = Reference.flatten_weights shape weights in
  let outputs =
    Interp.run ~groups:compiled.Compiler.groups compiled.Compiler.kernel
      ~inputs:[ ("A", a); ("B", b) ]
  in
  let got = snd (List.hd outputs) in
  let expected = Reference.conv2d_direct shape ~image ~weights in
  Format.printf "pipelined conv vs direct conv: max |err| = %.3e (%s)@."
    (Tensor.max_abs_diff got expected)
    (if Tensor.allclose ~atol:1e-9 got expected then "OK" else "MISMATCH");

  (* --- performance: a ResNet-50 stage conv, TVM vs ALCOP --- *)
  let big =
    Op_spec.conv2d ~name:"rn50_stage3"
      { Op_spec.cn = 16; ci = 128; ch = 28; cw = 28; co = 128; ckh = 3;
        ckw = 3; stride = 1; pad = 1 }
  in
  Format.printf "@.timing %a@." Op_spec.pp big;
  let report v =
    match Variants.best_latency ~hw v big with
    | Some c ->
      Format.printf "  %-16s %10.0f cycles (%.1f us)@." v.Variants.name c
        (Alcop_hw.Hw_config.cycles_to_us hw c)
    | None -> Format.printf "  %-16s no viable schedule@." v.Variants.name
  in
  report Variants.tvm;
  report Variants.alcop_no_ml;
  report Variants.alcop
