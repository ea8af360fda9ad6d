(** Host reference implementations the interpreter's results are checked
    against. *)

open Alcop_sched

val gemm : Op_spec.t -> a:Tensor.t -> b:Tensor.t -> Tensor.t
(** [C[b,i,j] = sum_k A[b,i,k] * B[b,j,k]], with the spec's optional
    element-wise ops applied to inputs and output. *)

val im2col : Op_spec.conv_shape -> Tensor.t -> Tensor.t
(** [im2col shape image] lowers an [n, ci, h, w] image to the
    [n*oh*ow, ci*kh*kw] matrix whose GEMM against the flattened weights
    equals the convolution; padding reads as zero. *)

val flatten_weights : Op_spec.conv_shape -> Tensor.t -> Tensor.t
(** [co, ci, kh, kw] weights flattened to the GEMM's [co, k] B matrix, in
    the column order {!im2col} uses. *)

val conv2d_direct :
  Op_spec.conv_shape -> image:Tensor.t -> weights:Tensor.t -> Tensor.t
(** Direct convolution, producing the output in the GEMM layout
    [n*oh*ow, co] so it compares against the kernel's C tensor. *)

val inputs_for : Op_spec.t -> Tensor.t * Tensor.t
(** Deterministic pseudo-random input pair for an operator. *)
