(** Operator specifications.

    Every pipelining-applicable operator (MatMul, batched MatMul, Conv2D) is
    expressed as a (possibly batched) GEMM:
    [C[b,i,j] = sum_k A[b,i,k] * B[b,j,k]]. Conv2D goes through implicit
    GEMM (im2col). *)

open Alcop_ir

type conv_shape = {
  cn : int;
  ci : int;
  ch : int;
  cw : int;
  co : int;
  ckh : int;
  ckw : int;
  stride : int;
  pad : int;
}

type kind =
  | Matmul
  | Batched_matmul
  | Conv2d of conv_shape

type t = {
  name : string;
  kind : kind;
  batch : int;
  m : int;
  n : int;
  k : int;
  dtype : Dtype.t;
  a_op : string option;    (** element-wise producer on input A (Fig. 5) *)
  b_op : string option;
  epilogue : string option;
}

val matmul :
  ?dtype:Dtype.t -> ?a_op:string -> ?b_op:string -> ?epilogue:string ->
  name:string -> m:int -> n:int -> k:int -> unit -> t

val batched_matmul :
  ?dtype:Dtype.t -> ?a_op:string -> ?b_op:string -> ?epilogue:string ->
  name:string -> batch:int -> m:int -> n:int -> k:int -> unit -> t

val conv_out_dim : dim:int -> kdim:int -> stride:int -> pad:int -> int

val conv2d : ?dtype:Dtype.t -> ?epilogue:string -> name:string -> conv_shape -> t
(** Derives the implicit-GEMM dimensions M = N·OH·OW, N = OC, K = IC·KH·KW. *)

val flops : t -> int
val footprint_bytes : t -> int
val arithmetic_intensity : t -> float
(** Test-only: tests check operator shapes with it. *)

val a_shape : t -> int list
val b_shape : t -> int list
val c_shape : t -> int list

val pp : Format.formatter -> t -> unit
