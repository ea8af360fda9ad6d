(** The schedule: a dataflow graph plus transformation state (tiling,
    pipelining hints, inlining, swizzle), with the ordering rules of paper
    Sec. II-B enforced. *)

open Alcop_ir

type action =
  | Did_cache_read of string
  | Did_tile
  | Did_pipeline of string
  | Did_inline of string

type error = {
  primitive : string;
  reason : string;
}

exception Schedule_error of error

val pp_error : Format.formatter -> error -> unit

type t = {
  spec : Op_spec.t;
  graph : Dataflow.t;
  tiling : Tiling.t option;
  pipeline_hints : Alcop_pipeline.Hints.t;
  swizzle : bool;
  log : action list;  (** most recent first *)
}

val create : Op_spec.t -> t

val cache_read : t -> string -> Buffer.scope -> t * string
(** Insert a cache-read stage. @raise Schedule_error if applied after
    pipelining (ordering rule). *)

val tile : t -> Tiling.t -> t
(** @raise Schedule_error if already tiled or tiling is invalid. *)

val set_swizzle : t -> bool -> t

val pipeline : ?inner_fuse:bool -> t -> string -> stages:int -> t
(** Attach the pipelining primitive to a buffer stage. Surface legality
    (rule 1, ordering against tiling) is checked here; rules 2 and 3 run on
    the lowered loop nest inside the pipelining pass.
    @raise Schedule_error on violation. *)

val inline : t -> string -> t
(** Inline an element-wise stage (paper Fig. 5). If its consumer buffer is
    pipelined, the op is fused into the downstream synchronous copy
    (case 2); otherwise it fuses into the consumer's own copy, making it
    synchronous (case 1 — a later [pipeline] of that buffer fails rule 1).
    @raise Schedule_error when no legal fusion point exists. *)

type auto_decision =
  | Pipelined of int
  | Skipped of string

val auto_pipeline :
  ?inner_fuse:bool ->
  hw:Alcop_hw.Hw_config.t ->
  smem_stages:int ->
  reg_stages:int ->
  t ->
  t * (string * auto_decision) list
(** Automatic pipelining (paper Sec. II): attach the pipelining primitive
    to every cache-read buffer the legality rules allow on the given
    hardware, with the per-level stage counts; returns the per-buffer
    decisions. Degrades gracefully on hardware without asynchronous copies
    (e.g. pre-Ampere: shared-memory buffers are skipped under rule 1 while
    register pipelining still applies). *)

val tiled_gemm : Op_spec.t -> Tiling.t -> t
(** The stage-free base of the canonical GPU GEMM schedule: two-level
    cache reads on both inputs ([A -> A_sh -> A_reg], likewise [B]; the
    chain starts at [A_f]/[B_f] behind an element-wise producer), then
    tiling. It depends only on the operator and the tiling, so every
    stage-count point of one tiling shares it.
    @raise Schedule_error if the tiling is invalid for the operator. *)

val pipeline_gemm :
  ?smem_stages:int -> ?reg_stages:int -> ?inner_fuse:bool ->
  ?inline_elemwise:bool -> t -> t
(** The per-point step on a {!tiled_gemm} base: pipelining at the
    requested levels (a stage count of 1 disables that level), then
    best-effort inlining of element-wise input producers. Inlining comes
    last because its outcome depends on which copies are pipelined
    (Fig. 5): the result shares the base's dataflow graph physically
    exactly when nothing was inlined.
    @raise Schedule_error when a pipelining primitive is refused. *)

val default_gemm :
  ?smem_stages:int -> ?reg_stages:int -> ?inner_fuse:bool ->
  ?inline_elemwise:bool -> Op_spec.t -> Tiling.t -> t
(** The canonical GPU GEMM schedule: {!pipeline_gemm} of {!tiled_gemm}. *)
