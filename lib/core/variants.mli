(** The compilers compared in the paper's evaluation (Sec. V-A): TVM,
    TVM with manual double-buffering, ALCOP without multi-level and/or
    multi-stage pipelining, and full ALCOP. All search the same tiling
    space; they differ in the pipeline depths available and in whether
    prefetching uses cp.async. *)

open Alcop_sched

type t = {
  name : string;
  restriction : Alcop_tune.Space.restriction;
  cp_async : bool;
}

val tvm : t
val tvm_db : t
(** Test-only: sweeps reach it through {!all}; the register-cost test names
    it. *)

val alcop_no_ml_ms : t
(** Bench-only: sweeps reach it through {!all}; perfbench's variant
    ranking and the variant tests name it. *)

val alcop_no_ml : t
val alcop : t
val all : t list

val extra_regs : t -> Op_spec.t -> Alcop_perfmodel.Params.t -> int
(** Bench-only: {!evaluator} applies it internally; perfbench and the
    register-cost test call it directly.
    Register cost of prefetching without cp.async: the in-flight tile lives
    in registers between global load and shared store. *)

val space : t -> Op_spec.t -> Alcop_perfmodel.Params.t array

val evaluator :
  ?hw:Alcop_hw.Hw_config.t -> ?session:Session.t -> t -> Op_spec.t ->
  Alcop_perfmodel.Params.t -> float option
(** Measurement function routed through the compile cache: the shared
    per-hardware session by default, or an explicit [session] (e.g. a
    pass-through one for [--no-cache]). *)

val best_latency :
  ?hw:Alcop_hw.Hw_config.t -> t -> Op_spec.t -> float option
(** Best simulated latency under exhaustive schedule search (the paper's
    evaluation protocol); [None] if nothing in the space launches. *)

val best_point :
  ?hw:Alcop_hw.Hw_config.t -> t -> Op_spec.t ->
  (Alcop_perfmodel.Params.t * float) option
