(** XLA-like baseline compiler (paper Sec. V-B): library dispatch for plain
    MatMul/Conv2D, own unpipelined heuristic codegen plus
    layout-normalization copies for batched matmuls. *)

open Alcop_sched

val latency : ?hw:Alcop_hw.Hw_config.t -> Op_spec.t -> float option
