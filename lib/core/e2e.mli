(** End-to-end model evaluation (paper Sec. V-B, Table III): the sum of
    tuned tensor-contraction latencies per compiler plus a fixed
    non-optimized remainder identical across compilers. *)

open Alcop_workloads

type report = {
  model : string;
  tvm_cycles : float;
  xla_cycles : float;
  alcop_cycles : float;
  speedup_over_tvm : float;
  speedup_over_xla : float;
}

val evaluate : ?hw:Alcop_hw.Hw_config.t -> Models.t -> report
