(** The pipeline-aware analytical performance model — paper Table I.

    All times in SM cycles. Shares the simulator's occupancy and locality
    calculations but is deliberately coarser than the event simulator; the
    difference is what the learned cost model captures (paper Sec. IV-C). *)

open Alcop_sched

type prediction = {
  cycles : float;
  t_threadblk : float;
  t_init : float;
  t_main_loop : float;
  t_epilogue : float;
  t_smem_load : float;
  t_smem_use : float;
  t_reg_load : float;
  t_compute : float;
  n_batches : int;
  tbs_per_sm : int;
  smem_bound : bool;  (** main loop limited by loading, not compute *)
}

type failure = Alcop_gpusim.Occupancy.failure

val pipeline_latency :
  t_load:float -> t_use:float -> n_loop:int -> n_pipe:int -> n_mplx:int ->
  float * bool
(** Test-only: tests check Table I's rule directly.
    Table I's "Pipeline Latency Model" (Fig. 9): loop latency and whether
    loading is the bottleneck. *)

val predict : Alcop_hw.Hw_config.t -> Op_spec.t -> Params.t -> (prediction, failure) result

val predict_cycles : Alcop_hw.Hw_config.t -> Op_spec.t -> Params.t -> float option
(** [None] when the schedule cannot launch. *)

val predicted_smem_slack : prediction -> smem_stages:int -> float
(** Table I's first-order prefetch-slack estimate for the shared-memory
    pipeline: [(stages - 1) * t_smem_use - t_smem_load]. Positive means
    the model expects async copies fully hidden; negative is the exposed
    latency it predicts per steady-state iteration. Compared against the
    simulator's measured slack by [alcop explain-pipeline]. *)
