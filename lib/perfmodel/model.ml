(* The pipeline-aware analytical performance model — paper Table I.

   All times are in SM clock cycles. The structure mirrors the table:

     T_kernel     = T_threadblk * N_threadblk_batch
     T_threadblk  = T_init + T_main_loop + T_epilogue
     T_main_loop  = PipelineLatency(T_smem_load, T_smem_use,
                                    N_smem_loop, N_smem_stage, N_tb_per_SM)
     T_smem_use   = PipelineLatency(T_reg_load, T_compute,
                                    N_reg_loop, N_reg_stage, N_warp_per_tb)

   with the pipeline latency rule of Fig. 9:
     if T_load <= (N_pipe * N_mplx - 1) * T_use then T_use * N_loop
     else (T_load + T_use) * N_loop / N_pipe.

   The model shares the simulator's occupancy calculation (the "simulated
   GPU scheduling policy", Sec. IV-A) but is deliberately coarser than the
   event simulator everywhere else: a square-patch working-set estimate
   instead of exact residency analysis, no wave tail shape, no bank
   conflicts, no issue or launch overhead, no residual perturbation — those
   differences are what the learned cost model captures on top
   (Sec. IV-C). *)

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

(* Table I, "Pipeline Latency Model". *)
let pipeline_latency ~t_load ~t_use ~n_loop ~n_pipe ~n_mplx =
  let n_loop = float_of_int n_loop in
  let n_pipe = float_of_int (max 1 n_pipe) in
  let n_mplx = float_of_int (max 1 n_mplx) in
  if t_load <= ((n_pipe *. n_mplx) -. 1.0) *. t_use then
    (t_use *. n_loop, false)
  else (((t_load +. t_use) *. n_loop /. n_pipe), true)

(* Pipelining and multiplexing hide *latency*; the bandwidth-service share
   of each load occupies the memory system no matter how many stages or
   parallel workers exist, so it floors the steady-state loop latency. *)
let pipeline_latency_bw ~t_load_latency ~t_load_bw ~t_use ~n_loop ~n_pipe
    ~n_mplx =
  let t, load_bound =
    pipeline_latency ~t_load:(t_load_latency +. t_load_bw) ~t_use ~n_loop
      ~n_pipe ~n_mplx
  in
  let floor = t_load_bw *. float_of_int n_loop in
  if floor > t then (floor, true) else (t, load_bound)

let predict (hw : Alcop_hw.Hw_config.t) (spec : Op_spec.t) (p : Params.t) =
  let elem_bytes = Alcop_ir.Dtype.size_bytes spec.Op_spec.dtype in
  let tiling = p.Params.tiling in
  match Params.launch hw elem_bytes p with
  | Error f -> Error f
  | Ok occ ->
    let total_tbs = Tiling.threadblocks tiling spec in
    (* Resident threadblocks per SM: bounded by the occupancy *capacity*
       and by what the grid actually supplies - a 16-threadblock kernel on
       108 SMs multiplexes nothing regardless of how many threadblocks
       would fit (part of the "simulated GPU scheduling policy"). *)
    let tbs_per_sm =
      min occ.Alcop_gpusim.Occupancy.tbs_per_sm
        (max 1
           ((total_tbs + hw.Alcop_hw.Hw_config.num_sms - 1)
            / hw.Alcop_hw.Hw_config.num_sms))
    in
    let batch_slots = tbs_per_sm * hw.Alcop_hw.Hw_config.num_sms in
    let n_batches = (total_tbs + batch_slots - 1) / batch_slots in
    let tbs_per_batch = min total_tbs batch_slots in
    let warps = Tiling.warps tiling in
    (* Computation Latency Model: one register-loop (ki) iteration of all
       warps of one threadblock. *)
    let flops_one_reg_loop =
      2 * tiling.Tiling.tb_m * tiling.Tiling.tb_n * tiling.Tiling.warp_k
    in
    let util =
      Float.min 1.0 (float_of_int (warps * tbs_per_sm) /. 4.0)
    in
    let t_compute =
      float_of_int flops_one_reg_loop
      /. (float_of_int hw.Alcop_hw.Hw_config.tensor_core_flops_per_cycle *. util)
    in
    (* Memory Latency Model: T_smem_load = MAX(T_LLC, T_DRAM). *)
    let bytes_one_smem_loop =
      (tiling.Tiling.tb_m + tiling.Tiling.tb_n) * tiling.Tiling.tb_k * elem_bytes
    in
    let grid_z = spec.Op_spec.batch * tiling.Tiling.split_k in
    let grid_m = spec.Op_spec.m / tiling.Tiling.tb_m in
    let grid_n = spec.Op_spec.n / tiling.Tiling.tb_n in
    (* Working-set estimate of the threadblock batch (paper's
       Bytes_threadblk_batch_workset): the model assumes the batch covers a
       square patch of the tile grid, a deliberately coarser picture than
       the simulator's exact row-major residency — the analytical model
       cannot capture the memory system thoroughly (Sec. IV-C), and the
       difference is residual for the learned model. *)
    let miss_rate =
      let r = max 1 tbs_per_batch in
      let per_z = max 1 (grid_m * grid_n) in
      let distinct_z = min grid_z (((r + per_z) - 1) / per_z) in
      let r_in_z = min r per_z in
      let side = int_of_float (ceil (sqrt (float_of_int r_in_z))) in
      let distinct_i = min grid_m side in
      let distinct_j = min grid_n (((r_in_z + distinct_i) - 1) / distinct_i) in
      let unique =
        distinct_z
        * ((distinct_i * tiling.Tiling.tb_m) + (distinct_j * tiling.Tiling.tb_n))
        * tiling.Tiling.tb_k * elem_bytes
      in
      let total = bytes_one_smem_loop * r in
      if unique * 4 > hw.Alcop_hw.Hw_config.llc_bytes then 1.0
      else Float.min 1.0 (float_of_int unique /. float_of_int total)
    in
    let t_llc_bw =
      float_of_int (bytes_one_smem_loop * tbs_per_batch)
      /. hw.Alcop_hw.Hw_config.llc_bytes_per_cycle
    in
    let unique_bytes_one_loop =
      miss_rate *. float_of_int (bytes_one_smem_loop * tbs_per_batch)
    in
    let t_dram_bw =
      unique_bytes_one_loop /. hw.Alcop_hw.Hw_config.dram_bytes_per_cycle
    in
    let t_llc_load = hw.Alcop_hw.Hw_config.llc_latency +. t_llc_bw in
    let t_dram_load = hw.Alcop_hw.Hw_config.dram_latency +. t_dram_bw in
    let t_smem_load = Float.max t_llc_load t_dram_load in
    let t_smem_load_latency =
      Float.max hw.Alcop_hw.Hw_config.llc_latency
        (hw.Alcop_hw.Hw_config.dram_latency
         *. miss_rate)
    in
    let t_smem_load_bw = Float.max t_llc_bw t_dram_bw in
    (* Register-loop load: A and B fragments of all warps of the
       threadblock, served by the SM's shared-memory throughput (shared by
       the threadblocks resident on the SM). *)
    let bytes_one_reg_loop =
      (tiling.Tiling.tb_m + tiling.Tiling.tb_n) * tiling.Tiling.warp_k * elem_bytes
    in
    let t_reg_bw =
      float_of_int (bytes_one_reg_loop * tbs_per_sm)
      /. hw.Alcop_hw.Hw_config.smem_bytes_per_cycle_per_sm
    in
    let t_reg_load = hw.Alcop_hw.Hw_config.smem_latency +. t_reg_bw in
    (* Inner pipeline: register loading vs tensor-core compute. *)
    let n_reg_loop = Tiling.ki_iters tiling in
    let t_smem_use, _ =
      pipeline_latency_bw ~t_load_latency:hw.Alcop_hw.Hw_config.smem_latency
        ~t_load_bw:t_reg_bw ~t_use:t_compute ~n_loop:n_reg_loop
        ~n_pipe:p.Params.reg_stages ~n_mplx:warps
    in
    (* The SM's tensor cores are shared by its resident threadblocks: the
       aggregate compute service floors the inner loop the same way
       bandwidth floors the loads. *)
    let t_compute_aggregate =
      float_of_int (flops_one_reg_loop * tbs_per_sm)
      /. float_of_int hw.Alcop_hw.Hw_config.tensor_core_flops_per_cycle
    in
    let t_smem_use =
      Float.max t_smem_use (float_of_int n_reg_loop *. t_compute_aggregate)
    in
    (* Outer pipeline: shared-memory loading vs the whole inner loop. *)
    let n_smem_loop = Tiling.k_iters tiling spec in
    let t_main_loop, smem_bound =
      pipeline_latency_bw ~t_load_latency:t_smem_load_latency
        ~t_load_bw:t_smem_load_bw ~t_use:t_smem_use ~n_loop:n_smem_loop
        ~n_pipe:p.Params.smem_stages ~n_mplx:tbs_per_sm
    in
    let t_init = t_smem_load +. t_reg_load in
    (* Epilogue Model (after DELTA): write the output tile back. *)
    let bytes_output_tile =
      tiling.Tiling.tb_m * tiling.Tiling.tb_n * elem_bytes
    in
    let t_epilogue =
      hw.Alcop_hw.Hw_config.dram_write_latency
      +. (float_of_int (bytes_output_tile * tbs_per_batch)
          /. hw.Alcop_hw.Hw_config.dram_bytes_per_cycle)
    in
    let t_threadblk = t_init +. t_main_loop +. t_epilogue in
    let cycles =
      (t_threadblk *. float_of_int n_batches)
      +. Reduce_cost.cycles hw spec ~split_k:tiling.Tiling.split_k
    in
    Ok
      { cycles; t_threadblk; t_init; t_main_loop; t_epilogue; t_smem_load;
        t_smem_use; t_reg_load; t_compute; n_batches; tbs_per_sm; smem_bound }

let predict_cycles hw spec p =
  match predict hw spec p with
  | Ok pr -> Some pr.cycles
  | Error _ -> None

(* First-order prefetch-slack prediction from Table I terms: a batch
   loaded at outer iteration [k] is consumed at [k + stages - 1], so the
   time budget the pipeline grants the copy is [(stages - 1) * t_smem_use]
   against a [t_smem_load] service-plus-latency cost. Positive = the
   model expects the copy hidden; negative = expected exposed latency per
   steady-state iteration. The observatory compares this against the
   simulator's measured per-wait slack (doc/pipeview.md). *)
let predicted_smem_slack pr ~smem_stages =
  (float_of_int (max 0 (smem_stages - 1)) *. pr.t_smem_use) -. pr.t_smem_load
