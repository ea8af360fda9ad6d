(* The bottleneck-based baseline performance model the paper compares
   against in Sec. V-D: the maximum of computation time, shared-memory
   loading time and device-memory loading time, assuming full utilization
   of throughput and bandwidth. It aggregates all compute into one unit
   (so SM occupancy does not matter to it) and is agnostic to latency
   hiding (so pipeline stage counts do not matter to it) — the two
   oversimplifications the paper calls out. *)

open Alcop_sched

let predict_cycles (hw : Alcop_hw.Hw_config.t) (spec : Op_spec.t) (p : Params.t) =
  let elem_bytes = Alcop_ir.Dtype.size_bytes spec.Op_spec.dtype in
  let tiling = p.Params.tiling in
  (* Reject only what cannot exist at all: a threadblock exceeding
     per-threadblock hardware bounds. *)
  match Params.launch hw elem_bytes p with
  | Error _ -> None
  | Ok _ ->
    let total_tbs = Tiling.threadblocks tiling spec in
    let k_iters = Tiling.k_iters tiling spec in
    (* Full-utilization computation time. *)
    let flops = Op_spec.flops spec in
    let t_compute =
      float_of_int flops
      /. float_of_int
           (hw.Alcop_hw.Hw_config.tensor_core_flops_per_cycle
            * hw.Alcop_hw.Hw_config.num_sms)
    in
    (* Shared-memory traffic: every threadblock stages its A and B tiles
       through shared memory once per K iteration, then reads them into
       registers ki_iters times. *)
    let smem_bytes_per_tb =
      (tiling.Tiling.tb_m + tiling.Tiling.tb_n) * tiling.Tiling.tb_k
      * elem_bytes * k_iters * 2
    in
    let t_smem =
      float_of_int (smem_bytes_per_tb * total_tbs)
      /. (hw.Alcop_hw.Hw_config.smem_bytes_per_cycle_per_sm
          *. float_of_int hw.Alcop_hw.Hw_config.num_sms)
    in
    (* Device-memory traffic: global loads of all threadblocks (agnostic to
       inter-threadblock reuse timing, but capped by compulsory traffic)
       plus the output write-back. *)
    let load_bytes_per_tb =
      (tiling.Tiling.tb_m + tiling.Tiling.tb_n) * tiling.Tiling.tb_k
      * elem_bytes * k_iters
    in
    let compulsory = Op_spec.footprint_bytes spec in
    let dram_bytes =
      max compulsory (load_bytes_per_tb * total_tbs / 4)
      + (spec.Op_spec.batch * spec.Op_spec.m * spec.Op_spec.n * elem_bytes)
    in
    let t_dram =
      float_of_int dram_bytes /. hw.Alcop_hw.Hw_config.dram_bytes_per_cycle
    in
    Some (Float.max t_compute (Float.max t_smem t_dram))
