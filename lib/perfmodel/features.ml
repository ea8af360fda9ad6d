(* Feature extraction for the learned (gradient-boosted trees) cost model:
   raw schedule knobs plus cheap derived structure. Matches AutoTVM's
   knob-plus-context featurization in spirit. *)

open Alcop_sched

let log2f x = if x <= 0.0 then 0.0 else Float.log x /. Float.log 2.0

let names = [
  "log_tb_m"; "log_tb_n"; "log_tb_k";
  "log_warp_m"; "log_warp_n"; "log_warp_k";
  "smem_stages"; "reg_stages"; "swizzle";
  "warps"; "tbs_per_sm"; "log_total_tbs"; "waves"; "tail_frac";
  "log_smem_bytes"; "regs_per_thread";
  "k_iters"; "ki_iters"; "miss_rate"; "split_k";
  "log_m"; "log_n"; "log_k"; "log_batch";
]

let dim = List.length names

let extract (hw : Alcop_hw.Hw_config.t) (spec : Op_spec.t) (p : Params.t) =
  let elem_bytes = Alcop_ir.Dtype.size_bytes spec.Op_spec.dtype in
  let tiling = p.Params.tiling in
  let warps = Tiling.warps tiling in
  let smem_bytes = Params.smem_bytes_per_tb p elem_bytes in
  let regs = Params.regs_per_thread p in
  let occ =
    match Params.launch hw elem_bytes p with
    | Ok o -> o.Alcop_gpusim.Occupancy.tbs_per_sm
    | Error _ -> 0
  in
  let total_tbs = Tiling.threadblocks tiling spec in
  let slots = max 1 (occ * hw.Alcop_hw.Hw_config.num_sms) in
  let waves = (total_tbs + slots - 1) / slots in
  let tail =
    let r = total_tbs mod slots in
    if r = 0 then 1.0 else float_of_int r /. float_of_int slots
  in
  let loc =
    Alcop_gpusim.Locality.compute hw
      ~grid_m:(spec.Op_spec.m / tiling.Tiling.tb_m)
      ~grid_n:(spec.Op_spec.n / tiling.Tiling.tb_n)
      ~grid_z:(spec.Op_spec.batch * tiling.Tiling.split_k)
      ~tb_m:tiling.Tiling.tb_m
      ~tb_n:tiling.Tiling.tb_n ~tb_k:tiling.Tiling.tb_k ~elem_bytes
      ~resident_tbs:(min total_tbs slots)
  in
  [| log2f (float_of_int tiling.Tiling.tb_m);
     log2f (float_of_int tiling.Tiling.tb_n);
     log2f (float_of_int tiling.Tiling.tb_k);
     log2f (float_of_int tiling.Tiling.warp_m);
     log2f (float_of_int tiling.Tiling.warp_n);
     log2f (float_of_int tiling.Tiling.warp_k);
     float_of_int p.Params.smem_stages;
     float_of_int p.Params.reg_stages;
     (if p.Params.swizzle then 1.0 else 0.0);
     float_of_int warps;
     float_of_int occ;
     log2f (float_of_int total_tbs);
     float_of_int waves;
     tail;
     log2f (float_of_int smem_bytes);
     float_of_int regs;
     float_of_int (Tiling.k_iters tiling spec);
     float_of_int (Tiling.ki_iters tiling);
     loc.Alcop_gpusim.Locality.miss_rate;
     float_of_int tiling.Tiling.split_k;
     log2f (float_of_int spec.Op_spec.m);
     log2f (float_of_int spec.Op_spec.n);
     log2f (float_of_int spec.Op_spec.k);
     log2f (float_of_int spec.Op_spec.batch);
  |]
