(* Machine description of the simulated AI-GPU.

   Numbers default to an NVIDIA A100-SXM4-40GB-like configuration (the
   paper's evaluation platform). All rates are expressed per SM clock cycle
   so the timing simulator and the analytical model (paper Table I) work in
   a single unit: cycles. *)

type t = {
  name : string;
  num_sms : int;
  clock_ghz : float;
  (* Compute *)
  tensor_core_flops_per_cycle : int;
      (** fp16 tensor-core FLOPs per SM per cycle (mul+add counted as 2). *)
  cuda_core_flops_per_cycle : int;
      (** fp32 CUDA-core FLOPs per SM per cycle; used for element-wise ops. *)
  (* Memory capacities *)
  smem_bytes_per_sm : int;
      (** shared memory an SM can allocate across resident threadblocks. *)
  smem_bytes_per_tb_max : int;
      (** largest shared-memory allocation a single threadblock may make. *)
  registers_per_sm : int;  (** 32-bit registers per SM. *)
  registers_per_thread_max : int;
  max_threads_per_sm : int;
  max_tbs_per_sm : int;
  threads_per_warp : int;
  llc_bytes : int;  (** L2 cache capacity, shared by all SMs. *)
  (* Memory bandwidths, bytes per cycle, aggregate over the device *)
  dram_bytes_per_cycle : float;
  llc_bytes_per_cycle : float;
  smem_bytes_per_cycle_per_sm : float;
  (* Round-trip latencies in cycles (paper Table I's LAT terms) *)
  dram_latency : float;
  llc_latency : float;
  smem_latency : float;
  dram_write_latency : float;
  (* Which buffer scopes support asynchronous production (paper Sec. II-A,
     rule 1). Ampere's cp.async covers shared memory; register buffers are
     produced by ordinary loads that software pipelining issues early. *)
  async_scopes : Alcop_ir.Buffer.scope list;
  scope_synchronized : Alcop_ir.Buffer.scope list;
      (** scopes whose pipeline barriers are scope-based (paper rule 3):
          all pipelined buffers in such a scope share one barrier object,
          so their synchronization positions must match. *)
}

let ampere_a100 = {
  name = "sim-A100-SXM4-40GB";
  num_sms = 108;
  clock_ghz = 1.41;
  (* 312 TFLOPS fp16 dense / 108 SMs / 1.41 GHz = 2048 FLOP/SM/cycle *)
  tensor_core_flops_per_cycle = 2048;
  cuda_core_flops_per_cycle = 128;
  smem_bytes_per_sm = 164 * 1024;
  smem_bytes_per_tb_max = 160 * 1024;
  registers_per_sm = 65536;
  registers_per_thread_max = 255;
  max_threads_per_sm = 2048;
  max_tbs_per_sm = 32;
  threads_per_warp = 32;
  llc_bytes = 40 * 1024 * 1024;
  (* 1555 GB/s HBM2e / 1.41 GHz = 1103 B/cycle aggregate *)
  dram_bytes_per_cycle = 1103.0;
  (* ~5 TB/s L2 *)
  llc_bytes_per_cycle = 3550.0;
  (* 128 B/cycle/SM shared-memory throughput *)
  smem_bytes_per_cycle_per_sm = 128.0;
  dram_latency = 380.0;
  llc_latency = 170.0;
  smem_latency = 27.0;
  dram_write_latency = 350.0;
  async_scopes = [ Alcop_ir.Buffer.Shared; Alcop_ir.Buffer.Register ];
  scope_synchronized = [ Alcop_ir.Buffer.Shared ];
}

(* A pre-Ampere (Volta-like) configuration: no asynchronous shared-memory
   copy. On this target the smem-level pipelining legality rule 1 fails,
   which is why the paper evaluates on Ampere only. Used in tests. *)
let volta_v100 = {
  ampere_a100 with
  name = "sim-V100";
  num_sms = 80;
  clock_ghz = 1.53;
  tensor_core_flops_per_cycle = 1024;
  smem_bytes_per_sm = 96 * 1024;
  smem_bytes_per_tb_max = 96 * 1024;
  llc_bytes = 6 * 1024 * 1024;
  dram_bytes_per_cycle = 588.0;
  llc_bytes_per_cycle = 1800.0;
  async_scopes = [ Alcop_ir.Buffer.Register ];
}

let default = ampere_a100

(* [List.exists] with the scope as an argument rather than in a partial
   application: the compile path asks once per hinted buffer and group. *)
let rec has_scope scope = function
  | [] -> false
  | s :: rest -> Alcop_ir.Buffer.scope_equal s scope || has_scope scope rest

let scope_is_async t scope = has_scope scope t.async_scopes

let scope_needs_matching_sync t scope = has_scope scope t.scope_synchronized

let cycles_to_us t cycles = cycles /. (t.clock_ghz *. 1000.0)

let us_to_cycles t us = us *. t.clock_ghz *. 1000.0

let peak_tensor_tflops t =
  float_of_int (t.tensor_core_flops_per_cycle * t.num_sms) *. t.clock_ghz /. 1000.0
