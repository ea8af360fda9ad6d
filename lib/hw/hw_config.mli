(** Machine description of the simulated AI-GPU.

    All rates are per SM clock cycle so the timing simulator and the
    analytical model (paper Table I) share a single unit: cycles. *)

type t = {
  name : string;
  num_sms : int;
  clock_ghz : float;
  tensor_core_flops_per_cycle : int;
  cuda_core_flops_per_cycle : int;
  smem_bytes_per_sm : int;
  smem_bytes_per_tb_max : int;
  registers_per_sm : int;
  registers_per_thread_max : int;
  max_threads_per_sm : int;
  max_tbs_per_sm : int;
  threads_per_warp : int;
  llc_bytes : int;
  dram_bytes_per_cycle : float;
  llc_bytes_per_cycle : float;
  smem_bytes_per_cycle_per_sm : float;
  dram_latency : float;
  llc_latency : float;
  smem_latency : float;
  dram_write_latency : float;
  async_scopes : Alcop_ir.Buffer.scope list;
  scope_synchronized : Alcop_ir.Buffer.scope list;
}

val ampere_a100 : t
(** The paper's evaluation platform (A100-SXM4-40GB)-like machine. *)

val volta_v100 : t
(** Pre-Ampere machine without asynchronous shared-memory copies; pipelining
    legality rule 1 fails for shared-memory buffers on this target. *)

val default : t

val scope_is_async : t -> Alcop_ir.Buffer.scope -> bool
(** Can buffers in this scope be produced by an asynchronous copy? *)

val scope_needs_matching_sync : t -> Alcop_ir.Buffer.scope -> bool
(** Does this scope use scope-based pipeline barriers (paper rule 3)? *)

val cycles_to_us : t -> float -> float
val us_to_cycles : t -> float -> float
(** Test-only: the unit-conversion test round-trips cycles through it. *)

val peak_tensor_tflops : t -> float
