(** Discrete-event timing simulator.

    One "wave" simulates the co-resident threadblocks of one SM replaying
    the kernel's event trace while contending for DRAM bandwidth, LLC
    bandwidth, shared-memory throughput and the tensor cores. Kernel
    latency is wave latency times the number of threadblock waves (the
    paper's threadblock-batch model) plus the partial tail wave and launch
    overhead.

    Deliberately richer than the analytical model of paper Table I — cache
    locality, wave quantization, bank conflicts, issue/launch overhead and
    a deterministic residual perturbation — so learned cost models retain
    an edge over the analytical model alone (paper Sec. IV-C). *)

type config = {
  hw : Alcop_hw.Hw_config.t;
  residents : int;       (** threadblocks resident on the simulated SM *)
  active_sms : int;      (** SMs sharing device bandwidth *)
  warps_per_tb : int;
  miss_rate : float;     (** fraction of global-load bytes paid in DRAM *)
  smem_penalty : float;  (** bank-conflict multiplier *)
  issue_overhead : float;
  barrier_groups : string list;
      (** scope-synchronized pipeline groups whose waits act as hoisting
          barriers, like [Barrier] itself *)
}

type wave_result = {
  cycles : float;
  compute_busy : float;
  dram_busy : float;
  llc_busy : float;
  smem_busy : float;
  stall_compute : float;
  stall_dram_bw : float;
  stall_llc_bw : float;
  stall_smem_port : float;
  stall_sync_wait : float;
  stall_issue : float;
      (** [stall_*]: the critical threadblock's ({!critical_tb}) cycles per
          {!stall_class} over [cycles], [0.] when [cycles] is [0.]. Every
          wave computes them, recorded or not. *)
}

(** {1 Stall attribution}

    Every advance of a threadblock's simulated clock carries a stall
    class. The intervals recorded for one threadblock are contiguous and
    non-overlapping, so per-class totals sum exactly to that
    threadblock's finish time (the telescoping invariant [Profile] and
    the tests rely on). *)

type stall_class =
  | Compute    (** tensor cores doing useful work (incl. queueing for them) *)
  | Dram_bw    (** waiting on loads dominated by DRAM bandwidth/queueing *)
  | Llc_bw     (** waiting on loads dominated by LLC bandwidth/queueing *)
  | Smem_port  (** waiting on shared-memory throughput (incl. conflicts) *)
  | Sync_wait  (** barriers, drains, and pure-latency waits *)
  | Issue      (** fixed per-event issue overhead *)
  | Launch     (** kernel launch overhead — never inside a wave *)

val stall_class_name : stall_class -> string

val all_stall_classes : stall_class list

val stall_class_index : stall_class -> int
(** Position of the class in {!all_stall_classes}. *)

(** {1 Recorded replay}

    A recorded wave keeps every observation the engine makes, in engine
    order. [tb] is the threadblock index within the wave; [group] is an
    index into [Trace.program.groups], [-1] when there is none. *)

type event =
  | Interval of {
      tb : int;
      cls : stall_class;
      group : int;  (** the pipeline group whose wait caused it, or [-1] *)
      ordinal : int;
          (** consumption ordinal of that wait (stage slot = ordinal mod
              stages); [-1] for intervals not tied to a batch *)
      start : float;
      stop : float;
    }
      (** one non-empty advance of the threadblock's clock; a
          threadblock's intervals are contiguous from 0 to its finish *)
  | Flight of {
      tb : int;
      group : int;
      batch : int;  (** batch ordinal within the group; [-1] when ungrouped *)
      async : bool;
      level : Trace.level;
      bytes : int;
      issue : float;
      landed : float;
    }  (** one load, from issue to landing *)
  | Fill of {
      tb : int;
      group : int;
      batch : int;  (** batch ordinal the commit closes *)
      commit : float;  (** cycle the commit issues *)
      ready : float;
          (** cycle the batch's last async load lands ([0.] when the
              batch contains no loads) *)
    }
  | Consume of {
      tb : int;
      group : int;
      ordinal : int;  (** consumption ordinal of the wait *)
      consumed : int;
          (** committed batch index it consumes; [-1] when the wait fired
              before any commit *)
      start : float;
          (** cycle the wait begins; prefetch slack is [start -. ready] —
              negative means the consumer stalled (exposed latency) *)
      ready : float;  (** cycle the consumed batch landed *)
      finish : float;  (** [max start ready] *)
    }
      (** every pipeline wait, whether or not it stalled: positive
          prefetch slack produces no [Interval] but shows here *)
  | Barrier_wait of { tb : int; start : float; finish : float }
  | Drain of { tb : int; start : float; finish : float }
      (** end-of-program wait for outstanding loads/stores; [finish] is
          the threadblock's completion time *)

type recording
(** The events of one simulated wave, stored in flat columns: recording
    allocates nothing per event. *)

val recording : unit -> recording
(** An empty recording, to pass to {!simulate_program}. *)

val fold : ?tb:int -> ('a -> event -> 'a) -> 'a -> recording -> 'a
(** Fold over the recorded events in engine order; with [tb], over the
    events of that threadblock only. *)

val finish_times : recording -> float array
(** Per threadblock, the finish time of its [Drain]. *)

val critical_tb : recording -> int
(** The critical threadblock: the lowest index among the maximal finish
    times. *)

val simulate_program :
  ?recording:recording -> config -> Trace.program -> wave_result
(** Test-only: tests replay hand-built programs; the library goes through
    {!run}.
    Replay one wave of a packed program. This is the engine: flat
    array-backed scoreboard state drawn from a domain-local scratch arena,
    O(1) allocation per wave. The stall attribution of the result is kept
    either way. With [?recording], first empties it, then writes every
    observation of the wave into it. *)

val with_wave_reuse : (unit -> 'a) -> 'a
(** Bench-only: [f ()]. The simulator has no wave-result cache; the name
    stays only because perfbench/ calls it, and nothing else may. *)

val wave_reuse_stats : unit -> int * int
(** Bench-only: always [(0, 0)]. The simulator has no wave-result cache;
    the name stays only because perfbench/ reads its
    [timing.wave_reuse_*] counts from it, and nothing else may. *)

val wave_cache_clear : unit -> unit
(** Bench-only: does nothing. The simulator has no wave-result cache; the
    name stays only because perfbench/ calls it, and nothing else may. *)

type request = {
  hw : Alcop_hw.Hw_config.t;
  program : Trace.program;
  total_tbs : int;
  warps_per_tb : int;
  occupancy : Occupancy.t;
      (** the launch verdict: the compiler decides it once, before
          lowering, and the simulator quantizes waves by it *)
  grid_m : int;
  grid_n : int;
  grid_z : int;
  tb_m : int;
  tb_n : int;
  tb_k : int;
  elem_bytes : int;
  swizzle : bool;
  jitter_key : int;
  barrier_groups : string list;
}

type kernel_timing = {
  total_cycles : float;
  microseconds : float;
  n_waves : int;
  tbs_per_sm : int;
  occupancy_limiter : string;
  wave_cycles : float;
  tail_cycles : float;
  miss_rate : float;
  wave_busy : wave_result option;
      (** busy breakdown and stall fractions of the representative wave
          (full wave when one exists, else the tail wave); [None] for an
          empty trace *)
}

val compute_utilization : kernel_timing -> float
(** Tensor-core busy fraction of the representative wave, at most 1. *)

val publish_gauges : kernel_timing -> unit
(** Emit the [timing.*] gauges: the representative wave's busy fractions
    ([timing.busy.*]) and stall fractions ([timing.stall.<class>]), unless
    it has no cycles, then [timing.tbs_per_sm], [timing.n_waves] and
    [timing.miss_rate]. {!run} emits them, and a session serving a stored
    evaluation re-emits them from its record. *)

val launch_overhead_cycles : float

val jitter : int -> float
(** Test-only: the DES tests check the residual bounds directly.
    Deterministic residual multiplier in [0.97, 1.03], keyed by schedule. *)

val bank_conflict_penalty : swizzle:bool -> tb_k:int -> elem_bytes:int -> float
(** Test-only: the DES tests check the penalty model directly. *)

val run : request -> kernel_timing
(** Simulate a whole kernel launch: the full wave, then the tail wave.
    The request carries a launch verdict that already passed, so a
    request always times. The simulation is the same whether or not
    observability is on; when it is, the run then emits
    {!publish_gauges}, a [timing.kernel.cycles] observation and a
    [timing.occupancy] point carrying the limiter. *)

type recorded_wave = {
  rw_label : string;  (** ["full"] or ["tail"] *)
  rw_count : int;  (** how many identical waves the kernel runs *)
  rw_config : config;
  rw_result : wave_result;
  rw_recording : recording;
}

val run_recorded : request -> kernel_timing * recorded_wave list
(** {!run}, with every wave recorded: each wave is simulated once, and
    its recording is returned next to the kernel timing, full wave first
    when both exist. Emits the same telemetry as {!run}. *)
