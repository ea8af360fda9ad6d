(** The end-to-end ALCOP compilation pipeline (paper Fig. 4):
    schedule -> lowering -> pipelining pass -> trace -> timing simulation. *)

open Alcop_ir
open Alcop_sched

type compiled = {
  schedule : Schedule.t;
  params : Alcop_perfmodel.Params.t;
  lowered : Lower.lowered;
  kernel : Kernel.t;  (** pipelined *)
  groups : Alcop_pipeline.Analysis.group list;
  program : Alcop_gpusim.Trace.program;
      (** packed event trace of one representative threadblock *)
  timing_request : Alcop_gpusim.Timing.request;
      (** the exact launch the simulator timed — replayable by
          [Alcop_gpusim.Profile] *)
  timing : Alcop_gpusim.Timing.kernel_timing;
  latency_cycles : float;
      (** kernel + materialization of non-inlined element-wise stages +
          split-K reduction *)
}

(** Structured compile failure — one constructor per phase, so callers and
    the observability layer see *what* failed instead of a flat string. *)
type error =
  | Schedule_error of Schedule.error
  | Lowering_failed of string
  | Legality_rejected of {
      rejection : Alcop_pipeline.Analysis.rejection;
          (** the first rule violation, as raised by the pass *)
      verdicts : Alcop_pipeline.Analysis.buffer_verdict list;
          (** the full per-buffer rule-by-rule report *)
    }
  | Launch_failed of Alcop_gpusim.Occupancy.failure

val error_kind : error -> string
(** "schedule" | "lowering" | "legality" | "launch". *)

val error_to_string : error -> string

val compile :
  ?hw:Alcop_hw.Hw_config.t ->
  ?extra_regs_per_thread:int ->
  Alcop_perfmodel.Params.t ->
  Op_spec.t ->
  (compiled, error) result
(** Compile one operator under one schedule point, cold — no caching.
    Callers that only need the latency and kernel timing want
    {!Session.timing} instead, which memoizes that evaluation under a
    content fingerprint of the inputs. [Error] reports the first failure
    in this order: schedule construction ([Schedule_error]), launch
    ([Launch_failed]: the params-level footprint of
    {!Alcop_perfmodel.Params.launch}, checked right after the [schedule]
    pass and before lowering, so a rejected point runs no other pass; the
    timing request carries this verdict, so [timing] never fails),
    lowering ([Lowering_failed]), then pipelining legality
    ([Legality_rejected]). [extra_regs_per_thread] models compilers that
    prefetch without cp.async; it counts toward the launch check. Each
    phase runs through {!Passman.run} as a named pass —
    [schedule] / [lower] / [pipeline] / [trace] / [timing] — inside an
    [Alcop_obs] span named [compile.<pass>], with a [pass.<pass>.ms]
    wall-time gauge and the [--dump-ir-after] hook; the enclosing
    [compile] span and its field list exist only when Obs records.

    The [schedule] and [lower] passes are {!schedule_point} and
    {!lower_point}: the stage-count siblings of one tiling, compiled back
    to back on one domain, build the stage-free schedule once and lower
    once. The result is the same as a cold compile's in every field. *)

val schedule_point : Alcop_perfmodel.Params.t -> Op_spec.t -> Schedule.t
(** The [schedule] pass: {!Schedule.pipeline_gemm} at the point's stage
    counts and fusion flag, then its swizzle, on the
    {!Schedule.tiled_gemm} base of the point's operator and tiling. The
    base comes from the domain's one-entry slot when the slot holds the
    same (operator, tiling) pair, compared structurally; otherwise it is
    built and replaces the slot's entry. A base that fails to build
    leaves the slot as it was.
    @raise Schedule.Schedule_error as {!Schedule.tiled_gemm} and
    {!Schedule.pipeline_gemm} do. *)

val lower_point : Schedule.t -> Lower.lowered
(** The [lower] pass: {!Lower.run}, reused from the slot when the
    schedule's dataflow graph is physically the slot's base graph, i.e.
    it came from {!schedule_point} on the slot's (operator, tiling) and
    its per-point step inlined nothing. A reused result is the slot's
    lowered kernel with [hints] and [schedule] replaced by the
    schedule's. [Lower.run] reads only the operator, the tiling and the
    graph, so the kernel, [materialize] and [reduce] are the ones
    [Lower.run] would build. The first lowering of a slot's base is
    kept; one that fails keeps nothing.
    @raise Lower.Lowering_error as {!Lower.run} does. *)

val timing_request :
  hw:Alcop_hw.Hw_config.t ->
  occupancy:Alcop_gpusim.Occupancy.t ->
  groups:Alcop_pipeline.Analysis.group list ->
  Alcop_perfmodel.Params.t ->
  Op_spec.t ->
  Alcop_gpusim.Trace.program ->
  Alcop_gpusim.Timing.request
(** The launch {!compile} hands the timing simulator for a pipelined
    kernel's packed trace: grid and tile shape, launch verdict, jitter key
    and the ids of the synchronized groups. *)

val profile :
  ?hw:Alcop_hw.Hw_config.t ->
  Alcop_perfmodel.Params.t ->
  Op_spec.t ->
  (Alcop_gpusim.Profile.t, error) result
(** Record one schedule: {!compile}, then replay its timed launch with
    {!Alcop_gpusim.Profile.run}, labelled with the operator name and the
    schedule point. Every schedule view ([alcop profile],
    [alcop explain-pipeline], the report's example pair, the tuning log's
    feature record) starts from this. *)

val verify : ?atol:float -> compiled -> (float, float) result
(** Execute the pipelined kernel (and the split-K reduction, if any) in the
    strict interpreter on deterministic inputs and compare against the host
    reference; the payload is the max absolute error either way. Intended
    for small shapes. *)
