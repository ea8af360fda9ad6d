(** Simulated-time profiler.

    Folds the recorded waves of {!Timing.run_recorded} into
    per-threadblock timelines, per-stage stall buckets, a text roofline
    report, and the events of a Chrome trace of {e simulated} time (one
    track per threadblock plus one per async-copy stage slot).
    Deterministic: each wave is simulated once, so the profile covers
    exactly the machine states behind the reported latency.
    {!Pipeview.of_profile} folds the same recorded waves. *)

type t = {
  p_op : string;
  p_schedule : string;
  p_timing : Timing.kernel_timing;
  p_program : Trace.program;  (** the replayed packed program *)
  p_waves : Timing.recorded_wave list;  (** full wave first when both exist *)
}

val run :
  ?op:string ->
  ?schedule:string ->
  Timing.request ->
  t

val stages_of : t -> string -> int
(** Test-only: the profile tests check this part of {!report} directly.
    Stage count of a pipeline group, from [Trace.program.group_stages]
    (at least 1; 1 for an unknown group). *)

val critical : Timing.recorded_wave -> int
(** Test-only: the profile tests check this part of {!report} directly.
    Index of the wave's slowest (critical-path) threadblock. *)

val tb_cycles : Timing.recorded_wave -> int -> float
(** Test-only: the profile tests check this part of {!report} directly.
    Finish time of one threadblock of the wave. *)

val class_cycles : Timing.recorded_wave -> int -> Timing.stall_class -> float
(** Test-only: the profile tests check with it that the stall classes
    partition each threadblock's time.
    Total cycles of one threadblock attributed to one stall class. The
    classes partition the threadblock's time, so they sum to
    {!tb_cycles}. *)

val stage_stalls :
  t -> Timing.recorded_wave -> int -> ((string * int) * float) list
(** Test-only: the profile tests check this part of {!report} directly.
    Wait-stall cycles of one threadblock per (group, stage slot), sorted —
    the latency the pipeline failed to hide at each stage. *)

val representative : t -> Timing.recorded_wave option
(** Test-only: the profile tests check this part of {!report} directly.
    The wave whose cycles dominate the kernel (full when one exists). *)

val stall_breakdown : t -> (string * float) list
(** Per-stall-class cycles of the critical threadblock of the
    representative wave, in {!Timing.all_stall_classes} order with zero
    classes dropped. The classes partition that threadblock's time, so
    the values sum exactly to its cycle count — a stall diff between two
    variants therefore accounts for the whole cycle delta. *)

val dominant_stall : t -> Timing.stall_class
(** Largest non-[Compute] stall class of the critical threadblock. *)

val report : t -> string
(** Human-readable report: kernel summary, roofline, per-wave stall
    breakdown (summing to 100% of the critical threadblock's cycles) and
    per-stage wait stalls. *)

val events : t -> Alcop_obs.Obs.event list
(** The profile as [Obs] events with simulated-cycle timestamps, routed
    onto per-threadblock and per-stage tracks via the Chrome sink's
    reserved [#pid]/[#tid] fields. A Chrome trace sink made with
    [~ts_to_us:Fun.id] shows one cycle as one microsecond; the same
    events make the JSONL log. {!Alcop_obs.Sinks.emit_all} writes them. *)
