(** Pipeline observatory: per-stage buffer occupancy, prefetch-slack
    attribution and sync-wait accounting for one schedule
    (doc/pipeview.md).

    Folds the recording of a {!Profile.t}'s representative wave
    ({!Timing.event}) into stage-occupancy timelines, per-wait prefetch
    slack (wait-start minus batch-land cycle; negative = exposed
    latency), a five-term partition of the critical threadblock's cycles
    that telescopes schedule deltas exactly, and a flat feature record
    for cost models. Group identity, protocol kind, stage counts and the
    pass's per-stage footprint are read from [Trace.program]'s group
    table — no pipeline re-analysis. *)

type slack_sample = {
  sl_group : string;
  sl_stage : int;  (** stage slot = consumed batch mod stages *)
  sl_ordinal : int;  (** consumption ordinal of the wait *)
  sl_ready : float;  (** cycle the consumed batch landed *)
  sl_start : float;  (** cycle the wait began *)
  sl_slack : float;  (** [sl_start -. sl_ready]; negative = exposed *)
}

type occupancy_slot = {
  oc_stage : int;
  oc_intervals : (float * float) array;
      (** merged fill-to-retire intervals, in time order *)
  oc_busy : float;  (** union measure of the intervals *)
}

type group_view = {
  gv_id : string;
  gv_stages : int;
  gv_synchronized : bool;
  gv_footprint_bytes : int;  (** pass-computed bytes per stage *)
  gv_high_water_bytes : int;  (** peak observed per-batch load bytes *)
  gv_slots : occupancy_slot array;  (** length [gv_stages] *)
  gv_duty : float;  (** mean busy/cycles over the slots *)
  gv_mean_slack : float;
  gv_min_slack : float;
  gv_exposed_cycles : float;  (** sum of negative-slack magnitudes *)
  gv_n_waits : int;
}

type t = {
  pv_op : string;
  pv_schedule : string;
  pv_timing : Timing.kernel_timing;
  pv_wave_label : string;  (** ["full"] or ["tail"] *)
  pv_wave_cycles : float;  (** critical threadblock finish time *)
  pv_critical_tb : int;
  pv_terms : (string * float) list;
      (** the five-term partition; sums to [pv_wave_cycles] exactly *)
  pv_groups : group_view list;  (** program group-table order *)
  pv_slacks : slack_sample list;  (** critical TB, program order *)
  pv_barrier_wait : float;
  pv_drain_wait : float;
}

val of_profile : Profile.t -> t
(** Fold the profile's representative recorded wave (full wave when one
    exists, else the tail). No simulation runs: a caller that wants both
    views of a schedule records it once with {!Profile.run}. *)

val features : t -> (string * float) list
(** Flat per-schedule feature record (cost-model features; logged per
    tuner trial): wave cycles, per-term shares, barrier/drain cycles,
    then per group [slack_mean.<id>], [slack_min.<id>], [duty.<id>],
    [exposed.<id>], [high_water_frac.<id>]. Deterministic order. *)

(** {1 Schedule comparison}

    The five terms partition the critical threadblock's contiguous stall
    segments, so rounding each term to integer cycles makes the
    telescoping exact: the total delta equals the sum of the term deltas
    with no residual. *)

type delta_term = {
  dt_name : string;
  dt_a : int;  (** rounded cycles in schedule A *)
  dt_b : int;
  dt_delta : int;  (** [dt_b - dt_a] *)
}

type comparison = {
  cmp_terms : delta_term list;
  cmp_total_a : int;
  cmp_total_b : int;
  cmp_total_delta : int;  (** equals the sum of [dt_delta]s exactly *)
}

val compare_views : t -> t -> comparison

val report : t -> string
(** Multi-line text summary: cycle partition, per-group duty/slack table,
    per-stage occupancy. *)

val compare_report : label_a:string -> label_b:string -> t -> t -> string
(** Text rendering of {!compare_views}: the latency delta telescoped into
    the five terms, in integer cycles. *)

val events : t -> Alcop_obs.Obs.event list
(** JSONL-ready events: one [pipeview] point carrying the feature record,
    one [pipeview.slack] point per wait, and occupancy spans per
    (group, stage) interval. {!Alcop_obs.Sinks.emit_all} writes them. *)
