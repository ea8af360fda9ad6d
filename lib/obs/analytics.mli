(** Analyses over {!Trace_reader} traces: per-span-name duration
    statistics with histograms and percentiles, critical-path extraction,
    and diffs — span totals between two runs, and stall-class cycles
    between two profiler traces (the table that explains a speedup).

    Durations are in the producing clock's unit (seconds for compiler
    traces, simulated cycles for gpusim profiler traces); nothing here
    assumes a unit. *)

(** {1 Per-name span statistics} *)

type span_stats = {
  ss_name : string;
  ss_count : int;
  ss_total : float;  (** sum of durations over all instances *)
  ss_self : float;  (** total minus time spent in children *)
  ss_hist : Obs.histogram;  (** distribution of individual durations *)
}

(** {1 Critical path} *)

type critical_node = {
  cn_name : string;
  cn_dur : float;
  cn_self : float;  (** duration minus the chosen child's duration *)
  cn_depth : int;
}

val critical_path_of_trace : Trace_reader.trace -> critical_node list
(** Test-only: the analytics tests check this part of the trace reports
    directly.
    Critical path of the longest root span; [[]] on a spanless trace. *)

(** {1 Span diff} *)

type span_delta = {
  sd_name : string;
  sd_old_total : float option;  (** [None]: span only in the new run *)
  sd_new_total : float option;  (** [None]: span disappeared *)
  sd_delta : float;  (** new − old, a missing side counted as 0 *)
}

val diff_spans :
  old_trace:Trace_reader.trace -> new_trace:Trace_reader.trace ->
  span_delta list
(** Test-only: the analytics tests check this part of the trace reports
    directly.
    Per-name total-duration deltas over the union of span names, sorted
    by delta magnitude descending. *)

(** {1 Stall diff} *)

type stall_delta = {
  st_class : string;
  st_old : float;
  st_new : float;
  st_delta : float;  (** new − old *)
}

val stall_breakdown_of_trace : Trace_reader.trace -> (string * float) list
(** Test-only: the analytics tests check this part of the trace reports
    directly.
    Per-stall-class cycle totals from the trace's cumulative
    [stall.<class>] gauges (emitted by the gpusim profiler for the
    critical thread block of the representative wave). The classes
    partition that block's cycles exactly, so the breakdown sums to its
    total cycle count. *)

val diff_stalls :
  old_stalls:(string * float) list -> new_stalls:(string * float) list ->
  stall_delta list
(** Per-class deltas over the union of class names (sorted); a class
    missing on one side counts as 0 there. Because each side's classes
    partition its total exactly, the per-class deltas sum to the total
    cycle delta. *)

val stall_total : stall_delta list -> float * float * float
(** [(old_total, new_total, delta_total)] — the column sums. *)

(** {1 Text rendering}

    Shared by the [alcop trace] CLI verbs and the golden tests. *)

val fmt_num : float -> string
(** Compact numeric cell: integers without a fraction, otherwise 4
    significant digits; ["-"] for nan. *)

val fmt_signed : float -> string
(** Like {!fmt_num} with an explicit [+] on non-negative values. *)

val summary_lines : Trace_reader.trace -> string list
(** Event/span counts, per-name span table with p50/p90/p99, critical
    path, counters, gauges, histograms. *)

val diff_lines :
  old_trace:Trace_reader.trace -> new_trace:Trace_reader.trace ->
  string list
(** Span-delta table plus, when either trace carries [stall.<class>]
    gauges, the stall-class delta table with an exact total row. *)
