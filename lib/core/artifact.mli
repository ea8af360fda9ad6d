(** Serializable evaluation records: what the {!Store} persists per
    compile fingerprint.

    A record is deliberately *evaluation-grade*, not the full compiled
    artifact: the simulated latency and the complete
    {!Alcop_gpusim.Timing.kernel_timing} scalars, the representative
    wave's busy breakdown and stall fractions included, from which
    {!Alcop_gpusim.Timing.publish_gauges} re-emits every [timing.*]
    gauge. That is everything {!Session.evaluate},
    {!Session.timing}, the tuners and [alcop time] consume; callers that
    need the lowered IR or the packed trace (IR dumps, chrome traces,
    profilers) recompile. Failed compiles persist too — failed points
    recur in sweeps just as often as good ones — as their error kind and
    message.

    Floats render through {!Alcop_obs.Json.float_repr}, so a value read
    back from disk is bit-identical to the one simulation produced, and a
    store-warm process reports byte-identical numbers to a cold one. A
    record's bytes depend only on the evaluation, never on whether the
    writer was traced.

    The JSON is versioned: [{"v":2,"ok":true,"latency_cycles":L,
    "timing":{...,"wave_busy":W}}], where [W] is [null] or the flat list
    [[cycles, compute, dram, llc, smem, 6 stall fractions]]. A record of
    another version reads as a miss. *)

type record = {
  latency_cycles : float;
  timing : Alcop_gpusim.Timing.kernel_timing;
}

type t =
  | Success of record
  | Failure of {
      kind : string;    (** {!Compiler.error_kind} *)
      message : string; (** {!Compiler.error_to_string} *)
    }

val to_string : t -> string
(** One-line JSON, versioned. *)

val of_string : string -> t option
(** [None] on any parse or schema mismatch — corrupt store entries must
    read as misses, never raise. *)
