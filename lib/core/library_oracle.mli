(** Library-kernel stand-in (paper Sec. V-C, Fig. 11): a fixed CUTLASS-like
    template family compiled through the same pipeline with a hand-tuning
    efficiency factor on top. *)

open Alcop_sched

val best_latency : ?hw:Alcop_hw.Hw_config.t -> Op_spec.t -> float option
(** Best template latency times the expert factor; [None] when no template
    fits the shape. *)
