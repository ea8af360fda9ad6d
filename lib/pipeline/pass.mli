(** The complete pipelining pass: analysis followed by transformation
    (paper Fig. 4, "pipelining program transformation"). *)

open Alcop_ir

type result = {
  kernel : Kernel.t;    (** the pipelined kernel, structurally validated *)
  analysis : Analysis.t;
}

val groups : result -> Analysis.group list

val run :
  hw:Alcop_hw.Hw_config.t ->
  hints:Hints.t ->
  Kernel.t ->
  (result, Analysis.rejection) Result.t
(** Apply multi-stage multi-level pipelining to every hinted buffer.
    Returns [Error] when a hinted buffer fails one of the legality rules of
    paper Sec. II-A. *)

