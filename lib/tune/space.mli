(** The schedule search space: valid (tiling, stage-count) combinations for
    an operator, with divisor-based tile candidates (like TVM's
    split-factor enumeration). Resource-*tight* points stay in the space —
    they may fail to launch, producing the paper's "compile fail" trials. *)

open Alcop_sched

type restriction = {
  smem_stage_options : int list;
  reg_stage_options : int list;
}

val full : restriction

(** Ablation compilers of paper Sec. V-A. *)

val no_multilevel : restriction
val no_multilevel_no_multistage : restriction
val no_pipelining : restriction

val enumerate : ?restriction:restriction -> Op_spec.t -> Alcop_perfmodel.Params.t array

type indexed
(** A space with an integer key per point, for {!neighbour}. *)

val index : Alcop_perfmodel.Params.t array -> indexed

val neighbour : indexed -> Random.State.t -> int -> int
(** A random knob-distance-one neighbour that exists in the space; falls
    back to a uniform random point when no neighbour move is found. *)
