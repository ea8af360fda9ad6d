(** Feature extraction for the learned cost model: raw schedule knobs plus
    cheap derived structure (occupancy, waves, locality), in the spirit of
    AutoTVM's featurization. *)

open Alcop_sched

val dim : int
(** Test-only: tests check the feature vector width. *)

val extract : Alcop_hw.Hw_config.t -> Op_spec.t -> Params.t -> float array
(** Always [dim]-long and finite; resource-infeasible schedules encode
    occupancy 0 rather than failing. *)
