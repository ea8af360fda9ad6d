(** JSON tuning logs, in the spirit of AutoTVM's record files.
    Serialization shares [Alcop_obs.Json] with the observability sinks. *)

val to_json :
  ?features:(int * (string * float) list) list ->
  spec_name:string -> method_:Tuner.method_ -> seed:int -> Tuner.result -> string
(** One JSON object: operator, method, seed, space size, best cost, and
    every trial with its schedule knobs and measured cost (null = compile
    failure). [features] attaches a pipeline observatory feature record
    ({!Alcop_gpusim} pipeview) to trials by index, as a
    ["pipeline_features"] object of floats. A log file holds it and a
    trailing newline. *)
