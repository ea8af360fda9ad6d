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

(** {1 Reading logs back}

    The inverse direction, for replaying a tuning run offline. File and
    JSON plumbing is shared with the observability side through
    {!Alcop_obs.Trace_reader}. *)

type replayed_trial = {
  rt_index : int;
  rt_params : Alcop_perfmodel.Params.t;
  rt_cost : float option;  (** [None] = compile failure, as written *)
  rt_features : (string * float) list;
      (** pipeline feature record; [[]] when the log predates them *)
}

type replay = {
  r_operator : string;
  r_method : string;
  r_seed : int;
  r_space_size : int;
  r_best_cycles : float option;
  r_trials : replayed_trial list;  (** in measurement order *)
}

val read_file : string -> (replay, string) result
(** Test-only: the round-trip test reads logs back.
    Parse a log file ({!to_json} and a newline); round-trips exactly. *)
