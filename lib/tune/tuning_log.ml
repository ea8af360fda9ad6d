(* JSON tuning logs, in the spirit of AutoTVM's record files: one run
   object carrying the method, seed, space size and every trial with its
   schedule knobs and measured cost. Serialization goes through
   [Alcop_obs.Json], the same emitter the observability sinks use, so
   string escaping and float/null handling live in one place. *)

module Json = Alcop_obs.Json

let params_to_json (p : Alcop_perfmodel.Params.t) =
  let t = p.Alcop_perfmodel.Params.tiling in
  Json.Obj
    [ ("tb_m", Json.Int t.Alcop_sched.Tiling.tb_m);
      ("tb_n", Json.Int t.Alcop_sched.Tiling.tb_n);
      ("tb_k", Json.Int t.Alcop_sched.Tiling.tb_k);
      ("warp_m", Json.Int t.Alcop_sched.Tiling.warp_m);
      ("warp_n", Json.Int t.Alcop_sched.Tiling.warp_n);
      ("warp_k", Json.Int t.Alcop_sched.Tiling.warp_k);
      ("split_k", Json.Int t.Alcop_sched.Tiling.split_k);
      ("smem_stages", Json.Int p.Alcop_perfmodel.Params.smem_stages);
      ("reg_stages", Json.Int p.Alcop_perfmodel.Params.reg_stages);
      ("swizzle", Json.Bool p.Alcop_perfmodel.Params.swizzle);
      ("inner_fuse", Json.Bool p.Alcop_perfmodel.Params.inner_fuse) ]

let opt_cost = function
  | Some c -> Json.Float c
  | None -> Json.Null

(* [features]: per-trial pipeline feature records from the observatory
   (Pipeview), keyed by trial index — cost-model features richer than the
   scalar latency, attached as a "pipeline_features" object. *)
let trial_to_json ?(features = []) (t : Tuner.trial) =
  let base =
    [ ("index", Json.Int t.Tuner.index);
      ("schedule", params_to_json t.Tuner.params);
      ("cost_cycles", opt_cost t.Tuner.cost) ]
  in
  let extra =
    match List.assoc_opt t.Tuner.index features with
    | Some feats when feats <> [] ->
      [ ("pipeline_features",
         Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) feats)) ]
    | _ -> []
  in
  Json.Obj (base @ extra)

let run_to_json ?(features = []) ~spec_name ~method_ ~seed (r : Tuner.result) =
  Json.Obj
    [ ("operator", Json.Str spec_name);
      ("method", Json.Str (Tuner.method_to_string method_));
      ("seed", Json.Int seed);
      ("space_size", Json.Int r.Tuner.space_size);
      ("best_cycles", opt_cost (Tuner.best r));
      ("trials",
       Json.List
         (Array.to_list
            (Array.map (trial_to_json ~features) r.Tuner.trials))) ]

let to_json ?(features = []) ~spec_name ~method_ ~seed r =
  Json.to_string (run_to_json ~features ~spec_name ~method_ ~seed r)

(* --- reading logs back ---

   The inverse direction, for replaying a tuning run offline (re-ranking
   trials, diffing two runs, feeding a report). File and JSON plumbing is
   shared with the observability side through [Trace_reader] rather than
   re-implemented here. *)

module Trace_reader = Alcop_obs.Trace_reader

type replayed_trial = {
  rt_index : int;
  rt_params : Alcop_perfmodel.Params.t;
  rt_cost : float option;
  rt_features : (string * float) list;
      (** pipeline feature record, [[]] when the log predates them *)
}

type replay = {
  r_operator : string;
  r_method : string;
  r_seed : int;
  r_space_size : int;
  r_best_cycles : float option;
  r_trials : replayed_trial list;
}

let params_of_json j =
  let int_field k =
    match Json.member k j with
    | Some (Json.Int i) -> Ok i
    | _ -> Error ("schedule missing int field " ^ k)
  in
  let bool_field k =
    match Json.member k j with
    | Some (Json.Bool b) -> Ok b
    | _ -> Error ("schedule missing bool field " ^ k)
  in
  let ( let* ) = Result.bind in
  let* tb_m = int_field "tb_m" in
  let* tb_n = int_field "tb_n" in
  let* tb_k = int_field "tb_k" in
  let* warp_m = int_field "warp_m" in
  let* warp_n = int_field "warp_n" in
  let* warp_k = int_field "warp_k" in
  let* split_k = int_field "split_k" in
  let* smem_stages = int_field "smem_stages" in
  let* reg_stages = int_field "reg_stages" in
  let* swizzle = bool_field "swizzle" in
  let* inner_fuse = bool_field "inner_fuse" in
  match
    Alcop_perfmodel.Params.make ~swizzle ~inner_fuse
      ~tiling:
        (Alcop_sched.Tiling.make ~split_k ~tb_m ~tb_n ~tb_k ~warp_m ~warp_n
           ~warp_k ())
      ~smem_stages ~reg_stages ()
  with
  | p -> Ok p
  | exception Invalid_argument msg -> Error msg

let replay_of_json j =
  let ( let* ) = Result.bind in
  let str_field k =
    match Json.member k j with
    | Some (Json.Str s) -> Ok s
    | _ -> Error ("tuning log missing field " ^ k)
  in
  let int_field k =
    match Json.member k j with
    | Some (Json.Int i) -> Ok i
    | _ -> Error ("tuning log missing field " ^ k)
  in
  let* r_operator = str_field "operator" in
  let* r_method = str_field "method" in
  let* r_seed = int_field "seed" in
  let* r_space_size = int_field "space_size" in
  let r_best_cycles =
    Option.bind (Json.member "best_cycles" j) Json.number
  in
  let* trials =
    match Json.member "trials" j with
    | Some (Json.List ts) -> Ok ts
    | _ -> Error "tuning log missing field trials"
  in
  let* r_trials =
    List.fold_left
      (fun acc t ->
        let* acc = acc in
        let* rt_index =
          match Json.member "index" t with
          | Some (Json.Int i) -> Ok i
          | _ -> Error "trial missing index"
        in
        let* rt_params =
          match Json.member "schedule" t with
          | Some s -> params_of_json s
          | None -> Error "trial missing schedule"
        in
        let rt_cost = Option.bind (Json.member "cost_cycles" t) Json.number in
        let rt_features =
          match Json.member "pipeline_features" t with
          | Some (Json.Obj kvs) ->
            List.filter_map
              (fun (k, v) -> Option.map (fun f -> (k, f)) (Json.number v))
              kvs
          | _ -> []
        in
        Ok ({ rt_index; rt_params; rt_cost; rt_features } :: acc))
      (Ok []) trials
  in
  Ok
    { r_operator; r_method; r_seed; r_space_size; r_best_cycles;
      r_trials = List.rev r_trials }

let read_file path =
  Result.bind (Trace_reader.json_of_file path) replay_of_json
