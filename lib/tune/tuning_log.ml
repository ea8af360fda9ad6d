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
