(* Evaluation-record (de)serialization for the on-disk store. The JSON is
   versioned independently of the fingerprint schema: the fingerprint
   names *what* was compiled, [version] here names how the record is laid
   out on disk. Any mismatch or malformed field parses to [None]. *)

module Json = Alcop_obs.Json
module Timing = Alcop_gpusim.Timing

type record = {
  latency_cycles : float;
  timing : Timing.kernel_timing;
  gauges : (string * float) list;
}

type t =
  | Success of record
  | Failure of {
      kind : string;
      message : string;
    }

let version = 1

let json_of_wave (w : Timing.wave_result) =
  Json.Obj
    [ ("cycles", Json.Float w.Timing.cycles);
      ("compute_busy", Json.Float w.Timing.compute_busy);
      ("dram_busy", Json.Float w.Timing.dram_busy);
      ("llc_busy", Json.Float w.Timing.llc_busy);
      ("smem_busy", Json.Float w.Timing.smem_busy) ]

let json_of_timing (k : Timing.kernel_timing) =
  Json.Obj
    [ ("total_cycles", Json.Float k.Timing.total_cycles);
      ("microseconds", Json.Float k.Timing.microseconds);
      ("n_waves", Json.Int k.Timing.n_waves);
      ("tbs_per_sm", Json.Int k.Timing.tbs_per_sm);
      ("occupancy_limiter", Json.Str k.Timing.occupancy_limiter);
      ("wave_cycles", Json.Float k.Timing.wave_cycles);
      ("tail_cycles", Json.Float k.Timing.tail_cycles);
      ("miss_rate", Json.Float k.Timing.miss_rate);
      ("compute_utilization", Json.Float k.Timing.compute_utilization);
      ("wave_busy",
       match k.Timing.wave_busy with
       | None -> Json.Null
       | Some w -> json_of_wave w) ]

let to_string t =
  let doc =
    match t with
    | Success r ->
      Json.Obj
        [ ("v", Json.Int version);
          ("ok", Json.Bool true);
          ("latency_cycles", Json.Float r.latency_cycles);
          ("timing", json_of_timing r.timing);
          ("gauges",
           Json.Obj (List.map (fun (n, v) -> (n, Json.Float v)) r.gauges)) ]
    | Failure { kind; message } ->
      Json.Obj
        [ ("v", Json.Int version);
          ("ok", Json.Bool false);
          ("kind", Json.Str kind);
          ("message", Json.Str message) ]
  in
  Json.to_string doc

(* Decoding: an absent or mistyped field raises [Malformed], which
   collapses the whole parse to [None]. *)

exception Malformed

let field name doc =
  match Json.member name doc with Some v -> v | None -> raise Malformed

let number = function
  | Json.Int i -> float_of_int i
  | Json.Float f -> f
  | _ -> raise Malformed

let num name doc = number (field name doc)

let int_field name doc =
  match field name doc with Json.Int i -> i | _ -> raise Malformed

let str_field name doc =
  match field name doc with Json.Str s -> s | _ -> raise Malformed

let wave_of_json doc =
  { Timing.cycles = num "cycles" doc;
    compute_busy = num "compute_busy" doc;
    dram_busy = num "dram_busy" doc;
    llc_busy = num "llc_busy" doc;
    smem_busy = num "smem_busy" doc }

let timing_of_json doc =
  { Timing.total_cycles = num "total_cycles" doc;
    microseconds = num "microseconds" doc;
    n_waves = int_field "n_waves" doc;
    tbs_per_sm = int_field "tbs_per_sm" doc;
    occupancy_limiter = str_field "occupancy_limiter" doc;
    wave_cycles = num "wave_cycles" doc;
    tail_cycles = num "tail_cycles" doc;
    miss_rate = num "miss_rate" doc;
    compute_utilization = num "compute_utilization" doc;
    wave_busy =
      (match field "wave_busy" doc with
       | Json.Null -> None
       | Json.Obj _ as w -> Some (wave_of_json w)
       | _ -> raise Malformed) }

let gauges_of_json doc =
  match field "gauges" doc with
  | Json.Obj fields -> List.map (fun (name, v) -> (name, number v)) fields
  | _ -> raise Malformed

let record_of_json doc =
  if int_field "v" doc <> version then raise Malformed;
  match field "ok" doc with
  | Json.Bool true ->
    Success
      { latency_cycles = num "latency_cycles" doc;
        timing = timing_of_json (field "timing" doc);
        gauges = gauges_of_json doc }
  | Json.Bool false ->
    Failure { kind = str_field "kind" doc; message = str_field "message" doc }
  | _ -> raise Malformed

let of_string data =
  match Json.of_string data with
  | Error _ -> None
  | Ok doc -> (try Some (record_of_json doc) with Malformed -> None)
