(* Evaluation-record (de)serialization for the on-disk store. The JSON is
   versioned independently of the fingerprint schema: the fingerprint
   names *what* was compiled, [version] here names how the record is laid
   out on disk. Any mismatch or malformed field parses to [None]. *)

module Json = Alcop_obs.Json
module Timing = Alcop_gpusim.Timing

type record = {
  latency_cycles : float;
  timing : Timing.kernel_timing;
}

type t =
  | Success of record
  | Failure of {
      kind : string;
      message : string;
    }

(* Version 2 added the wave's stall fractions and dropped the captured
   gauges; a version-1 record parses to [None], a miss. *)
let version = 2

(* A wave is one flat list, in field order: cycles, the four busy totals,
   then the six stall fractions. Unnamed floats keep the record small and
   cheap to parse on a warm store read. *)
let json_of_wave (w : Timing.wave_result) =
  Json.List
    [ Json.Float w.Timing.cycles; Json.Float w.Timing.compute_busy;
      Json.Float w.Timing.dram_busy; Json.Float w.Timing.llc_busy;
      Json.Float w.Timing.smem_busy; Json.Float w.Timing.stall_compute;
      Json.Float w.Timing.stall_dram_bw; Json.Float w.Timing.stall_llc_bw;
      Json.Float w.Timing.stall_smem_port;
      Json.Float w.Timing.stall_sync_wait; Json.Float w.Timing.stall_issue ]

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
          ("timing", json_of_timing r.timing) ]
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

let wave_of_json = function
  | [ cycles; compute_busy; dram_busy; llc_busy; smem_busy; stall_compute;
      stall_dram_bw; stall_llc_bw; stall_smem_port; stall_sync_wait;
      stall_issue ] ->
    let n = number in
    { Timing.cycles = n cycles; compute_busy = n compute_busy;
      dram_busy = n dram_busy; llc_busy = n llc_busy; smem_busy = n smem_busy;
      stall_compute = n stall_compute; stall_dram_bw = n stall_dram_bw;
      stall_llc_bw = n stall_llc_bw; stall_smem_port = n stall_smem_port;
      stall_sync_wait = n stall_sync_wait; stall_issue = n stall_issue }
  | _ -> raise Malformed

let timing_of_json doc =
  { Timing.total_cycles = num "total_cycles" doc;
    microseconds = num "microseconds" doc;
    n_waves = int_field "n_waves" doc;
    tbs_per_sm = int_field "tbs_per_sm" doc;
    occupancy_limiter = str_field "occupancy_limiter" doc;
    wave_cycles = num "wave_cycles" doc;
    tail_cycles = num "tail_cycles" doc;
    miss_rate = num "miss_rate" doc;
    wave_busy =
      (match field "wave_busy" doc with
       | Json.Null -> None
       | Json.List w -> Some (wave_of_json w)
       | _ -> raise Malformed) }

let record_of_json doc =
  if int_field "v" doc <> version then raise Malformed;
  match field "ok" doc with
  | Json.Bool true ->
    Success
      { latency_cycles = num "latency_cycles" doc;
        timing = timing_of_json (field "timing" doc) }
  | Json.Bool false ->
    Failure { kind = str_field "kind" doc; message = str_field "message" doc }
  | _ -> raise Malformed

let of_string data =
  match Json.of_string data with
  | Error _ -> None
  | Ok doc -> (try Some (record_of_json doc) with Malformed -> None)
