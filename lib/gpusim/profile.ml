(* Simulated-time profiler: folds the recorded waves of one kernel launch
   into per-threadblock timelines, per-stage stall buckets, a text
   roofline report and the events of a Chrome trace of *simulated* time.

   [Timing.run_recorded] simulates each wave once, with the recording on,
   so the profile covers the very machine states the reported kernel
   latency came from. *)

module Obs = Alcop_obs.Obs
module Json = Alcop_obs.Json

type t = {
  p_op : string;
  p_schedule : string;
  p_timing : Timing.kernel_timing;
  p_program : Trace.program;
  p_waves : Timing.recorded_wave list;  (** full wave first when both exist *)
}

let run ?(op = "kernel") ?(schedule = "") (req : Timing.request) =
  let timing, waves = Timing.run_recorded req in
  { p_op = op; p_schedule = schedule; p_timing = timing;
    p_program = req.Timing.program; p_waves = waves }

let stages t g = max 1 t.p_program.Trace.group_stages.(g)

let stages_of t gid =
  match Array.find_index (String.equal gid) t.p_program.Trace.groups with
  | Some g -> stages t g
  | None -> 1

(* Stage slot of a batch ordinal of group [g]; -1 when not tied to one. *)
let stage_of t g ordinal =
  if g >= 0 && ordinal >= 0 then ordinal mod stages t g else -1

(* --- aggregation --- *)

let critical (w : Timing.recorded_wave) =
  Timing.critical_tb w.Timing.rw_recording

let tb_cycles (w : Timing.recorded_wave) tb =
  (Timing.finish_times w.Timing.rw_recording).(tb)

(* Per-class cycles of one threadblock, indexed by [stall_class_index]. *)
let class_totals (w : Timing.recorded_wave) tb =
  let totals = Array.make (List.length Timing.all_stall_classes) 0.0 in
  Timing.fold ~tb
    (fun () -> function
      | Timing.Interval { cls; start; stop; _ } ->
        let k = Timing.stall_class_index cls in
        totals.(k) <- totals.(k) +. (stop -. start)
      | _ -> ())
    () w.Timing.rw_recording;
  totals

let class_cycles w tb cls = (class_totals w tb).(Timing.stall_class_index cls)

(* Per (group, stage) stall totals of one threadblock: only wait intervals
   carry a stage slot, so this is the latency the pipeline failed to hide
   at each stage. *)
let stage_stalls t (w : Timing.recorded_wave) tb =
  let tbl : (string * int, float) Hashtbl.t = Hashtbl.create 8 in
  Timing.fold ~tb
    (fun () -> function
      | Timing.Interval { group; ordinal; start; stop; _ }
        when stage_of t group ordinal >= 0 ->
        let key =
          (t.p_program.Trace.groups.(group), stage_of t group ordinal)
        in
        let prior = Option.value ~default:0.0 (Hashtbl.find_opt tbl key) in
        Hashtbl.replace tbl key (prior +. (stop -. start))
      | _ -> ())
    () w.Timing.rw_recording;
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

let representative t = match t.p_waves with w :: _ -> Some w | [] -> None

(* Non-zero per-class cycles of one threadblock, in class order. *)
let shown_classes w tb =
  let totals = class_totals w tb in
  List.filter_map
    (fun cls ->
      let cyc = totals.(Timing.stall_class_index cls) in
      if cyc > 0.0 then Some (cls, cyc) else None)
    Timing.all_stall_classes

(* Per-class cycles of the kernel's critical threadblock (critical TB of
   the representative wave), named for trace/report consumers. Zero
   classes are dropped; because the intervals are contiguous, the listed
   classes still sum exactly to that threadblock's cycles — which is what
   lets a stall *diff* between two variants account for the whole cycle
   delta. *)
let stall_breakdown t =
  match representative t with
  | None -> []
  | Some w ->
    List.map
      (fun (cls, cyc) -> (Timing.stall_class_name cls, cyc))
      (shown_classes w (critical w))

let binding_resource t =
  match representative t with
  | None -> "none"
  | Some w ->
    let r = w.Timing.rw_result in
    let c = r.Timing.cycles in
    if c <= 0.0 then "none"
    else
      let candidates =
        [ ("tensor cores", r.Timing.compute_busy /. c);
          ("DRAM bandwidth", r.Timing.dram_busy /. c);
          ("LLC bandwidth", r.Timing.llc_busy /. c);
          ("shared-memory ports", r.Timing.smem_busy /. c) ]
      in
      fst
        (List.fold_left
           (fun (bn, bv) (n, v) -> if v > bv then (n, v) else (bn, bv))
           ("tensor cores", -1.0) candidates)

let dominant_stall t =
  match representative t with
  | None -> Timing.Sync_wait
  | Some w ->
    let totals = class_totals w (critical w) in
    fst
      (List.fold_left
         (fun (bc, bv) cls ->
           let v = totals.(Timing.stall_class_index cls) in
           if v > bv then (cls, v) else (bc, bv))
         (Timing.Sync_wait, -1.0)
         (List.filter (fun c -> c <> Timing.Compute) Timing.all_stall_classes))

(* --- text report --- *)

let report t =
  let buf = Buffer.create 2048 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  let tm = t.p_timing in
  line "profile: %s%s" t.p_op
    (if String.equal t.p_schedule "" then "" else "  [" ^ t.p_schedule ^ "]");
  line "kernel:  %.0f cycles (%.1f us), %d wave%s, %d TB/SM (limiter: %s), launch %.0f cycles"
    tm.Timing.total_cycles tm.Timing.microseconds tm.Timing.n_waves
    (if tm.Timing.n_waves = 1 then "" else "s")
    tm.Timing.tbs_per_sm tm.Timing.occupancy_limiter
    Timing.launch_overhead_cycles;
  (match representative t with
   | Some w when w.Timing.rw_result.Timing.cycles > 0.0 ->
     let r = w.Timing.rw_result in
     let c = r.Timing.cycles in
     line
       "roofline (%s wave): compute %4.1f%% | dram %4.1f%% | llc %4.1f%% | smem %4.1f%%  ->  binding: %s"
       w.Timing.rw_label
       (100.0 *. r.Timing.compute_busy /. c)
       (100.0 *. r.Timing.dram_busy /. c)
       (100.0 *. r.Timing.llc_busy /. c)
       (100.0 *. r.Timing.smem_busy /. c)
       (binding_resource t)
   | _ -> ());
  List.iter
    (fun (w : Timing.recorded_wave) ->
      let cfg = w.Timing.rw_config in
      line "";
      line "wave %s x%d: %d TB/SM on %d SMs, %.0f cycles" w.Timing.rw_label
        w.Timing.rw_count cfg.Timing.residents cfg.Timing.active_sms
        w.Timing.rw_result.Timing.cycles;
      let tb = critical w in
      let cycles = tb_cycles w tb in
      if cycles > 0.0 then begin
        line "  stall breakdown (critical TB %d, %.0f cycles):" tb cycles;
        let shown = shown_classes w tb in
        let total = List.fold_left (fun a (_, c) -> a +. c) 0.0 shown in
        List.iter
          (fun (cls, cyc) ->
            line "    %-10s %5.1f%%  %12.1f cycles"
              (Timing.stall_class_name cls)
              (100.0 *. cyc /. cycles)
              cyc)
          shown;
        line "    %-10s %5.1f%%  %12.1f cycles" "total"
          (100.0 *. total /. cycles)
          total;
        let per_stage = stage_stalls t w tb in
        if per_stage <> [] then begin
          line "  per-stage wait stalls (latency the pipeline failed to hide):";
          List.iter
            (fun ((g, stage), cyc) ->
              line "    %s stage %d/%d: %10.1f cycles (%4.1f%%)" g stage
                (stages_of t g) cyc
                (100.0 *. cyc /. cycles))
            per_stage
        end
      end)
    t.p_waves;
  Buffer.contents buf

(* --- export --- *)

(* Track layout: one Chrome process per wave, and within it one "exec"
   thread per threadblock (the contiguous stall segments) plus one thread
   per (threadblock, group, stage) showing async copies in flight — ring
   slots of one stage never overlap, so each is a clean track. Timestamps
   are raw simulated cycles; a Chrome sink made with [ts_to_us:Fun.id]
   renders one cycle as one microsecond. *)
let events t =
  let events = ref [] in
  let add e = events := e :: !events in
  let group_name g = t.p_program.Trace.groups.(g) in
  (* first event anchors the sink origin at simulated time 0 *)
  add
    (Obs.Point
       { name = "profile"; ts = 0.0;
         fields =
           [ ("op", Json.Str t.p_op); ("schedule", Json.Str t.p_schedule);
             ("total_cycles", Json.Float t.p_timing.Timing.total_cycles);
             ("program_hash",
              Json.Str (Digest.to_hex (Trace.program_hash t.p_program)));
             ("n_groups", Json.Int (Array.length t.p_program.Trace.groups));
             ("n_events", Json.Int (Trace.length t.p_program));
             ("#process_name", Json.Str "alcop profile") ] });
  List.iteri
    (fun wi (w : Timing.recorded_wave) ->
      let cfg = w.Timing.rw_config in
      let pid = wi + 2 in
      let pname =
        Printf.sprintf "wave %s x%d (%d TB/SM, %d SMs)" w.Timing.rw_label
          w.Timing.rw_count cfg.Timing.residents cfg.Timing.active_sms
      in
      (* cumulative stall counters over the critical threadblock of the
         representative wave only — one counter track per stall class *)
      let counted = if wi = 0 then critical w else -1 in
      let totals = Array.make (List.length Timing.all_stall_classes) 0.0 in
      let counters = ref [] in
      for tb = 0 to cfg.Timing.residents - 1 do
        let exec_tid = (tb * 32) + 1 in
        let exec_route extra =
          [ ("#pid", Json.Int pid); ("#tid", Json.Int exec_tid);
            ("#process_name", Json.Str pname);
            ("#thread_name", Json.Str (Printf.sprintf "tb%d exec" tb)) ]
          @ extra
        in
        (* the threadblock's contiguous stall intervals, then its async
           copy flights, one track per (group, stage) ring slot *)
        let flights =
          Timing.fold ~tb
            (fun flights -> function
              | Timing.Interval { cls; group; ordinal; start; stop; _ } ->
                let stage = stage_of t group ordinal in
                let name =
                  if stage >= 0 then
                    Printf.sprintf "%s %s[s%d]" (Timing.stall_class_name cls)
                      (group_name group) stage
                  else Timing.stall_class_name cls
                in
                add
                  (Obs.Span_end
                     { name; ts = start; dur = stop -. start; depth = 0;
                       fields =
                         exec_route
                           [ ("class", Json.Str (Timing.stall_class_name cls));
                             ("stage", Json.Int stage) ] });
                if tb = counted then begin
                  let k = Timing.stall_class_index cls in
                  totals.(k) <- totals.(k) +. (stop -. start);
                  counters :=
                    Obs.Gauge
                      { name = "stall." ^ Timing.stall_class_name cls;
                        value = totals.(k); ts = stop }
                    :: !counters
                end;
                flights
              | Timing.Flight { group; batch; level; bytes; issue; landed; _ }
                when stage_of t group batch >= 0 ->
                let stage = stage_of t group batch in
                Obs.Span_end
                  { name =
                      Printf.sprintf "copy %s b%d (%dB)" (group_name group)
                        batch bytes;
                    ts = issue; dur = landed -. issue; depth = 0;
                    fields =
                      [ ("#pid", Json.Int pid);
                        ("#tid", Json.Int (exec_tid + 1 + stage));
                        ("#thread_name",
                         Json.Str
                           (Printf.sprintf "tb%d %s s%d" tb (group_name group)
                              stage));
                        ("bytes", Json.Int bytes); ("batch", Json.Int batch);
                        ("level",
                         Json.Str
                           (match level with
                            | Trace.From_global -> "global"
                            | Trace.From_shared -> "shared")) ] }
                :: flights
              | _ -> flights)
            [] w.Timing.rw_recording
        in
        List.iter add (List.rev flights)
      done;
      List.iter add (List.rev !counters))
    t.p_waves;
  List.rev !events
