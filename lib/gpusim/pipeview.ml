(* Pipeline observatory (doc/pipeview.md): per-stage buffer occupancy,
   prefetch-slack attribution and sync-wait accounting for one schedule.

   Folds the recording of a kernel's representative wave: its stall
   intervals (contiguous per threadblock, so they telescope exactly to the
   threadblock's cycle count) and its fill and consume events (which carry
   the ready/start pair of every commit and wait, so positive prefetch
   slack is visible even though it produces no stall interval). The fold
   yields:

   - per (group, stage-slot) occupancy timelines: a stage slot is busy
     from the cycle its batch's last async load lands until the consumer
     wait that retires the batch completes;
   - per-wait prefetch slack: wait-start minus batch-land cycle, negative
     meaning the consumer stalled (exposed latency);
   - a five-term partition of the critical threadblock's cycles —
     compute, exposed (pipeline wait stalls), scoreboard (non-pipelined
     load stalls), sync (barriers, drains, pure-latency waits), issue —
     which, being a partition of contiguous intervals, telescopes a
     latency delta between two schedules exactly;
   - a flat per-schedule feature record (cost-model features, logged per
     tuner trial).

   Group identity, protocol kind, declared stage count and the pass's
   per-stage byte footprint all ride in [Trace.program]'s group table, so
   no pipeline re-analysis happens here. *)

module Obs = Alcop_obs.Obs
module Json = Alcop_obs.Json

type slack_sample = {
  sl_group : string;
  sl_stage : int;  (** stage slot = consumed batch mod stages *)
  sl_ordinal : int;  (** consumption ordinal of the wait *)
  sl_ready : float;
  sl_start : float;
  sl_slack : float;  (** [sl_start -. sl_ready]; negative = exposed *)
}

type occupancy_slot = {
  oc_stage : int;
  oc_intervals : (float * float) array;  (** merged, in time order *)
  oc_busy : float;  (** union measure of the intervals *)
}

type group_view = {
  gv_id : string;
  gv_stages : int;
  gv_synchronized : bool;
  gv_footprint_bytes : int;  (** pass-computed bytes per stage *)
  gv_high_water_bytes : int;  (** peak observed per-batch load bytes *)
  gv_slots : occupancy_slot array;  (** length [gv_stages] *)
  gv_duty : float;  (** mean busy/cycles over the slots *)
  gv_mean_slack : float;
  gv_min_slack : float;
  gv_exposed_cycles : float;  (** sum of negative slack magnitudes *)
  gv_n_waits : int;
}

(* The five bucket names, in display order. A fixed vocabulary so feature
   records from different schedules align column-wise. *)
let term_names = [ "compute"; "exposed"; "scoreboard"; "sync"; "issue" ]

type t = {
  pv_op : string;
  pv_schedule : string;
  pv_timing : Timing.kernel_timing;
  pv_wave_label : string;  (** ["full"] or ["tail"] *)
  pv_wave_cycles : float;  (** critical threadblock finish time *)
  pv_critical_tb : int;
  pv_terms : (string * float) list;  (** the five-term partition *)
  pv_groups : group_view list;  (** program group-table order *)
  pv_slacks : slack_sample list;  (** critical TB, program order *)
  pv_barrier_wait : float;  (** critical TB cycles waiting at barriers *)
  pv_drain_wait : float;  (** critical TB cycles in the final drain *)
}

(* --- folding the recording --- *)

(* Index into [term_names] of the bucket an interval falls in. *)
let term_of cls group =
  match cls with
  | Timing.Compute -> 0
  | Timing.Dram_bw | Timing.Llc_bw | Timing.Smem_port ->
    if group >= 0 then 1 else 2
  | Timing.Sync_wait -> if group >= 0 then 1 else 3
  | Timing.Issue | Timing.Launch -> 4  (* Launch: never inside a wave *)

(* Union measure of [(start, stop)] intervals, merging as it goes.
   Intervals arrive in fill order; ring slots are reused sequentially so
   they are already near-sorted, but sort defensively. *)
let merge_intervals ivs =
  let ivs = List.sort compare ivs in
  let rec go acc = function
    | [] -> List.rev acc
    | (s, e) :: rest -> (
      match acc with
      | (ps, pe) :: tl when s <= pe -> go ((ps, Float.max pe e) :: tl) rest
      | _ -> go ((s, e) :: acc) rest)
  in
  let merged = go [] ivs in
  let busy =
    List.fold_left (fun acc (s, e) -> acc +. Float.max 0.0 (e -. s)) 0.0 merged
  in
  (Array.of_list merged, busy)

let analyze ~op ~schedule ~timing ~label (p : Trace.program) rc =
  let finish = Timing.finish_times rc in
  let crit = Timing.critical_tb rc in
  let wave_cycles = if crit < Array.length finish then finish.(crit) else 0.0 in
  let ng = Array.length p.Trace.groups in
  let stages g = max 1 p.Trace.group_stages.(g) in
  let terms = Array.make (List.length term_names) 0.0 in
  let barrier_wait = ref 0.0 and drain_wait = ref 0.0 in
  (* per group, critical TB only: batch -> land cycle, batch -> retire
     cycle, batch -> async load bytes, and the slack samples (reversed) *)
  let land_of = Array.init ng (fun _ -> Hashtbl.create 16) in
  let retire_of = Array.init ng (fun _ -> Hashtbl.create 16) in
  let batch_bytes = Array.init ng (fun _ -> Hashtbl.create 16) in
  let slacks = Array.make ng [] in
  Timing.fold ~tb:crit
    (fun () -> function
      | Timing.Interval { cls; group; start; stop; _ } ->
        let k = term_of cls group in
        terms.(k) <- terms.(k) +. (stop -. start)
      | Timing.Flight { group; batch; async = true; bytes; _ }
        when group >= 0 && batch >= 0 ->
        let prior =
          Option.value ~default:0 (Hashtbl.find_opt batch_bytes.(group) batch)
        in
        Hashtbl.replace batch_bytes.(group) batch (prior + bytes)
      | Timing.Fill { group; batch; commit; ready; _ } ->
        Hashtbl.replace land_of.(group) batch
          (if ready > 0.0 then ready else commit)
      | Timing.Consume { group; ordinal; consumed; start; ready; finish; _ }
        when consumed >= 0 ->
        Hashtbl.replace retire_of.(group) consumed finish;
        slacks.(group) <-
          { sl_group = p.Trace.groups.(group);
            sl_stage = consumed mod stages group; sl_ordinal = ordinal;
            sl_ready = ready; sl_start = start; sl_slack = start -. ready }
          :: slacks.(group)
      | Timing.Barrier_wait { start; finish; _ } ->
        barrier_wait := !barrier_wait +. (finish -. start)
      | Timing.Drain { start; finish; _ } ->
        drain_wait := !drain_wait +. (finish -. start)
      | _ -> ())
    () rc;
  let group_view g =
    let st = stages g in
    let gslacks = List.rev slacks.(g) in
    (* occupancy: batch lives [land, retire], retire defaulting to the
       threadblock's finish for batches never consumed *)
    let slot_ivs = Array.make st [] in
    Hashtbl.iter
      (fun b land_t ->
        let retire =
          Option.value ~default:wave_cycles (Hashtbl.find_opt retire_of.(g) b)
        in
        let s = b mod st in
        if retire > land_t then
          slot_ivs.(s) <- (land_t, retire) :: slot_ivs.(s))
      land_of.(g);
    let slots =
      Array.init st (fun s ->
          let ivs, busy = merge_intervals slot_ivs.(s) in
          { oc_stage = s; oc_intervals = ivs; oc_busy = busy })
    in
    let duty =
      if wave_cycles <= 0.0 then 0.0
      else
        Array.fold_left (fun a sl -> a +. sl.oc_busy) 0.0 slots
        /. (float_of_int st *. wave_cycles)
    in
    let n_waits = List.length gslacks in
    let mean_slack =
      if n_waits = 0 then 0.0
      else
        List.fold_left (fun a s -> a +. s.sl_slack) 0.0 gslacks
        /. float_of_int n_waits
    in
    let min_slack =
      if n_waits = 0 then 0.0
      else List.fold_left (fun a s -> Float.min a s.sl_slack) infinity gslacks
    in
    let exposed =
      List.fold_left (fun a s -> a +. Float.max 0.0 (-.s.sl_slack)) 0.0 gslacks
    in
    let high_water =
      Hashtbl.fold (fun _ b acc -> max acc b) batch_bytes.(g) 0
    in
    ( { gv_id = p.Trace.groups.(g); gv_stages = st;
        gv_synchronized = p.Trace.group_sync.(g);
        gv_footprint_bytes = p.Trace.group_bytes.(g);
        gv_high_water_bytes = high_water; gv_slots = slots; gv_duty = duty;
        gv_mean_slack = mean_slack; gv_min_slack = min_slack;
        gv_exposed_cycles = exposed; gv_n_waits = n_waits },
      gslacks )
  in
  let views = List.init ng group_view in
  { pv_op = op; pv_schedule = schedule; pv_timing = timing;
    pv_wave_label = label; pv_wave_cycles = wave_cycles;
    pv_critical_tb = crit;
    pv_terms = List.mapi (fun k name -> (name, terms.(k))) term_names;
    pv_groups = List.map fst views; pv_slacks = List.concat_map snd views;
    pv_barrier_wait = !barrier_wait; pv_drain_wait = !drain_wait }

let of_profile (pr : Profile.t) =
  let analyze =
    analyze ~op:pr.Profile.p_op ~schedule:pr.Profile.p_schedule
      ~timing:pr.Profile.p_timing pr.Profile.p_program
  in
  match pr.Profile.p_waves with
  | w :: _ -> analyze ~label:w.Timing.rw_label w.Timing.rw_recording
  | [] -> analyze ~label:"full" (Timing.recording ())

(* --- features --- *)

let term t name = Option.value ~default:0.0 (List.assoc_opt name t.pv_terms)

let features t =
  let c = t.pv_wave_cycles in
  let share x = if c > 0.0 then x /. c else 0.0 in
  let base =
    [ ("wave_cycles", c);
      ("compute_share", share (term t "compute"));
      ("exposed_cycles", term t "exposed");
      ("exposed_share", share (term t "exposed"));
      ("scoreboard_share", share (term t "scoreboard"));
      ("sync_share", share (term t "sync"));
      ("issue_share", share (term t "issue"));
      ("barrier_wait_cycles", t.pv_barrier_wait);
      ("drain_wait_cycles", t.pv_drain_wait) ]
  in
  let per_group =
    List.concat_map
      (fun g ->
        let k s = Printf.sprintf "%s.%s" s g.gv_id in
        [ (k "slack_mean", g.gv_mean_slack); (k "slack_min", g.gv_min_slack);
          (k "duty", g.gv_duty); (k "exposed", g.gv_exposed_cycles);
          ( k "high_water_frac",
            if g.gv_footprint_bytes > 0 then
              float_of_int g.gv_high_water_bytes
              /. float_of_int g.gv_footprint_bytes
            else 0.0 ) ])
      t.pv_groups
  in
  base @ per_group

(* --- schedule comparison ---

   Because the five terms partition the critical threadblock's contiguous
   stall segments, rounding each term to integer cycles and summing gives
   an exact integer telescoping: the reported total delta IS the sum of
   the reported term deltas, no residual. *)

type delta_term = {
  dt_name : string;
  dt_a : int;  (** rounded cycles in schedule A *)
  dt_b : int;
  dt_delta : int;  (** [dt_b - dt_a] *)
}

type comparison = {
  cmp_terms : delta_term list;
  cmp_total_a : int;  (** sum of the A terms *)
  cmp_total_b : int;
  cmp_total_delta : int;  (** [cmp_total_b - cmp_total_a], = sum of deltas *)
}

let compare_views a b =
  let r x = int_of_float (Float.round x) in
  let terms =
    List.map
      (fun name ->
        let ta = r (term a name) and tb = r (term b name) in
        { dt_name = name; dt_a = ta; dt_b = tb; dt_delta = tb - ta })
      term_names
  in
  let total_a = List.fold_left (fun acc d -> acc + d.dt_a) 0 terms in
  let total_b = List.fold_left (fun acc d -> acc + d.dt_b) 0 terms in
  { cmp_terms = terms; cmp_total_a = total_a; cmp_total_b = total_b;
    cmp_total_delta = total_b - total_a }

(* --- text rendering --- *)

let fmt_bytes b =
  if b >= 1 lsl 20 then Printf.sprintf "%.1fMiB" (float_of_int b /. 1048576.0)
  else if b >= 1024 then Printf.sprintf "%.1fKiB" (float_of_int b /. 1024.0)
  else Printf.sprintf "%dB" b

let report t =
  let buf = Buffer.create 2048 in
  let line fmt =
    Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt
  in
  let tm = t.pv_timing in
  line "pipeline view: %s%s" t.pv_op
    (if String.equal t.pv_schedule "" then ""
     else "  [" ^ t.pv_schedule ^ "]");
  line "kernel: %.0f cycles (%.1f us), %d wave%s; %s wave critical TB %d = %.0f cycles"
    tm.Timing.total_cycles tm.Timing.microseconds tm.Timing.n_waves
    (if tm.Timing.n_waves = 1 then "" else "s")
    t.pv_wave_label t.pv_critical_tb t.pv_wave_cycles;
  line "cycle partition (critical TB):";
  List.iter
    (fun (name, cyc) ->
      line "  %-11s %12.0f cycles  %5.1f%%" name cyc
        (if t.pv_wave_cycles > 0.0 then 100.0 *. cyc /. t.pv_wave_cycles
         else 0.0))
    t.pv_terms;
  line "  sync detail: barriers %.0f, drain %.0f" t.pv_barrier_wait
    t.pv_drain_wait;
  if t.pv_groups <> [] then begin
    line "";
    line "pipeline groups:";
    List.iter
      (fun g ->
        line "  %s  (%s, %d stage%s, footprint %s/stage%s)" g.gv_id
          (if g.gv_synchronized then "scope-sync" else "register")
          g.gv_stages
          (if g.gv_stages = 1 then "" else "s")
          (fmt_bytes g.gv_footprint_bytes)
          (if g.gv_high_water_bytes > 0 then
             Printf.sprintf ", high-water %s" (fmt_bytes g.gv_high_water_bytes)
           else "");
        line
          "    duty %4.1f%% | waits %d | slack mean %+.0f min %+.0f | exposed %.0f cycles"
          (100.0 *. g.gv_duty) g.gv_n_waits g.gv_mean_slack g.gv_min_slack
          g.gv_exposed_cycles;
        Array.iter
          (fun sl ->
            line "    stage %d: busy %10.0f cycles (%4.1f%%), %d fill/drain interval%s"
              sl.oc_stage sl.oc_busy
              (if t.pv_wave_cycles > 0.0 then
                 100.0 *. sl.oc_busy /. t.pv_wave_cycles
               else 0.0)
              (Array.length sl.oc_intervals)
              (if Array.length sl.oc_intervals = 1 then "" else "s"))
          g.gv_slots)
      t.pv_groups
  end;
  Buffer.contents buf

let compare_report ~label_a ~label_b (a : t) (b : t) =
  let cmp = compare_views a b in
  let buf = Buffer.create 1024 in
  let line fmt =
    Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt
  in
  line "pipeline delta: %s  [%s -> %s]" a.pv_op label_a label_b;
  line "critical-TB cycles: %d -> %d  (delta %+d)" cmp.cmp_total_a
    cmp.cmp_total_b cmp.cmp_total_delta;
  line "%-11s %12s %12s %12s" "term" label_a label_b "delta";
  List.iter
    (fun d -> line "%-11s %12d %12d %+12d" d.dt_name d.dt_a d.dt_b d.dt_delta)
    cmp.cmp_terms;
  line "%-11s %12d %12d %+12d" "total" cmp.cmp_total_a cmp.cmp_total_b
    cmp.cmp_total_delta;
  let sum = List.fold_left (fun acc d -> acc + d.dt_delta) 0 cmp.cmp_terms in
  line "telescoping: sum of term deltas = %+d = total delta (exact)" sum;
  Buffer.contents buf

(* --- JSONL export --- *)

let events t =
  let feats = features t in
  let point =
    Obs.Point
      { name = "pipeview"; ts = 0.0;
        fields =
          [ ("op", Json.Str t.pv_op); ("schedule", Json.Str t.pv_schedule);
            ("wave", Json.Str t.pv_wave_label);
            ("critical_tb", Json.Int t.pv_critical_tb) ]
          @ List.map (fun (k, v) -> (k, Json.Float v)) feats }
  in
  let slack_points =
    List.map
      (fun s ->
        Obs.Point
          { name = "pipeview.slack"; ts = s.sl_start;
            fields =
              [ ("group", Json.Str s.sl_group);
                ("stage", Json.Int s.sl_stage);
                ("ordinal", Json.Int s.sl_ordinal);
                ("ready", Json.Float s.sl_ready);
                ("start", Json.Float s.sl_start);
                ("slack", Json.Float s.sl_slack) ] })
      t.pv_slacks
  in
  let occupancy_spans =
    List.concat_map
      (fun g ->
        Array.to_list g.gv_slots
        |> List.concat_map (fun sl ->
               Array.to_list sl.oc_intervals
               |> List.map (fun (s, e) ->
                      Obs.Span_end
                        { name =
                            Printf.sprintf "occupancy %s s%d" g.gv_id
                              sl.oc_stage;
                          ts = s; dur = e -. s; depth = 0;
                          fields =
                            [ ("group", Json.Str g.gv_id);
                              ("stage", Json.Int sl.oc_stage) ] })))
      t.pv_groups
  in
  (point :: slack_points) @ occupancy_spans
