(* Frozen copy of the pre-packed-program wave simulator.

   This is the boxed-event replay engine exactly as it stood before the
   packed-trace datapath landed: it walks a [Boxed_trace.event array] with
   per-threadblock records, string-keyed pipe hashtables and a batch
   [Queue] per group. It exists only as the reference side of the QCheck
   equivalence properties in [Test_packed] — packed replay must produce
   identical wave latencies, busy counters and per-class stall breakdowns.
   Do not "improve" it; its value is that it does not change. *)

open Alcop_gpusim

(* The probe channel the engine reported through when this copy was
   frozen; the packed engine's recording projects onto it in [Test_packed]. *)

type advance = {
  adv_tb : int;
  adv_class : Timing.stall_class;
  adv_group : string option;
  adv_ordinal : int;
  adv_start : float;
  adv_stop : float;
}

type flight = {
  fl_tb : int;
  fl_group : string option;
  fl_batch : int;
  fl_async : bool;
  fl_level : Trace.level;
  fl_bytes : int;
  fl_issue : float;
  fl_land : float;
}

type probe = {
  on_advance : advance -> unit;
  on_flight : flight -> unit;
}

(* The wave result as it stood when this copy was frozen: latency and
   busy counters, no stall fractions. *)
type wave_result = {
  cycles : float;
  compute_busy : float;
  dram_busy : float;
  llc_busy : float;
  smem_busy : float;
}

type server = { mutable next_free : float; mutable busy : float }

let server () = { next_free = 0.0; busy = 0.0 }

let serve_ex srv ~now ~cost =
  let start = Float.max now srv.next_free in
  let finish = start +. cost in
  srv.next_free <- finish;
  srv.busy <- srv.busy +. cost;
  (start, finish)

let serve srv ~now ~cost = snd (serve_ex srv ~now ~cost)

type mix = {
  mutable mx_dram : float;
  mutable mx_llc : float;
  mutable mx_smem : float;
  mutable mx_lat : float;
}

let mix () = { mx_dram = 0.0; mx_llc = 0.0; mx_smem = 0.0; mx_lat = 0.0 }

let mix_reset m =
  m.mx_dram <- 0.0;
  m.mx_llc <- 0.0;
  m.mx_smem <- 0.0;
  m.mx_lat <- 0.0

let mix_copy m =
  { mx_dram = m.mx_dram; mx_llc = m.mx_llc; mx_smem = m.mx_smem;
    mx_lat = m.mx_lat }

let mix_add dst src =
  dst.mx_dram <- dst.mx_dram +. src.mx_dram;
  dst.mx_llc <- dst.mx_llc +. src.mx_llc;
  dst.mx_smem <- dst.mx_smem +. src.mx_smem;
  dst.mx_lat <- dst.mx_lat +. src.mx_lat

let dominant m =
  if m.mx_dram > 0.0 && m.mx_dram >= m.mx_llc && m.mx_dram >= m.mx_smem
     && m.mx_dram >= m.mx_lat
  then Timing.Dram_bw
  else if m.mx_llc > 0.0 && m.mx_llc >= m.mx_smem && m.mx_llc >= m.mx_lat then
    Timing.Llc_bw
  else if m.mx_smem > 0.0 && m.mx_smem >= m.mx_lat then Timing.Smem_port
  else Timing.Sync_wait

type pipe_acct = {
  mutable open_batch : float;
  mutable committed : int;
  mutable taken : int;
  open_mix : mix;
  batches : (float * mix) Queue.t;
}

type tb = {
  mutable time : float;
  mutable cursor : int;
  mutable sync_recent : float;
  mutable sync_due : float;
  mutable all_outstanding : float;
  mutable at_boundary : bool;
  sync_mix : mix;
  due_mix : mix;
  pipes : (string, pipe_acct) Hashtbl.t;
}

let pipe_of tb gid =
  match Hashtbl.find_opt tb.pipes gid with
  | Some p -> p
  | None ->
    let p =
      { open_batch = 0.0; committed = 0; taken = 0; open_mix = mix ();
        batches = Queue.create () }
    in
    Hashtbl.replace tb.pipes gid p;
    p

let simulate_wave ?probe (cfg : Timing.config)
    (trace : Boxed_trace.event array) =
  let hw = cfg.Timing.hw in
  let active = float_of_int (max 1 cfg.Timing.active_sms) in
  let dram = server () and llc = server () and smem = server ()
  and compute = server () in
  let dram_rate = hw.Alcop_hw.Hw_config.dram_bytes_per_cycle /. active in
  let llc_rate = hw.Alcop_hw.Hw_config.llc_bytes_per_cycle /. active in
  let smem_rate = hw.Alcop_hw.Hw_config.smem_bytes_per_cycle_per_sm in
  let total_warps = cfg.Timing.residents * cfg.Timing.warps_per_tb in
  let util = Float.min 1.0 (float_of_int total_warps /. 4.0) in
  let compute_rate =
    float_of_int hw.Alcop_hw.Hw_config.tensor_core_flops_per_cycle *. util
  in
  let load_latency =
    hw.Alcop_hw.Hw_config.llc_latency
    +. (cfg.Timing.miss_rate
        *. (hw.Alcop_hw.Hw_config.dram_latency
            -. hw.Alcop_hw.Hw_config.llc_latency))
  in
  let tracking = Option.is_some probe in
  let att i cls group ordinal start stop =
    match probe with
    | Some p when stop > start ->
      p.on_advance
        { adv_tb = i; adv_class = cls; adv_group = group;
          adv_ordinal = ordinal; adv_start = start; adv_stop = stop }
    | _ -> ()
  in
  let tbs =
    Array.init cfg.Timing.residents (fun _ ->
        { time = 0.0; cursor = 0; sync_recent = 0.0; sync_due = 0.0;
          all_outstanding = 0.0; at_boundary = false; sync_mix = mix ();
          due_mix = mix (); pipes = Hashtbl.create 4 })
  in
  let n = Array.length trace in
  let step i tb =
    let t0 = tb.time in
    let now = t0 +. cfg.Timing.issue_overhead in
    att i Timing.Issue None (-1) t0 now;
    (match trace.(tb.cursor) with
     | Boxed_trace.Load { level; bytes; async; group } ->
       let b = float_of_int bytes in
       let lmix = if tracking then Some (mix ()) else None in
       let completion =
         match level with
         | Trace.From_global ->
           let lf = serve llc ~now ~cost:(b /. llc_rate) in
           let df =
             serve dram ~now ~cost:(b *. cfg.Timing.miss_rate /. dram_rate)
           in
           (match lmix with
            | Some m ->
              m.mx_llc <- Float.max 0.0 (lf -. now);
              m.mx_dram <- Float.max 0.0 (df -. now);
              m.mx_lat <- load_latency
            | None -> ());
           Float.max lf df +. load_latency
         | Trace.From_shared ->
           let sf =
             serve smem ~now ~cost:(b *. cfg.Timing.smem_penalty /. smem_rate)
           in
           (match lmix with
            | Some m ->
              m.mx_smem <- Float.max 0.0 (sf -. now);
              m.mx_lat <- hw.Alcop_hw.Hw_config.smem_latency
            | None -> ());
           sf +. hw.Alcop_hw.Hw_config.smem_latency
       in
       tb.all_outstanding <- Float.max tb.all_outstanding completion;
       let batch_ord = ref (-1) in
       (if async then begin
          match group with
          | Some gid ->
            let p = pipe_of tb gid in
            p.open_batch <- Float.max p.open_batch completion;
            batch_ord := p.committed;
            (match lmix with Some m -> mix_add p.open_mix m | None -> ())
          | None ->
            tb.sync_recent <- Float.max tb.sync_recent completion;
            (match lmix with Some m -> mix_add tb.sync_mix m | None -> ())
        end
        else begin
          tb.sync_recent <- Float.max tb.sync_recent completion;
          (match lmix with Some m -> mix_add tb.sync_mix m | None -> ())
        end);
       (match probe with
        | Some p ->
          p.on_flight
            { fl_tb = i; fl_group = group; fl_batch = !batch_ord;
              fl_async = async; fl_level = level; fl_bytes = bytes;
              fl_issue = now; fl_land = completion }
        | None -> ());
       tb.time <- now
     | Boxed_trace.Store { bytes } ->
       let completion =
         serve dram ~now ~cost:(float_of_int bytes /. dram_rate)
         +. hw.Alcop_hw.Hw_config.dram_write_latency
       in
       tb.all_outstanding <- Float.max tb.all_outstanding completion;
       tb.time <- now
     | Boxed_trace.Commit { group = gid; _ } ->
       let p = pipe_of tb gid in
       Queue.push
         (p.open_batch, if tracking then mix_copy p.open_mix else p.open_mix)
         p.batches;
       p.open_batch <- 0.0;
       p.committed <- p.committed + 1;
       if tracking then mix_reset p.open_mix;
       tb.time <- now
     | Boxed_trace.Wait_oldest { group = gid; _ } ->
       let p = pipe_of tb gid in
       let ready, rmix =
         match Queue.take_opt p.batches with
         | Some (c, m) -> (c, m)
         | None -> (0.0, tb.due_mix)
       in
       let ordinal = p.taken in
       p.taken <- p.taken + 1;
       if List.mem gid cfg.Timing.barrier_groups then tb.at_boundary <- true;
       let t = Float.max now ready in
       att i (dominant rmix) (Some gid) ordinal now t;
       tb.time <- t
     | Boxed_trace.Acquire _ | Boxed_trace.Release _ -> tb.time <- now
     | Boxed_trace.Barrier ->
       tb.at_boundary <- true;
       let t = Float.max now tb.all_outstanding in
       att i Timing.Sync_wait None (-1) now t;
       tb.time <- t
     | Boxed_trace.Compute { flops } ->
       if tb.at_boundary then begin
         tb.sync_due <- Float.max tb.sync_due tb.sync_recent;
         tb.sync_recent <- 0.0;
         if tracking then begin
           mix_add tb.due_mix tb.sync_mix;
           mix_reset tb.sync_mix
         end;
         tb.at_boundary <- false
       end;
       let start = Float.max now tb.sync_due in
       att i (dominant tb.due_mix) None (-1) now start;
       tb.sync_due <- Float.max tb.sync_due tb.sync_recent;
       tb.sync_recent <- 0.0;
       if tracking then begin
         mix_add tb.due_mix tb.sync_mix;
         mix_reset tb.sync_mix
       end;
       let finish =
         serve compute ~now:start ~cost:(float_of_int flops /. compute_rate)
       in
       att i Timing.Compute None (-1) start finish;
       tb.time <- finish);
    tb.cursor <- tb.cursor + 1;
    if tb.cursor >= n then begin
      let t = Float.max tb.time tb.all_outstanding in
      att i Timing.Sync_wait None (-1) tb.time t;
      tb.time <- t
    end
  in
  let rec drive () =
    let best = ref (-1) in
    Array.iteri
      (fun i tb ->
        if tb.cursor < n && (!best < 0 || tb.time < tbs.(!best).time) then
          best := i)
      tbs;
    if !best >= 0 then begin
      step !best tbs.(!best);
      drive ()
    end
  in
  if n > 0 then drive ();
  let cycles = Array.fold_left (fun acc tb -> Float.max acc tb.time) 0.0 tbs in
  { cycles; compute_busy = compute.busy; dram_busy = dram.busy;
    llc_busy = llc.busy; smem_busy = smem.busy }
