(* Discrete-event timing simulator.

   One "wave" simulates the co-resident threadblocks of one SM replaying
   the kernel's event trace, contending for four resources: DRAM bandwidth
   (device-wide, divided by active SMs), LLC bandwidth (likewise), the SM's
   shared-memory throughput and the SM's tensor cores. Kernel latency is
   wave latency times the number of threadblock waves (the paper's
   threadblock-batch model, Sec. IV-A), plus the partial tail wave and a
   launch overhead.

   Blocking rules:
   - loads never block at issue; their completion times are assigned from
     the relevant bandwidth servers plus a round-trip latency;
   - a compute event blocks on all outstanding synchronous loads (the
     scoreboard) and on explicit pipeline waits that precede it;
   - a barrier blocks on every outstanding load of the threadblock;
   - Wait_oldest blocks until the oldest committed batch of its pipeline
     group has landed; Acquire/Release/Commit are bookkeeping.

   This simulator is deliberately richer than the analytical model of paper
   Table I (cache locality, wave quantization, bank conflicts, issue
   overhead, launch overhead, deterministic residual perturbation), so that
   learned cost models retain an edge over the analytical model alone
   (paper Sec. IV-C).

   The replay engine runs on the packed [Trace.program] representation:
   per-threadblock state lives in flat arrays indexed by threadblock (and
   by threadblock x group for pipeline accounting), and batch ordinals /
   ring depths are read off the program instead of being discovered with
   queues — every threadblock executes the same program, so they are
   static. All per-wave state comes from a domain-local scratch arena that
   grows to the high-water mark and is reused across waves, so a wave
   simulation allocates O(1) words regardless of trace length.

   Every wave attributes its stalls: each advance of a threadblock's clock
   carries the stall class that caused it, and the engine sums those
   advances per (threadblock, class) in its scratch, so every result
   carries the critical threadblock's stall fractions. A wave can
   additionally be recorded: the engine then also writes every observation
   — each classified advance, each load's issue-to-land flight, each
   pipeline fill and consume, each barrier and drain wait — into one
   [recording], which [Profile] and [Pipeview] fold over. *)

type config = {
  hw : Alcop_hw.Hw_config.t;
  residents : int;
  active_sms : int;
  warps_per_tb : int;
  miss_rate : float;
  smem_penalty : float;
  issue_overhead : float;
  barrier_groups : string list;
      (** scope-synchronized pipeline groups: their waits are hoisting
          barriers like [Barrier] itself *)
}

type server = { mutable next_free : float; mutable busy : float }

let server () = { next_free = 0.0; busy = 0.0 }

(* Simulated times are never NaN, so a plain compare matches [fmax]
   bit-for-bit. Both helpers are small enough for the non-flambda inliner:
   on the per-event path neither the comparison nor the served floats box,
   which is what keeps a wave O(1) allocation. *)
let fmax (a : float) (b : float) = if a >= b then a else b

let serve srv ~now ~cost =
  let start = fmax now srv.next_free in
  let finish = start +. cost in
  srv.next_free <- finish;
  srv.busy <- srv.busy +. cost;
  finish

(* --- stall attribution --- *)

type stall_class =
  | Compute
  | Dram_bw
  | Llc_bw
  | Smem_port
  | Sync_wait
  | Issue
  | Launch

let stall_class_name = function
  | Compute -> "compute"
  | Dram_bw -> "dram_bw"
  | Llc_bw -> "llc_bw"
  | Smem_port -> "smem_port"
  | Sync_wait -> "sync_wait"
  | Issue -> "issue"
  | Launch -> "launch"

let all_stall_classes =
  [ Compute; Dram_bw; Llc_bw; Smem_port; Sync_wait; Issue; Launch ]

type wave_result = {
  cycles : float;
  compute_busy : float;
  dram_busy : float;
  llc_busy : float;
  smem_busy : float;
  stall_compute : float;
  stall_dram_bw : float;
  stall_llc_bw : float;
  stall_smem_port : float;
  stall_sync_wait : float;
  stall_issue : float;
}

(* --- cause mixes, packed ---

   Cause composition of a set of outstanding loads: how much of their
   completion time went to DRAM service/queueing, LLC service/queueing,
   shared-memory throughput, and fixed round-trip latency. When a consumer
   stalls on those loads the dominant component classifies the stall:
   queue-heavy loads mean the stall is a bandwidth problem (more pipeline
   stages will NOT hide it), latency-heavy loads mean it is hideable
   latency (the Fig. 1b story).

   A mix is four consecutive floats [dram; llc; smem; lat] at a base index
   of a flat float array — no records, so every wave reuses scratch. The
   arrays are typed [float array]: a polymorphic copy would box every
   float it moves. *)

let[@inline] mix_reset4 m base =
  m.(base) <- 0.0;
  m.(base + 1) <- 0.0;
  m.(base + 2) <- 0.0;
  m.(base + 3) <- 0.0

let[@inline] mix_copy4 (dst : float array) dbase (src : float array) sbase =
  dst.(dbase) <- src.(sbase);
  dst.(dbase + 1) <- src.(sbase + 1);
  dst.(dbase + 2) <- src.(sbase + 2);
  dst.(dbase + 3) <- src.(sbase + 3)

let[@inline] mix_add4 dst dbase src sbase =
  dst.(dbase) <- dst.(dbase) +. src.(sbase);
  dst.(dbase + 1) <- dst.(dbase + 1) +. src.(sbase + 1);
  dst.(dbase + 2) <- dst.(dbase + 2) +. src.(sbase + 2);
  dst.(dbase + 3) <- dst.(dbase + 3) +. src.(sbase + 3)

let[@inline] mix_dominant m base =
  let d = m.(base) and l = m.(base + 1) and s = m.(base + 2)
  and t = m.(base + 3) in
  if d > 0.0 && d >= l && d >= s && d >= t then Dram_bw
  else if l > 0.0 && l >= s && l >= t then Llc_bw
  else if s > 0.0 && s >= t then Smem_port
  else Sync_wait

let[@inline] stall_class_index = function
  | Compute -> 0
  | Dram_bw -> 1
  | Llc_bw -> 2
  | Smem_port -> 3
  | Sync_wait -> 4
  | Issue -> 5
  | Launch -> 6

let stall_class_of_index =
  [| Compute; Dram_bw; Llc_bw; Smem_port; Sync_wait; Issue; Launch |]

(* --- the recording ---

   Every observation of one wave, in engine order, as parallel columns
   that grow to the high-water mark: writing an entry allocates nothing.
   An entry keeps the program counter of the event that produced it
   instead of copying its operands (group, batch ordinal, consumed batch,
   bytes, flags), so [event] reads those back from the program. Kinds
   below [k_flight] are intervals, the kind being the stall-class index. *)

type event =
  | Interval of {
      tb : int;
      cls : stall_class;
      group : int;
      ordinal : int;
      start : float;
      stop : float;
    }
  | Flight of {
      tb : int;
      group : int;
      batch : int;
      async : bool;
      level : Trace.level;
      bytes : int;
      issue : float;
      landed : float;
    }
  | Fill of {
      tb : int;
      group : int;
      batch : int;
      commit : float;
      ready : float;
    }
  | Consume of {
      tb : int;
      group : int;
      ordinal : int;
      consumed : int;
      start : float;
      ready : float;
      finish : float;
    }
  | Barrier_wait of { tb : int; start : float; finish : float }
  | Drain of { tb : int; start : float; finish : float }

let k_flight = 7
let k_fill = 8
let k_consume = 9
let k_barrier = 10
let k_drain = 11

type recording = {
  mutable program : Trace.program;
  mutable residents : int;
  mutable len : int;
  mutable kind : int array;
  mutable tb : int array;
  mutable pc : int array;  (* -1: an interval no pipeline wait caused *)
  mutable t0 : float array;
  mutable t1 : float array;
  mutable t2 : float array;
}

let empty_program =
  let col () = Bigarray.Array1.create Bigarray.int Bigarray.c_layout 0 in
  { Trace.n = 0; opcode = col (); arg = col (); group = col (); flags = col ();
    batch = col (); groups = [||]; group_depth = [||]; group_stages = [||];
    group_sync = [||]; group_bytes = [||] }

let recording () =
  { program = empty_program; residents = 0; len = 0; kind = [||]; tb = [||];
    pc = [||]; t0 = [||]; t1 = [||]; t2 = [||] }

(* Stands in for "no recording" so the engine needs no option match per
   write; every write is guarded by [tracking], so it stays empty. *)
let no_recording = recording ()

let grow rc =
  let cap = Array.length rc.kind in
  let ncap = if cap = 0 then 1024 else 2 * cap in
  let gi old =
    let x = Array.make ncap 0 in
    Array.blit old 0 x 0 cap;
    x
  in
  let gf old =
    let x = Array.make ncap 0.0 in
    Array.blit old 0 x 0 cap;
    x
  in
  rc.kind <- gi rc.kind;
  rc.tb <- gi rc.tb;
  rc.pc <- gi rc.pc;
  rc.t0 <- gf rc.t0;
  rc.t1 <- gf rc.t1;
  rc.t2 <- gf rc.t2

(* Inlined into the engine, so the floats are stored unboxed. *)
let[@inline] push rc kind tb pc t0 t1 t2 =
  if rc.len = Array.length rc.kind then grow rc;
  let k = rc.len in
  rc.kind.(k) <- kind;
  rc.tb.(k) <- tb;
  rc.pc.(k) <- pc;
  rc.t0.(k) <- t0;
  rc.t1.(k) <- t1;
  rc.t2.(k) <- t2;
  rc.len <- k + 1

let n_classes = 7  (* [Array.length stall_class_of_index], as a constant *)

(* One advance of threadblock [tb]'s clock, caused by [cls]: summed into
   the threadblock's per-class totals [stall] ([n_classes] per
   threadblock), and written to the recording when [tracking]. Only
   non-empty advances count, so a threadblock's recorded intervals stay
   contiguous from 0 to its finish time and are exactly the ones summed. *)
let[@inline] interval tracking rc (stall : float array) tb cls pc start stop =
  if stop > start then begin
    let k = stall_class_index cls in
    let s = (n_classes * tb) + k in
    stall.(s) <- stall.(s) +. (stop -. start);
    if tracking then push rc k tb pc start stop 0.0
  end

let event rc k =
  let p = rc.program and tb = rc.tb.(k) and c = rc.pc.(k) in
  let kind = rc.kind.(k) and t0 = rc.t0.(k) and t1 = rc.t1.(k) in
  if kind < k_flight then
    Interval
      { tb; cls = stall_class_of_index.(kind);
        group = (if c >= 0 then p.Trace.group.{c} else -1);
        ordinal = (if c >= 0 then p.Trace.batch.{c} else -1);
        start = t0; stop = t1 }
  else if kind = k_flight then begin
    let fl = p.Trace.flags.{c} in
    Flight
      { tb; group = p.Trace.group.{c}; batch = p.Trace.batch.{c};
        async = fl land Trace.flag_async <> 0;
        level =
          (if fl land Trace.flag_shared <> 0 then Trace.From_shared
           else Trace.From_global);
        bytes = p.Trace.arg.{c}; issue = t0; landed = t1 }
  end
  else if kind = k_fill then
    Fill
      { tb; group = p.Trace.group.{c}; batch = p.Trace.batch.{c};
        commit = t0; ready = t1 }
  else if kind = k_consume then
    Consume
      { tb; group = p.Trace.group.{c}; ordinal = p.Trace.batch.{c};
        consumed = p.Trace.arg.{c}; start = t0; ready = t1;
        finish = rc.t2.(k) }
  else if kind = k_barrier then Barrier_wait { tb; start = t0; finish = t1 }
  else Drain { tb; start = t0; finish = t1 }

let fold ?tb f acc rc =
  let acc = ref acc in
  for k = 0 to rc.len - 1 do
    match tb with
    | Some i when rc.tb.(k) <> i -> ()
    | _ -> acc := f !acc (event rc k)
  done;
  !acc

let finish_times rc =
  let fin = Array.make rc.residents 0.0 in
  for k = 0 to rc.len - 1 do
    if rc.kind.(k) = k_drain then fin.(rc.tb.(k)) <- rc.t1.(k)
  done;
  fin

let critical_tb rc =
  let fin = finish_times rc in
  let crit = ref 0 in
  Array.iteri (fun i f -> if f > fin.(!crit) then crit := i) fin;
  !crit

(* --- per-wave scratch ---

   Flat state arrays, domain-local and grow-only: acquired at the top of a
   wave simulation, zeroed to the needed extent, returned on exit. The
   [in_use] flag guards against re-entrancy by falling back to a fresh
   allocation. *)

type scratch = {
  mutable in_use : bool;
  mutable sc_time : float array;  (* per tb *)
  mutable sc_recent : float array;  (* per tb: sync_recent *)
  mutable sc_due : float array;  (* per tb: sync_due *)
  mutable sc_out : float array;  (* per tb: all_outstanding *)
  mutable sc_cursor : int array;  (* per tb *)
  mutable sc_boundary : bool array;  (* per tb: at_boundary *)
  mutable sc_open : float array;  (* per tb x group: open batch *)
  mutable sc_ring : float array;  (* per tb x group x depth slot *)
  mutable sc_sync_mix : float array;  (* per tb *)
  mutable sc_due_mix : float array;  (* per tb *)
  mutable sc_open_mix : float array;  (* per tb x group *)
  mutable sc_ring_mix : float array;  (* per ring slot *)
  mutable sc_stall : float array;  (* per tb x stall class: cycles *)
  mutable sc_heap : int array;  (* unfinished tbs, min-heap by (time, tb) *)
}

let fresh_scratch () =
  { in_use = false; sc_time = [||]; sc_recent = [||]; sc_due = [||];
    sc_out = [||]; sc_cursor = [||]; sc_boundary = [||]; sc_open = [||];
    sc_ring = [||]; sc_sync_mix = [||]; sc_due_mix = [||];
    sc_open_mix = [||]; sc_ring_mix = [||]; sc_stall = [||]; sc_heap = [||] }

let scratch_key = Domain.DLS.new_key fresh_scratch

let fgrow cur n =
  if Array.length cur >= n then begin
    Array.fill cur 0 n 0.0;
    cur
  end
  else Array.make n 0.0

let igrow cur n =
  if Array.length cur >= n then begin
    Array.fill cur 0 n 0;
    cur
  end
  else Array.make n 0

let bgrow cur n =
  if Array.length cur >= n then begin
    Array.fill cur 0 n false;
    cur
  end
  else Array.make n false

(* --- the wave engine --- *)

(* Retire threadblock [i]'s synchronous loads issued since the last
   retirement onto its scoreboard: their latest completion into [due],
   their cause mix into [due_mix]. With none, [recent] is [0.] and the mix
   all zeros, so there is nothing to add. *)
let[@inline] settle (due : float array) (recent : float array) due_mix
    sync_mix i =
  let r = recent.(i) in
  if r > 0.0 then begin
    due.(i) <- fmax due.(i) r;
    recent.(i) <- 0.0;
    mix_add4 due_mix (4 * i) sync_mix (4 * i);
    mix_reset4 sync_mix (4 * i)
  end

(* Threadblock [tb]'s cycles in class [cls] over the wave's [cycles]. *)
let[@inline] stall_fraction (stall : float array) tb cls cycles =
  if cycles > 0.0 then
    stall.((n_classes * tb) + stall_class_index cls) /. cycles
  else 0.0

(* --- the run order ---

   The unfinished threadblocks form a binary min-heap [heap.(0 .. size-1)]
   ordered by (clock, index). *)

let[@inline] before (time : float array) x y =
  let tx = time.(x) and ty = time.(y) in
  tx < ty || (tx = ty && x < y)

(* Restore the heap after the root's key grew. *)
let sift_down (time : float array) (heap : int array) size =
  let x = heap.(0) in
  let tx = time.(x) in
  let k = ref 0 and go = ref true in
  while !go do
    let l = (2 * !k) + 1 in
    if l >= size then go := false
    else begin
      let m =
        if l + 1 < size && before time heap.(l + 1) heap.(l) then l + 1 else l
      in
      let y = heap.(m) in
      let ty = time.(y) in
      if ty < tx || (ty = tx && y < x) then begin
        heap.(!k) <- y;
        k := m
      end
      else go := false
    end
  done;
  heap.(!k) <- x

let k_issue = stall_class_index Issue

let simulate_packed ?recording (cfg : config) (p : Trace.program) =
  let hw = cfg.hw in
  let active = float_of_int (max 1 cfg.active_sms) in
  let dram = server () and llc = server () and smem = server ()
  and compute = server () in
  let dram_rate = hw.Alcop_hw.Hw_config.dram_bytes_per_cycle /. active in
  let llc_rate = hw.Alcop_hw.Hw_config.llc_bytes_per_cycle /. active in
  let smem_rate = hw.Alcop_hw.Hw_config.smem_bytes_per_cycle_per_sm in
  let total_warps = cfg.residents * cfg.warps_per_tb in
  (* Four scheduler partitions per SM: tensor cores reach peak only with at
     least four resident warps. *)
  let util = Float.min 1.0 (float_of_int total_warps /. 4.0) in
  let compute_rate =
    float_of_int hw.Alcop_hw.Hw_config.tensor_core_flops_per_cycle *. util
  in
  let load_latency =
    hw.Alcop_hw.Hw_config.llc_latency
    +. (cfg.miss_rate
        *. (hw.Alcop_hw.Hw_config.dram_latency -. hw.Alcop_hw.Hw_config.llc_latency))
  in
  let smem_latency = hw.Alcop_hw.Hw_config.smem_latency in
  let tracking = recording <> None in
  let rc = Option.value recording ~default:no_recording in
  let r = cfg.residents in
  if tracking then begin
    rc.program <- p;
    rc.residents <- r;
    rc.len <- 0
  end;
  let ng = Array.length p.Trace.groups in
  let maxd =
    Array.fold_left (fun acc d -> max acc d) 1 p.Trace.group_depth
  in
  let is_barrier =
    Array.map (fun gid -> Alcop_ir.Names.mem gid cfg.barrier_groups) p.Trace.groups
  in
  let sc =
    let sc = Domain.DLS.get scratch_key in
    if sc.in_use then fresh_scratch () else sc
  in
  sc.in_use <- true;
  Fun.protect ~finally:(fun () -> sc.in_use <- false) @@ fun () ->
  sc.sc_time <- fgrow sc.sc_time r;
  sc.sc_recent <- fgrow sc.sc_recent r;
  sc.sc_due <- fgrow sc.sc_due r;
  sc.sc_out <- fgrow sc.sc_out r;
  sc.sc_cursor <- igrow sc.sc_cursor r;
  sc.sc_boundary <- bgrow sc.sc_boundary r;
  sc.sc_open <- fgrow sc.sc_open (r * ng);
  sc.sc_ring <- fgrow sc.sc_ring (r * ng * maxd);
  sc.sc_sync_mix <- fgrow sc.sc_sync_mix (4 * r);
  sc.sc_due_mix <- fgrow sc.sc_due_mix (4 * r);
  sc.sc_open_mix <- fgrow sc.sc_open_mix (4 * r * ng);
  sc.sc_ring_mix <- fgrow sc.sc_ring_mix (4 * r * ng * maxd);
  sc.sc_stall <- fgrow sc.sc_stall (n_classes * r);
  sc.sc_heap <- igrow sc.sc_heap r;
  let time = sc.sc_time and recent = sc.sc_recent and due = sc.sc_due
  and out = sc.sc_out and cursor = sc.sc_cursor
  and boundary = sc.sc_boundary and openb = sc.sc_open
  and ring = sc.sc_ring and heap = sc.sc_heap in
  let sync_mix = sc.sc_sync_mix and due_mix = sc.sc_due_mix
  and open_mix = sc.sc_open_mix and ring_mix = sc.sc_ring_mix
  and stall = sc.sc_stall in
  let n = p.Trace.n in
  let opcode = p.Trace.opcode and arg = p.Trace.arg
  and group = p.Trace.group and flags = p.Trace.flags
  and batch = p.Trace.batch and gdepth = p.Trace.group_depth in
  (* The running threadblock [b]: its clock, cursor and [Issue] cycles
     live here while it runs ahead, and go back to [time], [cursor] and
     [stall] when it stops. [s] is the runner-up, with clock [ts]. *)
  let b = ref 0 and clock = ref 0.0 and c = ref 0 and issued = ref 0.0 in
  let s = ref (-1) and ts = ref 0.0 and ahead = ref true in
  let step () =
    let i = !b in
    let t0 = !clock in
    let now = t0 +. cfg.issue_overhead in
    if now > t0 then begin
      issued := !issued +. (now -. t0);
      if tracking then push rc k_issue i (-1) t0 now 0.0
    end;
    let c0 = !c in
    let op = opcode.{c0} in
    if op = Trace.op_load then begin
      let fbytes = float_of_int arg.{c0} in
      let fl = flags.{c0} in
      let shared = fl land Trace.flag_shared <> 0 in
      let async = fl land Trace.flag_async <> 0 in
      let g = group.{c0} in
      let piped = async && g >= 0 in
      (* destination accumulator of this load's cause components: the open
         batch of its pipe, or the threadblock's synchronous scoreboard *)
      let dst, dbase =
        if piped then (open_mix, 4 * ((i * ng) + g)) else (sync_mix, 4 * i)
      in
      let completion =
        if not shared then begin
          let lf = serve llc ~now ~cost:(fbytes /. llc_rate) in
          let df = serve dram ~now ~cost:(fbytes *. cfg.miss_rate /. dram_rate) in
          dst.(dbase) <- dst.(dbase) +. fmax 0.0 (df -. now);
          dst.(dbase + 1) <- dst.(dbase + 1) +. fmax 0.0 (lf -. now);
          dst.(dbase + 3) <- dst.(dbase + 3) +. load_latency;
          fmax lf df +. load_latency
        end
        else begin
          let sf = serve smem ~now ~cost:(fbytes *. cfg.smem_penalty /. smem_rate) in
          dst.(dbase + 2) <- dst.(dbase + 2) +. fmax 0.0 (sf -. now);
          dst.(dbase + 3) <- dst.(dbase + 3) +. smem_latency;
          sf +. smem_latency
        end
      in
      out.(i) <- fmax out.(i) completion;
      if piped then begin
        let pg = (i * ng) + g in
        openb.(pg) <- fmax openb.(pg) completion
      end
      else recent.(i) <- fmax recent.(i) completion;
      if tracking then push rc k_flight i c0 now completion 0.0;
      clock := now
    end
    else if op = Trace.op_store then begin
      let completion =
        serve dram ~now ~cost:(float_of_int arg.{c0} /. dram_rate)
        +. hw.Alcop_hw.Hw_config.dram_write_latency
      in
      out.(i) <- fmax out.(i) completion;
      clock := now
    end
    else if op = Trace.op_commit then begin
      let g = group.{c0} in
      let pg = (i * ng) + g in
      let slot = (pg * maxd) + (batch.{c0} mod gdepth.(g)) in
      ring.(slot) <- openb.(pg);
      openb.(pg) <- 0.0;
      if tracking then push rc k_fill i c0 now ring.(slot) 0.0;
      mix_copy4 ring_mix (4 * slot) open_mix (4 * pg);
      mix_reset4 open_mix (4 * pg);
      clock := now
    end
    else if op = Trace.op_wait then begin
      let g = group.{c0} in
      (* [arg] carries the index of the committed batch this wait consumes
         (-1 when the queue would have been empty), [batch] its
         consumption ordinal — both precomputed by the trace builder. *)
      let consumed = arg.{c0} in
      let slot =
        if consumed >= 0 then
          ((((i * ng) + g) * maxd) + (consumed mod gdepth.(g)))
        else -1
      in
      let ready = if consumed >= 0 then ring.(slot) else 0.0 in
      if is_barrier.(g) then boundary.(i) <- true;
      let t = fmax now ready in
      if t > now then
        interval tracking rc stall i
          (if consumed >= 0 then mix_dominant ring_mix (4 * slot)
           else mix_dominant due_mix (4 * i))
          c0 now t;
      if tracking then push rc k_consume i c0 now ready t;
      clock := t
    end
    else if op = Trace.op_acquire || op = Trace.op_release then
      (* Stage-slot accounting has no timing effect in a lockstep
         threadblock model: releases precede acquires in program order. *)
      clock := now
    else if op = Trace.op_barrier then begin
      boundary.(i) <- true;
      let t = fmax now out.(i) in
      interval tracking rc stall i Sync_wait (-1) now t;
      if tracking then push rc k_barrier i c0 now t 0.0;
      clock := t
    end
    else begin
      (* compute *)
      if boundary.(i) then begin
        (* loads issued since the boundary could not be hoisted above it *)
        settle due recent due_mix sync_mix i;
        boundary.(i) <- false
      end;
      let start = fmax now due.(i) in
      if start > now then
        interval tracking rc stall i (mix_dominant due_mix (4 * i)) (-1) now
          start;
      settle due recent due_mix sync_mix i;
      let finish =
        serve compute ~now:start
          ~cost:(float_of_int arg.{c0} /. compute_rate)
      in
      interval tracking rc stall i Compute (-1) start finish;
      clock := finish
    end;
    c := c0 + 1;
    if c0 + 1 >= n then begin
      (* drain: the epilogue waits for every outstanding store/load *)
      let t0d = !clock in
      let t = fmax t0d out.(i) in
      interval tracking rc stall i Sync_wait (-1) t0d t;
      if tracking then push rc k_drain i (-1) t0d t 0.0;
      clock := t
    end;
    ahead := !c < n && (!s < 0 || !clock < !ts || (!clock = !ts && i < !s))
  in
  (* Step the unfinished threadblock minimal by (time, index), one event
     at a time, so server queues interleave in global time order. That is
     the root [b] of [heap]; the runner-up [s] is the lesser of its two
     children. [b] steps, then runs ahead: it steps on while unfinished and
     still ahead of [s] by (time, index). A step changes only [b]'s own
     state, so every other key stays put and the next pick would be [b]
     again: same steps, same order (doc/architecture.md). Then [b] is
     sifted down, or dropped once finished. All clocks start at 0, so
     index order is a valid heap. [step] keeps one call site, in tail
     position of the run-ahead loop body, so it compiles to a local jump
     instead of an allocated closure. *)
  if n > 0 then begin
    for k = 0 to r - 1 do
      heap.(k) <- k
    done;
    let size = ref r in
    while !size > 0 do
      let i = heap.(0) in
      s :=
        if !size > 2 && before time heap.(2) heap.(1) then heap.(2)
        else if !size > 1 then heap.(1)
        else -1;
      if !s >= 0 then ts := time.(!s);
      let si = (n_classes * i) + k_issue in
      b := i;
      clock := time.(i);
      c := cursor.(i);
      issued := stall.(si);
      ahead := true;
      while !ahead do
        step ()
      done;
      time.(i) <- !clock;
      cursor.(i) <- !c;
      stall.(si) <- !issued;
      if !c >= n then begin
        decr size;
        heap.(0) <- heap.(!size)
      end;
      sift_down time heap !size
    done
  end;
  (* The critical threadblock is [critical_tb]'s: the lowest index among
     the maximal finish times, which is where the wave ends. *)
  let cycles = ref 0.0 and crit = ref 0 in
  for i = 0 to r - 1 do
    if time.(i) > !cycles then begin
      cycles := time.(i);
      crit := i
    end
  done;
  let cycles = !cycles and crit = !crit in
  { cycles; compute_busy = compute.busy; dram_busy = dram.busy;
    llc_busy = llc.busy; smem_busy = smem.busy;
    stall_compute = stall_fraction stall crit Compute cycles;
    stall_dram_bw = stall_fraction stall crit Dram_bw cycles;
    stall_llc_bw = stall_fraction stall crit Llc_bw cycles;
    stall_smem_port = stall_fraction stall crit Smem_port cycles;
    stall_sync_wait = stall_fraction stall crit Sync_wait cycles;
    stall_issue = stall_fraction stall crit Issue cycles }

let simulate_program = simulate_packed

(* No-ops kept for perfbench/, which still calls them. *)
let with_wave_reuse f = f ()
let wave_reuse_stats () = (0, 0)
let wave_cache_clear () = ()

(* --- Whole-kernel latency --- *)

type request = {
  hw : Alcop_hw.Hw_config.t;
  program : Trace.program;
  total_tbs : int;
  warps_per_tb : int;
  occupancy : Occupancy.t;
  grid_m : int;
  grid_n : int;
  grid_z : int;
  tb_m : int;
  tb_n : int;
  tb_k : int;
  elem_bytes : int;
  swizzle : bool;
  jitter_key : int;
  barrier_groups : string list;
}

type kernel_timing = {
  total_cycles : float;
  microseconds : float;
  n_waves : int;
  tbs_per_sm : int;
  occupancy_limiter : string;
  wave_cycles : float;
  tail_cycles : float;
  miss_rate : float;
  wave_busy : wave_result option;
      (** busy breakdown and stall fractions of the representative wave
          (full wave when one exists, else the tail wave); [None] for an
          empty trace *)
}

let compute_utilization k =
  match k.wave_busy with
  | Some r when r.cycles > 0.0 -> Float.min 1.0 (r.compute_busy /. r.cycles)
  | Some _ | None -> 0.0

(* The one publisher of [timing.*] gauges, so a compile and a session hit
   publish the same values in the same order. *)
let publish_gauges k =
  let open Alcop_obs in
  (match k.wave_busy with
   | Some r when r.cycles > 0.0 ->
     let frac busy = Float.min 1.0 (busy /. r.cycles) in
     Obs.gauge "timing.busy.compute" (frac r.compute_busy);
     Obs.gauge "timing.busy.dram" (frac r.dram_busy);
     Obs.gauge "timing.busy.llc" (frac r.llc_busy);
     Obs.gauge "timing.busy.smem" (frac r.smem_busy);
     Obs.gauge "timing.stall.compute" r.stall_compute;
     Obs.gauge "timing.stall.dram_bw" r.stall_dram_bw;
     Obs.gauge "timing.stall.llc_bw" r.stall_llc_bw;
     Obs.gauge "timing.stall.smem_port" r.stall_smem_port;
     Obs.gauge "timing.stall.sync_wait" r.stall_sync_wait;
     Obs.gauge "timing.stall.issue" r.stall_issue
   | Some _ | None -> ());
  Obs.gauge "timing.tbs_per_sm" (float_of_int k.tbs_per_sm);
  Obs.gauge "timing.n_waves" (float_of_int k.n_waves);
  Obs.gauge "timing.miss_rate" k.miss_rate

let launch_overhead_cycles = 2200.0

(* Deterministic residual: hardware effects outside the model (clock
   behaviour, instruction scheduling, partition camping) folded into a
   +-3% multiplier keyed by the schedule. *)
let jitter key =
  let h = Hashtbl.hash (key, 0x5DEECE66D) land 0xFFFF in
  1.0 +. (0.06 *. ((float_of_int h /. 65535.0) -. 0.5))

let bank_conflict_penalty ~swizzle ~tb_k ~elem_bytes =
  if swizzle then 1.0
  else begin
    (* Without swizzling, power-of-two row strides land warps on the same
       banks; worst when the row stride is a multiple of the 128-byte bank
       window. *)
    let row = tb_k * elem_bytes in
    if row mod 128 = 0 then 3.0 else 2.0
  end

(* The wave plan: how the grid quantizes into full and tail waves under the
   request's launch verdict, and the per-wave simulation configs. *)
type plan = {
  full_waves : int;
  remainder : int;  (** threadblocks in the partial tail wave *)
  full_cfg : config option;  (** [Some] iff [full_waves > 0] *)
  tail_cfg : config option;  (** [Some] iff [remainder > 0] *)
}

let plan (req : request) =
  let hw = req.hw in
  let slots = req.occupancy.Occupancy.tbs_per_sm * hw.Alcop_hw.Hw_config.num_sms in
  let full_waves = req.total_tbs / slots in
  let rem = req.total_tbs mod slots in
  let wave_cfg residents active =
    let loc =
      Locality.compute hw ~grid_m:req.grid_m ~grid_n:req.grid_n
        ~grid_z:req.grid_z ~tb_m:req.tb_m ~tb_n:req.tb_n ~tb_k:req.tb_k
        ~elem_bytes:req.elem_bytes ~resident_tbs:(residents * active)
    in
    { hw; residents; active_sms = active; warps_per_tb = req.warps_per_tb;
      miss_rate = loc.Locality.miss_rate;
      smem_penalty =
        bank_conflict_penalty ~swizzle:req.swizzle ~tb_k:req.tb_k
          ~elem_bytes:req.elem_bytes;
      issue_overhead = 4.0;
      barrier_groups = req.barrier_groups }
  in
  let full_cfg =
    if full_waves > 0 then
      Some (wave_cfg req.occupancy.Occupancy.tbs_per_sm hw.Alcop_hw.Hw_config.num_sms)
    else None
  in
  let tail_cfg =
    if rem > 0 then begin
      let active = min hw.Alcop_hw.Hw_config.num_sms rem in
      Some (wave_cfg ((rem + active - 1) / active) active)
    end
    else None
  in
  { full_waves; remainder = rem; full_cfg; tail_cfg }

type recorded_wave = {
  rw_label : string;
  rw_count : int;
  rw_config : config;
  rw_result : wave_result;
  rw_recording : recording;
}

(* Time a planned kernel, simulating the full wave with [full_rc] and the
   tail wave with [tail_rc] when given. With [recorded], also return each
   recorded wave through it. *)
let time_kernel ?recorded (req : request) pl ~full_rc ~tail_rc =
  let hw = req.hw in
  let occ = req.occupancy in
  let full_waves = pl.full_waves and rem = pl.remainder in
  let sim rc = function
    | Some cfg -> Some (cfg, simulate_packed ?recording:rc cfg req.program)
    | None -> None
  in
  let full_result = sim full_rc pl.full_cfg in
  let tail_result = sim tail_rc pl.tail_cfg in
  let wave_cycles =
    match full_result with Some (_, r) -> r.cycles | None -> 0.0
  in
  let tail_cycles =
    match tail_result with Some (_, r) -> r.cycles | None -> 0.0
  in
  let body = (float_of_int full_waves *. wave_cycles) +. tail_cycles in
  let total_cycles =
    ((body +. launch_overhead_cycles) *. jitter req.jitter_key)
  in
  let n_waves = full_waves + (if rem > 0 then 1 else 0) in
  let miss_rate =
    match full_result, tail_result with
    | Some (cfg, _), _ | None, Some (cfg, _) -> cfg.miss_rate
    | None, None -> 0.0
  in
  let wave_busy =
    match full_result, tail_result with
    | Some (_, r), _ | None, Some (_, r) -> Some r
    | None, None -> None
  in
  (match recorded with
   | Some out ->
     let wave label count result rc =
       match (result, rc) with
       | Some (cfg, r), Some rc ->
         Some
           { rw_label = label; rw_count = count; rw_config = cfg;
             rw_result = r; rw_recording = rc }
       | _ -> None
     in
     out :=
       List.filter_map Fun.id
         [ wave "full" full_waves full_result full_rc;
           wave "tail" 1 tail_result tail_rc ]
   | None -> ());
  let k =
    { total_cycles;
      microseconds = Alcop_hw.Hw_config.cycles_to_us hw total_cycles;
      n_waves; tbs_per_sm = occ.Occupancy.tbs_per_sm;
      occupancy_limiter = occ.Occupancy.limiter; wave_cycles; tail_cycles;
      miss_rate; wave_busy }
  in
  if Alcop_obs.Obs.enabled () then begin
    let open Alcop_obs in
    publish_gauges k;
    (* histogram, not gauge: across a tuning sweep or batch compile the
       distribution of kernel latencies is the interesting object *)
    Obs.observe "timing.kernel.cycles" total_cycles;
    Obs.point "timing.occupancy"
      [ ("limiter", Json.Str occ.Occupancy.limiter);
        ("tbs_per_sm", Json.Int occ.Occupancy.tbs_per_sm);
        ("n_waves", Json.Int n_waves) ]
  end;
  k

let run (req : request) = time_kernel req (plan req) ~full_rc:None ~tail_rc:None

let run_recorded (req : request) =
  let pl = plan req in
  let fresh cfg = Option.map (fun _ -> recording ()) cfg in
  let recorded = ref [] in
  let timing =
    time_kernel ~recorded req pl ~full_rc:(fresh pl.full_cfg)
      ~tail_rc:(fresh pl.tail_cfg)
  in
  (timing, !recorded)
