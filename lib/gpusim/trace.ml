(* Per-threadblock event traces extracted from kernel IR.

   The timing simulator does not interpret data; it replays the sequence of
   loads, computes and synchronization points one threadblock executes.
   Because every threadblock runs the same program, the extractor walks the
   program of one representative threadblock (grid loop variables pinned to
   zero) and aggregates warp-parallel loops (the warps of a threadblock
   march in lockstep through the homogeneous GEMM body, so their per-event
   bytes/FLOPs are summed).

   Synchronization of scope-synchronized (shared-memory) pipelines comes
   directly from the IR's producer/consumer primitives. Register-level
   pipelines have no explicit primitives — the hardware scoreboard stalls
   the consumer instead — so the extractor synthesizes the equivalent
   commit/wait structure: loads issued in one iteration of the pipeline
   loop form a batch, and a compute event waits until all batches except
   the youngest [stages-1] have completed.

   Representation: the boxed [event] type is the view for tests and
   hand-built traces.
   The extractor produces a packed [program] — a struct-of-arrays encoding
   (parallel int columns for opcode, argument, interned group index, flags
   and batch ordinal) built in two phases:

   1. the kernel body is *resolved* once into a closure tree with loop
      variables assigned integer slots, expressions compiled against an
      [int array] environment and byte/FLOP counts folded to constants
      (region lengths are static ints, so only loop bounds and branch
      conditions need evaluation);
   2. the resolved tree is executed, appending directly into reusable
      domain-local scratch columns — no per-event boxing, no string
      hashing in the loop.

   Batch ordinals are program-static (every threadblock runs the same
   program), so the push helpers compute, online, the pipeline batch each
   event opens/commits/consumes plus each group's maximum number of
   in-flight batches — which is what lets the simulator replace its batch
   queues with fixed-size rings. Hand-built traces ([pack]) are pushed
   through the same helpers, so the recurrence exists once. The emitted
   columns are malloc-backed Bigarrays: exact-size major-heap int arrays
   cost more in GC pacing than the whole walk (see [icol]). *)

open Alcop_ir

type level =
  | From_global
  | From_shared

type event =
  | Load of { level : level; bytes : int; async : bool; group : string option }
  | Store of { bytes : int }
  | Commit of { group : string; sync : bool }
  | Wait_oldest of { group : string; sync : bool }
  | Acquire of { group : string; stages : int }
  | Release of string
  | Barrier
  | Compute of { flops : int }

let pp_event fmt = function
  | Load { level; bytes; async; group } ->
    Format.fprintf fmt "load[%s] %dB%s%s"
      (match level with From_global -> "global" | From_shared -> "shared")
      bytes
      (if async then " async" else "")
      (match group with None -> "" | Some g -> " @" ^ g)
  | Store { bytes } -> Format.fprintf fmt "store %dB" bytes
  | Commit { group = g; sync } ->
    Format.fprintf fmt "commit @%s%s" g (if sync then "" else " soft")
  | Wait_oldest { group = g; sync } ->
    Format.fprintf fmt "wait @%s%s" g (if sync then "" else " soft")
  | Acquire { group; stages } -> Format.fprintf fmt "acquire @%s (%d)" group stages
  | Release g -> Format.fprintf fmt "release @%s" g
  | Barrier -> Format.fprintf fmt "barrier"
  | Compute { flops } -> Format.fprintf fmt "compute %d flops" flops

(* --- packed programs --- *)

let op_load = 0
let op_store = 1
let op_commit = 2
let op_wait = 3
let op_acquire = 4
let op_release = 5
let op_barrier = 6
let op_compute = 7

let flag_async = 1
let flag_shared = 2

(* Set on the commit/wait/acquire/release events of scope-synchronized
   pipeline groups; scoreboard-synthesized ("soft") register-pipeline
   commits and waits carry a clear bit. The simulator never reads it — it
   exists so decoded views and the pipeline observatory can tell the two
   protocols apart without re-running the analysis. *)
let flag_sync_group = 4

(* Program columns live in int Bigarrays: their storage is malloc'd
   outside the OCaml heap, so emitting a ~1k-event program costs five
   mallocs and a memcpy instead of five major-heap allocations whose GC
   pacing debt dominated extraction (measured ~16 us/call at 1037
   events). *)
type icol = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

let icol_create n : icol = Bigarray.Array1.create Bigarray.int Bigarray.c_layout n

type program = {
  n : int;
  opcode : icol;
  arg : icol;
  group : icol;
  flags : icol;
  batch : icol;
  groups : string array;
  group_depth : int array;
  group_stages : int array;
  group_sync : bool array;
  group_bytes : int array;
}

let length p = p.n

let program_hash p =
  Digest.string
    (Marshal.to_string (p.opcode, p.arg, p.group, p.flags, p.groups) [])

let event_at p i =
  let g = p.group.{i} in
  let op = p.opcode.{i} in
  if op = op_load then
    Load
      { level =
          (if p.flags.{i} land flag_shared <> 0 then From_shared
           else From_global);
        bytes = p.arg.{i};
        async = p.flags.{i} land flag_async <> 0;
        group = (if g >= 0 then Some p.groups.(g) else None) }
  else if op = op_store then Store { bytes = p.arg.{i} }
  else if op = op_commit then
    Commit
      { group = p.groups.(g); sync = p.flags.{i} land flag_sync_group <> 0 }
  else if op = op_wait then
    Wait_oldest
      { group = p.groups.(g); sync = p.flags.{i} land flag_sync_group <> 0 }
  else if op = op_acquire then Acquire { group = p.groups.(g); stages = p.arg.{i} }
  else if op = op_release then Release p.groups.(g)
  else if op = op_barrier then Barrier
  else Compute { flops = p.arg.{i} }

let decode p = Array.init p.n (event_at p)

(* --- program builder --- *)

(* Reusable extraction buffer: grow-only struct-of-arrays, one per domain.
   Extraction runs on the tuner's hot path (once per cold compile), so the
   event rows are built in domain-local scratch and only the exact-size
   program arrays are allocated per call. *)
type xbuf = {
  mutable xb_in_use : bool;  (** re-entrancy guard (never expected) *)
  mutable xb_cap : int;
  mutable xb_op : icol;
  mutable xb_arg : icol;
  mutable xb_grp : icol;
  mutable xb_flg : icol;
  mutable xb_bat : icol;
}

let xbuf_fresh cap =
  { xb_in_use = false; xb_cap = cap; xb_op = icol_create cap;
    xb_arg = icol_create cap; xb_grp = icol_create cap;
    xb_flg = icol_create cap; xb_bat = icol_create cap }

let xbuf_key = Domain.DLS.new_key (fun () -> xbuf_fresh 1024)

let xbuf_grow b =
  let cap = 2 * b.xb_cap in
  let grow (a : icol) =
    let a' = icol_create cap in
    Bigarray.Array1.blit a (Bigarray.Array1.sub a' 0 b.xb_cap);
    a'
  in
  b.xb_op <- grow b.xb_op;
  b.xb_arg <- grow b.xb_arg;
  b.xb_grp <- grow b.xb_grp;
  b.xb_flg <- grow b.xb_flg;
  b.xb_bat <- grow b.xb_bat;
  b.xb_cap <- cap

(* exact-size copy of the first [n] rows of a scratch column *)
let icol_take (a : icol) n : icol =
  let d = icol_create n in
  Bigarray.Array1.blit (Bigarray.Array1.sub a 0 n) d;
  d

type xstate = {
  env : int array;
  mutable warp_mult : int;
  buf : xbuf;
  mutable len : int;
  (* Online batch bookkeeping, one slot per interned group. Rows are
     pushed in program order and every threadblock replays the same
     program, so a load's batch is the count of commits its group has
     seen, a wait consumes the oldest not-yet-consumed commit (or nothing,
     when the program waits before ever committing), and the ring depth is
     the peak number of committed-but-unconsumed batches. *)
  g_committed : int array;
  g_taken : int array;
  g_popped : int array;
  g_depth : int array;
  g_flags : int array;
      (** flag bits the extractor stamps on the group's commit/wait events
          ([flag_sync_group] for scope pipelines, 0 for soft ones) *)
  (* register ("soft") pipeline bookkeeping, one slot per group *)
  s_gid : int array;  (** interned group index *)
  s_hide : int array;  (** stages - 1: batches the pipeline keeps in flight *)
  s_open : bool array;
  s_batches : int array;
  s_waits : int array;
}

let[@inline] push_row st ~op ~arg ~group ~flags ~batch =
  if st.len = st.buf.xb_cap then xbuf_grow st.buf;
  let b = st.buf in
  let i = st.len in
  Bigarray.Array1.unsafe_set b.xb_op i op;
  Bigarray.Array1.unsafe_set b.xb_arg i arg;
  Bigarray.Array1.unsafe_set b.xb_grp i group;
  Bigarray.Array1.unsafe_set b.xb_flg i flags;
  Bigarray.Array1.unsafe_set b.xb_bat i batch;
  st.len <- i + 1

let[@inline] push_load st ~bytes ~group ~flags =
  push_row st ~op:op_load ~arg:bytes ~group ~flags
    ~batch:
      (if flags land flag_async <> 0 && group >= 0 then
         Array.unsafe_get st.g_committed group
       else -1)

let push_commit st ~group ~flags =
  push_row st ~op:op_commit ~arg:0 ~group ~flags
    ~batch:st.g_committed.(group);
  let c = st.g_committed.(group) + 1 in
  st.g_committed.(group) <- c;
  let occ = c - st.g_popped.(group) in
  if occ > st.g_depth.(group) then st.g_depth.(group) <- occ

let push_wait st ~group ~flags =
  let consumed =
    if st.g_popped.(group) < st.g_committed.(group) then begin
      let p = st.g_popped.(group) in
      st.g_popped.(group) <- p + 1;
      p
    end
    else -1
  in
  push_row st ~op:op_wait ~arg:consumed ~group ~flags
    ~batch:st.g_taken.(group);
  st.g_taken.(group) <- st.g_taken.(group) + 1

(* Run [fill] over a fresh state on the domain's scratch columns and cut
   the program. [groups] is the interned group table; [stages], [sync] and
   [bytes] hold at least one slot per group, and a group whose stage count
   is still 0 takes its observed ring depth. *)
let build ~groups ~nslots ~g_flags ~s_gid ~s_hide ~stages ~sync ~bytes fill =
  let ng = Array.length groups in
  let scratch =
    let b = Domain.DLS.get xbuf_key in
    if b.xb_in_use then xbuf_fresh 1024 else b
  in
  scratch.xb_in_use <- true;
  Fun.protect ~finally:(fun () -> scratch.xb_in_use <- false) @@ fun () ->
  let nsoft = Array.length s_gid in
  let st =
    { env = Array.make (max 1 nslots) 0; warp_mult = 1; buf = scratch;
      len = 0;
      g_committed = Array.make (max 1 ng) 0;
      g_taken = Array.make (max 1 ng) 0;
      g_popped = Array.make (max 1 ng) 0;
      g_depth = Array.make (max 1 ng) 1;
      g_flags;
      s_gid; s_hide;
      s_open = Array.make nsoft false;
      s_batches = Array.make nsoft 0;
      s_waits = Array.make nsoft 0 }
  in
  fill st;
  let len = st.len in
  let group_depth = Array.sub st.g_depth 0 ng in
  let group_stages = Array.sub stages 0 ng in
  for g = 0 to ng - 1 do
    if group_stages.(g) = 0 then group_stages.(g) <- group_depth.(g)
  done;
  { n = len;
    opcode = icol_take scratch.xb_op len;
    arg = icol_take scratch.xb_arg len;
    group = icol_take scratch.xb_grp len;
    flags = icol_take scratch.xb_flg len;
    batch = icol_take scratch.xb_bat len;
    groups; group_depth; group_stages;
    group_sync = Array.sub sync 0 ng;
    group_bytes = Array.sub bytes 0 ng }

(* Intern table: group ids numbered in first-use order. *)
let intern tbl gid =
  match Names.Tbl.find_opt tbl gid with
  | Some i -> i
  | None ->
    let i = Names.Tbl.length tbl in
    Names.Tbl.replace tbl gid i;
    i

let interned tbl =
  let ids = Array.make (Names.Tbl.length tbl) "" in
  Names.Tbl.iter (fun gid i -> ids.(i) <- gid) tbl;
  ids

(* The group table is derived from the event stream: a group is
   scope-synchronized when any of its protocol events carries the sync
   bit, its stage count is the largest acquire argument (ring depth when
   there is none), and its per-stage byte footprint is the peak sum of
   async load bytes joining one batch. *)
let pack (events : event array) =
  let gtbl = Names.Tbl.create 8 in
  let gids =
    Array.map
      (function
        | Load { group = Some g; _ } | Commit { group = g; _ }
        | Wait_oldest { group = g; _ } | Acquire { group = g; _ } | Release g ->
          intern gtbl g
        | Load { group = None; _ } | Store _ | Barrier | Compute _ -> -1)
      events
  in
  let groups = interned gtbl in
  let slots () = Array.make (max 1 (Array.length groups)) 0 in
  let stages = slots () and bytes = slots () and open_bytes = slots () in
  let sync = Array.make (max 1 (Array.length groups)) false in
  let sync_bit g s =
    if s then begin
      sync.(g) <- true;
      flag_sync_group
    end
    else 0
  in
  build ~groups ~nslots:0 ~g_flags:[||] ~s_gid:[||] ~s_hide:[||] ~stages ~sync
    ~bytes
  @@ fun st ->
  Array.iteri
    (fun i e ->
      let group = gids.(i) in
      match e with
      | Load { level; bytes = b; async; _ } ->
        if async && group >= 0 then open_bytes.(group) <- open_bytes.(group) + b;
        push_load st ~bytes:b ~group
          ~flags:
            ((if async then flag_async else 0)
            lor match level with From_shared -> flag_shared | From_global -> 0)
      | Store { bytes = b } ->
        push_row st ~op:op_store ~arg:b ~group ~flags:0 ~batch:(-1)
      | Commit { sync = s; _ } ->
        bytes.(group) <- max bytes.(group) open_bytes.(group);
        open_bytes.(group) <- 0;
        push_commit st ~group ~flags:(sync_bit group s)
      | Wait_oldest { sync = s; _ } ->
        push_wait st ~group ~flags:(sync_bit group s)
      | Acquire { stages = k; _ } ->
        stages.(group) <- max stages.(group) k;
        push_row st ~op:op_acquire ~arg:k ~group
          ~flags:(sync_bit group true) ~batch:(-1)
      | Release _ ->
        push_row st ~op:op_release ~arg:0 ~group
          ~flags:(sync_bit group true) ~batch:(-1)
      | Barrier -> push_row st ~op:op_barrier ~arg:0 ~group ~flags:0 ~batch:(-1)
      | Compute { flops } ->
        push_row st ~op:op_compute ~arg:flops ~group ~flags:0 ~batch:(-1))
    events

(* --- resolved kernel walker --- *)

(* Compiled index expression: evaluates against the slot environment.
   Unbound variables keep the legacy failure mode (raise at evaluation,
   not at resolution, with the same message). *)
type rexpr = int array -> int

let rec compile_expr bindings (e : Expr.t) : rexpr =
  match e with
  | Expr.Const c -> fun _ -> c
  | Expr.Var v ->
    (match Names.assoc_opt v bindings with
     | Some s -> fun env -> Array.unsafe_get env s
     | None ->
       fun _ -> raise (Invalid_argument ("Expr.eval: unbound variable " ^ v)))
  | Expr.Add (a, b) ->
    let fa = compile_expr bindings a and fb = compile_expr bindings b in
    fun env -> fa env + fb env
  | Expr.Sub (a, b) ->
    let fa = compile_expr bindings a and fb = compile_expr bindings b in
    fun env -> fa env - fb env
  | Expr.Mul (a, b) ->
    let fa = compile_expr bindings a and fb = compile_expr bindings b in
    fun env -> fa env * fb env
  | Expr.Div (a, b) ->
    let fa = compile_expr bindings a and fb = compile_expr bindings b in
    fun env -> Expr.floordiv_int (fa env) (fb env)
  | Expr.Mod (a, b) ->
    let fa = compile_expr bindings a and fb = compile_expr bindings b in
    fun env -> Expr.floormod_int (fa env) (fb env)
  | Expr.Min (a, b) ->
    let fa = compile_expr bindings a and fb = compile_expr bindings b in
    fun env -> min (fa env) (fb env)
  | Expr.Max (a, b) ->
    let fa = compile_expr bindings a and fb = compile_expr bindings b in
    fun env -> max (fa env) (fb env)

type rcond = { rc_lhs : rexpr; rc_rhs : rexpr; rc_cmp : Stmt.cmp }

type rstmt =
  | Rseq of rstmt array
  | Rfor of { slot : int; extent : rexpr; body : rstmt }
      (** sequential/unrolled: closes open register-pipeline batches after
          each iteration *)
  | Rwarp of { slot : int; extent : rexpr; body : rstmt }
  | Rpin of { slot : int; body : rstmt }  (** grid loop var pinned to 0 *)
  | Rif of rcond * rstmt
  | Rload of { bytes : int; flags : int; group : int; soft : int }
  | Rloadn of { extent : rexpr; bytes : int; flags : int; group : int;
                soft : int }
      (** a Sequential/Unrolled loop whose entire body is one load (the
          shape copy loops lower to): executed without per-iteration
          dispatch. Iteration-boundary batch closing is preserved — the
          first iteration flushes every open register pipeline, later
          ones can only re-close this load's own group. *)
  | Rstore of { bytes : int }
  | Rmma of { flops : int }  (** retires register batches, then computes *)
  | Runop of { bytes : int }
  | Raccum_global of { bytes : int }
  | Raccum_local of { bytes : int }
  | Rbarrier
  | Racquire of { group : int; stages : int }
  | Rcommit of { group : int }
  | Rwait of { group : int }
  | Rrelease of { group : int }
  | Rnop
  | Rfail of string  (** malformed operands: raise if (and only if) reached *)

(* Close the open batch of every register pipeline that accumulated loads. *)
let flush_soft st =
  for s = 0 to Array.length st.s_gid - 1 do
    if st.s_open.(s) then begin
      let group = st.s_gid.(s) in
      push_commit st ~group ~flags:st.g_flags.(group);
      st.s_batches.(s) <- st.s_batches.(s) + 1;
      st.s_open.(s) <- false
    end
  done

(* Before a compute event: retire register-pipeline batches down to the
   pipeline depth, mirroring the hardware scoreboard stall on the operands
   loaded [stages-1] iterations ago. *)
let soft_waits st =
  flush_soft st;
  for s = 0 to Array.length st.s_gid - 1 do
    while st.s_waits.(s) < st.s_batches.(s) - st.s_hide.(s) do
      let group = st.s_gid.(s) in
      push_wait st ~group ~flags:st.g_flags.(group);
      st.s_waits.(s) <- st.s_waits.(s) + 1
    done
  done

let rec exec st node =
  match node with
  | Rseq a ->
    for i = 0 to Array.length a - 1 do
      exec st (Array.unsafe_get a i)
    done
  | Rfor { slot; extent; body } ->
    let n = extent st.env in
    for i = 0 to n - 1 do
      Array.unsafe_set st.env slot i;
      exec st body;
      (* An iteration boundary closes open register-pipeline batches
         (e.g. each prologue-loop iteration loads one chunk). *)
      flush_soft st
    done
  | Rwarp { slot; extent; body } ->
    let n = extent st.env in
    let saved = st.warp_mult in
    st.warp_mult <- st.warp_mult * n;
    Array.unsafe_set st.env slot 0;
    exec st body;
    st.warp_mult <- saved
  | Rpin { slot; body } ->
    Array.unsafe_set st.env slot 0;
    exec st body
  | Rif (c, body) ->
    let l = c.rc_lhs st.env and r = c.rc_rhs st.env in
    let holds =
      match c.rc_cmp with
      | Stmt.Eq -> l = r
      | Stmt.Ne -> l <> r
      | Stmt.Lt -> l < r
      | Stmt.Le -> l <= r
    in
    if holds then exec st body
  | Rload { bytes; flags; group; soft } ->
    push_load st ~bytes:(bytes * st.warp_mult) ~group ~flags;
    if soft >= 0 then st.s_open.(soft) <- true
  | Rloadn { extent; bytes; flags; group; soft } ->
    (* Equivalent to [Rfor] over a single [Rload]: the first iteration's
       boundary flush can close *any* open pipeline, so it goes through
       [flush_soft]; from the second iteration on, the only group a flush
       could still close is this load's own, so the commit is emitted
       inline (or skipped entirely for non-pipelined loads). *)
    let n = extent st.env in
    if n > 0 then begin
      let arg = bytes * st.warp_mult in
      push_load st ~bytes:arg ~group ~flags;
      if soft >= 0 then st.s_open.(soft) <- true;
      flush_soft st;
      if soft >= 0 then begin
        let sgid = st.s_gid.(soft) in
        for _ = 2 to n do
          push_load st ~bytes:arg ~group ~flags;
          push_commit st ~group:sgid ~flags:st.g_flags.(sgid);
          st.s_batches.(soft) <- st.s_batches.(soft) + 1
        done
      end
      else
        for _ = 2 to n do
          push_load st ~bytes:arg ~group ~flags
        done
    end
  | Rstore { bytes } ->
    push_row st ~op:op_store ~arg:(bytes * st.warp_mult) ~group:(-1) ~flags:0
      ~batch:(-1)
  | Rmma { flops } ->
    soft_waits st;
    push_row st ~op:op_compute ~arg:(flops * st.warp_mult) ~group:(-1)
      ~flags:0 ~batch:(-1)
  | Runop { bytes } ->
    (* Element-wise transforms ride along with copies in our kernels; a
       stand-alone unop is costed as CUDA-core work via its output size. *)
    push_row st ~op:op_compute ~arg:(bytes * st.warp_mult) ~group:(-1)
      ~flags:0 ~batch:(-1)
  | Raccum_global { bytes } ->
    (* read both operands, write the destination *)
    push_load st ~bytes:(bytes * st.warp_mult) ~group:(-1) ~flags:0;
    push_row st ~op:op_store ~arg:(bytes * st.warp_mult) ~group:(-1) ~flags:0
      ~batch:(-1)
  | Raccum_local { bytes } ->
    push_load st ~bytes:(bytes * st.warp_mult) ~group:(-1) ~flags:flag_shared
  | Rbarrier ->
    push_row st ~op:op_barrier ~arg:0 ~group:(-1) ~flags:0 ~batch:(-1)
  | Racquire { group; stages } ->
    push_row st ~op:op_acquire ~arg:stages ~group ~flags:flag_sync_group
      ~batch:(-1)
  | Rcommit { group } -> push_commit st ~group ~flags:st.g_flags.(group)
  | Rwait { group } -> push_wait st ~group ~flags:st.g_flags.(group)
  | Rrelease { group } ->
    push_row st ~op:op_release ~arg:0 ~group ~flags:flag_sync_group
      ~batch:(-1)
  | Rnop -> ()
  | Rfail msg -> invalid_arg msg

let extract_program ~(groups : Alcop_pipeline.Analysis.group list)
    (kernel : Kernel.t) =
  let buffers = Names.Tbl.create 16 in
  List.iter
    (fun (b : Buffer.t) -> Names.Tbl.replace buffers b.Buffer.name b)
    (Kernel.all_buffers kernel);
  let buffer_of name =
    match Names.Tbl.find_opt buffers name with
    | Some b -> b
    | None -> invalid_arg ("Trace: unknown buffer " ^ name)
  in
  let by_buffer = Names.Tbl.create 8 in
  List.iter
    (fun (g : Alcop_pipeline.Analysis.group) ->
      List.iter
        (fun n -> Names.Tbl.replace by_buffer n g)
        (Alcop_pipeline.Analysis.member_names g))
    groups;
  (* group ids in first-use order, shared by resolution and the program *)
  let gtbl = Names.Tbl.create 8 in
  let intern = intern gtbl in
  let softs =
    List.filter
      (fun (g : Alcop_pipeline.Analysis.group) ->
        not g.Alcop_pipeline.Analysis.synchronized)
      groups
  in
  let soft_index gid =
    let rec go i = function
      | [] -> -1
      | (g : Alcop_pipeline.Analysis.group) :: rest ->
        if String.equal g.Alcop_pipeline.Analysis.id gid then i
        else go (i + 1) rest
    in
    go 0 softs
  in
  let stages_of gid =
    match
      List.find_opt
        (fun (g : Alcop_pipeline.Analysis.group) ->
          String.equal g.Alcop_pipeline.Analysis.id gid)
        groups
    with
    | Some g -> g.Alcop_pipeline.Analysis.stages
    | None -> 2
  in
  let bytes_of_region (r : Stmt.region) =
    let b = buffer_of r.Stmt.buffer in
    Stmt.region_elems r * Dtype.size_bytes b.Buffer.dtype
  in
  let nslots = ref 0 in
  let rec resolve bindings stmt =
    match stmt with
    | Stmt.Seq ss -> Rseq (Array.of_list (List.map (resolve bindings) ss))
    | Stmt.Alloc { body; _ } -> resolve bindings body
    | Stmt.For { var; extent; kind; body } ->
      let slot = !nslots in
      incr nslots;
      let inner = (var, slot) :: bindings in
      (match kind with
       | Stmt.Parallel (Stmt.Block_x | Stmt.Block_y | Stmt.Block_z) ->
         Rpin { slot; body = resolve inner body }
       | Stmt.Parallel (Stmt.Warp_x | Stmt.Warp_y) ->
         Rwarp
           { slot; extent = compile_expr bindings extent;
             body = resolve inner body }
       | Stmt.Sequential | Stmt.Unrolled ->
         let extent = compile_expr bindings extent in
         (match resolve inner body with
          | Rload { bytes; flags; group; soft } ->
            (* copy loops lower to a loop over one load whose size ignores
               the loop variable — run them without per-iteration dispatch *)
            Rloadn { extent; bytes; flags; group; soft }
          | rb -> Rfor { slot; extent; body = rb }))
    | Stmt.If { cond; then_ } ->
      Rif
        ( { rc_lhs = compile_expr bindings cond.Stmt.lhs;
            rc_rhs = compile_expr bindings cond.Stmt.rhs;
            rc_cmp = cond.Stmt.cmp },
          resolve bindings then_ )
    | Stmt.Copy { kind; dst; src; _ } ->
      let dst_buf = buffer_of dst.Stmt.buffer in
      let bytes = bytes_of_region src in
      (match dst_buf.Buffer.scope with
       | Buffer.Global -> Rstore { bytes }
       | Buffer.Shared | Buffer.Register ->
         let src_buf = buffer_of src.Stmt.buffer in
         let shared =
           match src_buf.Buffer.scope with
           | Buffer.Global -> 0
           | Buffer.Shared | Buffer.Register -> flag_shared
         in
         let async = kind = Stmt.Async_copy in
         let g = Names.Tbl.find_opt by_buffer dst.Stmt.buffer in
         let gidx =
           match g with
           | Some g -> intern g.Alcop_pipeline.Analysis.id
           | None -> -1
         in
         let soft =
           match g with
           | Some g when not g.Alcop_pipeline.Analysis.synchronized ->
             soft_index g.Alcop_pipeline.Analysis.id
           | Some _ | None -> -1
         in
         Rload
           { bytes; flags = (if async then flag_async else 0) lor shared;
             group = gidx; soft })
    | Stmt.Fill _ -> Rnop
    | Stmt.Mma { c; a; _ } ->
      (match Stmt.squeeze_lens c, Stmt.squeeze_lens a with
       | [ m; n ], [ _; k ] -> Rmma { flops = 2 * m * n * k }
       | _ -> Rfail "Trace: malformed mma operands")
    | Stmt.Unop { dst; _ } -> Runop { bytes = bytes_of_region dst }
    | Stmt.Accum { dst; src } ->
      let dst_buf = buffer_of dst.Stmt.buffer in
      let bytes = bytes_of_region src in
      (match dst_buf.Buffer.scope with
       | Buffer.Global -> Raccum_global { bytes }
       | Buffer.Shared | Buffer.Register -> Raccum_local { bytes })
    | Stmt.Sync s ->
      (match s with
       | Stmt.Barrier -> Rbarrier
       | Stmt.Producer_acquire g ->
         Racquire { group = intern g; stages = stages_of g }
       | Stmt.Producer_commit g -> Rcommit { group = intern g }
       | Stmt.Consumer_wait g -> Rwait { group = intern g }
       | Stmt.Consumer_release g -> Rrelease { group = intern g })
  in
  let rbody = resolve [] kernel.Kernel.body in
  (* interning for [s_gid] can still add group ids, so the counter arrays
     are sized only after it *)
  let s_gid =
    Array.of_list
      (List.map
         (fun (g : Alcop_pipeline.Analysis.group) ->
           intern g.Alcop_pipeline.Analysis.id)
         softs)
  in
  let s_hide =
    Array.of_list
      (List.map
         (fun (g : Alcop_pipeline.Analysis.group) ->
           g.Alcop_pipeline.Analysis.stages - 1)
         softs)
  in
  let ng = Names.Tbl.length gtbl in
  (* Exact group-table metadata from the pipeline analysis: protocol kind
     (stamped on commit/wait flags via [g_flags]), declared stage count and
     the pass's per-stage byte footprint. Groups the analysis does not
     know (never happens today) default to a soft single-stage entry. *)
  let g_flags = Array.make (max 1 ng) 0 in
  let g_stages = Array.make (max 1 ng) 0 in
  let g_sync = Array.make (max 1 ng) false in
  let g_bytes = Array.make (max 1 ng) 0 in
  List.iter
    (fun (g : Alcop_pipeline.Analysis.group) ->
      match Names.Tbl.find_opt gtbl g.Alcop_pipeline.Analysis.id with
      | None -> ()  (* group emitted no events; keep it out of the table *)
      | Some idx ->
        g_stages.(idx) <- g.Alcop_pipeline.Analysis.stages;
        g_bytes.(idx) <- Alcop_pipeline.Analysis.stage_footprint_bytes g;
        if g.Alcop_pipeline.Analysis.synchronized then begin
          g_sync.(idx) <- true;
          g_flags.(idx) <- flag_sync_group
        end)
    groups;
  build ~groups:(interned gtbl) ~nslots:!nslots ~g_flags ~s_gid ~s_hide
    ~stages:g_stages ~sync:g_sync ~bytes:g_bytes (fun st -> exec st rbody)

(* Aggregate statistics of a trace; used by tests and reporting. *)
type stats = {
  global_load_bytes : int;
  shared_load_bytes : int;
  store_bytes : int;
  flops : int;
  n_events : int;
}

let stats_of_program p =
  let global = ref 0 and shared = ref 0 and stores = ref 0 and flops = ref 0 in
  for i = 0 to p.n - 1 do
    let op = p.opcode.{i} in
    if op = op_load then begin
      if p.flags.{i} land flag_shared <> 0 then shared := !shared + p.arg.{i}
      else global := !global + p.arg.{i}
    end
    else if op = op_store then stores := !stores + p.arg.{i}
    else if op = op_compute then flops := !flops + p.arg.{i}
  done;
  { global_load_bytes = !global; shared_load_bytes = !shared;
    store_bytes = !stores; flops = !flops; n_events = p.n }
