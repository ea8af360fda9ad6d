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

   Representation: the extractor produces a packed [program], the
   library's only trace representation — a struct-of-arrays encoding
   (parallel int columns for opcode, argument, interned group index,
   flags and batch ordinal) — built in two phases:

   1. the kernel body is *resolved* once into a flat int code array with
      loop variables assigned integer slots, byte/FLOP counts folded to
      constants (region lengths are static ints, so only loop bounds and
      branch conditions need evaluation, in postfix form) and buffers and
      groups looked up by linear scans;
   2. the code array is interpreted, appending directly into the event
      columns — no per-event boxing, no string hashing in the loop.

   Both phases work in one grow-only domain-local scratch, so a call
   allocates only the program it returns and a few group-sized counter
   arrays.

   Batch ordinals are program-static (every threadblock runs the same
   program), so the push helpers compute, online, the pipeline batch each
   event opens/commits/consumes plus each group's maximum number of
   in-flight batches — which is what lets the simulator replace its batch
   queues with fixed-size rings. The test suite's boxed event view packs
   events with its own implementation of this recurrence and checks the
   extractor against it. The emitted columns are malloc-backed
   Bigarrays: exact-size major-heap int arrays cost more in GC pacing
   than the whole walk (see [icol]). *)

open Alcop_ir

type level =
  | From_global
  | From_shared

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
   commits and waits carry a clear bit. The simulator never reads it (the
   pipeline observatory reads [group_sync]); it keeps the two protocols
   apart event by event in the flags column, which the test suite's
   independent packer must reproduce. *)
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

(* --- program builder --- *)

(* Reusable extraction scratch: grow-only, one per domain. Extraction runs
   on the tuner's hot path (once per cold compile), so the event rows, the
   interned group ids and the resolved kernel body live here; a call
   allocates only the program it returns and its per-group counters. *)
type scratch = {
  mutable in_use : bool;  (** re-entrancy guard (never expected) *)
  (* event rows *)
  mutable cap : int;
  mutable len : int;
  mutable r_op : icol;
  mutable r_arg : icol;
  mutable r_grp : icol;
  mutable r_flg : icol;
  mutable r_bat : icol;
  mutable warp_mult : int;
  (* group ids in first-use order *)
  mutable ng : int;
  mutable g_id : string array;
  (* Per-group batch bookkeeping, one slot per interned group, made by
     [open_groups] once every group is interned. Rows are pushed in
     program order and every threadblock replays the same program, so a
     load's batch is the count of commits its group has seen, a wait
     consumes the oldest not-yet-consumed commit (or nothing, when the
     program waits before ever committing), and the ring depth is the peak
     number of committed-but-unconsumed batches. The last four arrays
     become the program's group table. *)
  mutable g_committed : int array;
  mutable g_taken : int array;
  mutable g_popped : int array;
  mutable g_flags : int array;
      (** flag bits stamped on the group's commit/wait events
          ([flag_sync_group] for scope pipelines, 0 for soft ones) *)
  mutable g_depth : int array;
  mutable g_stages : int array;  (** 0 until known: takes the ring depth *)
  mutable g_sync : bool array;
  mutable g_bytes : int array;
  (* register ("soft") pipelines, in analysis order *)
  mutable s_gid : int array;  (** interned group index *)
  mutable s_hide : int array;  (** stages - 1: batches kept in flight *)
  mutable s_open : bool array;
  mutable s_batches : int array;
  mutable s_waits : int array;
  (* the resolved body (see "resolved kernel walker") *)
  mutable code : int array;
  mutable code_len : int;
  mutable stack : int array;  (** expression evaluation stack *)
  mutable env : int array;  (** loop variable slots *)
  mutable nslots : int;
  mutable unbound : string array;  (** names of unbound variables *)
  mutable nunbound : int;
  mutable b_var : string array;  (** loop variables in scope, innermost last *)
  mutable b_slot : int array;
  mutable nbind : int;
  mutable bufs : Buffer.t array;  (** parameters, then allocs in program order *)
  mutable nbuf : int;
}

(* [a] if it holds [need] slots, else a copy with at least twice the room *)
let grown a need fill =
  let n = Array.length a in
  if need <= n then a
  else begin
    let b = Array.make (max need (2 * n)) fill in
    Array.blit a 0 b 0 n;
    b
  end

let no_buffer =
  Buffer.make ~name:"" ~scope:Buffer.Global ~dtype:Dtype.F16 ~shape:[ 1 ]

let scratch_fresh () =
  let cap = 1024 in
  { in_use = false; cap; len = 0; r_op = icol_create cap;
    r_arg = icol_create cap; r_grp = icol_create cap; r_flg = icol_create cap;
    r_bat = icol_create cap; warp_mult = 1; ng = 0; g_id = Array.make 4 "";
    g_committed = [||]; g_taken = [||]; g_popped = [||]; g_flags = [||];
    g_depth = [||]; g_stages = [||]; g_sync = [||]; g_bytes = [||];
    s_gid = [||]; s_hide = [||]; s_open = [||]; s_batches = [||];
    s_waits = [||]; code = Array.make 1024 0; code_len = 0;
    stack = Array.make 16 0; env = Array.make 16 0; nslots = 0;
    unbound = Array.make 4 ""; nunbound = 0; b_var = Array.make 16 "";
    b_slot = Array.make 16 0; nbind = 0; bufs = Array.make 16 no_buffer;
    nbuf = 0 }

let scratch_key = Domain.DLS.new_key scratch_fresh

let rows_grow sc =
  let cap = 2 * sc.cap in
  let grow (a : icol) =
    let a' = icol_create cap in
    Bigarray.Array1.blit a (Bigarray.Array1.sub a' 0 sc.cap);
    a'
  in
  sc.r_op <- grow sc.r_op;
  sc.r_arg <- grow sc.r_arg;
  sc.r_grp <- grow sc.r_grp;
  sc.r_flg <- grow sc.r_flg;
  sc.r_bat <- grow sc.r_bat;
  sc.cap <- cap

(* Index of the interned group [gid] at or after [i], -1 if it has none. *)
let rec group_index sc gid i =
  if i = sc.ng then -1
  else if String.equal sc.g_id.(i) gid then i
  else group_index sc gid (i + 1)

(* Index of group [gid], interning it on first use. *)
let intern sc gid =
  match group_index sc gid 0 with
  | -1 ->
    let i = sc.ng in
    sc.g_id <- grown sc.g_id (i + 1) "";
    sc.g_id.(i) <- gid;
    sc.ng <- i + 1;
    i
  | i -> i

(* Fresh bookkeeping for the interned groups; no group may be interned
   after this. *)
let open_groups sc =
  let ng = sc.ng in
  sc.g_committed <- Array.make ng 0;
  sc.g_taken <- Array.make ng 0;
  sc.g_popped <- Array.make ng 0;
  sc.g_flags <- Array.make ng 0;
  sc.g_depth <- Array.make ng 1;
  sc.g_stages <- Array.make ng 0;
  sc.g_sync <- Array.make ng false;
  sc.g_bytes <- Array.make ng 0

let[@inline] push_row sc ~op ~arg ~group ~flags ~batch =
  if sc.len = sc.cap then rows_grow sc;
  let i = sc.len in
  Bigarray.Array1.unsafe_set sc.r_op i op;
  Bigarray.Array1.unsafe_set sc.r_arg i arg;
  Bigarray.Array1.unsafe_set sc.r_grp i group;
  Bigarray.Array1.unsafe_set sc.r_flg i flags;
  Bigarray.Array1.unsafe_set sc.r_bat i batch;
  sc.len <- i + 1

let[@inline] push_load sc ~bytes ~group ~flags =
  push_row sc ~op:op_load ~arg:bytes ~group ~flags
    ~batch:
      (if flags land flag_async <> 0 && group >= 0 then
         Array.unsafe_get sc.g_committed group
       else -1)

let push_commit sc ~group ~flags =
  push_row sc ~op:op_commit ~arg:0 ~group ~flags
    ~batch:sc.g_committed.(group);
  let c = sc.g_committed.(group) + 1 in
  sc.g_committed.(group) <- c;
  let occ = c - sc.g_popped.(group) in
  if occ > sc.g_depth.(group) then sc.g_depth.(group) <- occ

let push_wait sc ~group ~flags =
  let consumed =
    if sc.g_popped.(group) < sc.g_committed.(group) then begin
      let p = sc.g_popped.(group) in
      sc.g_popped.(group) <- p + 1;
      p
    end
    else -1
  in
  push_row sc ~op:op_wait ~arg:consumed ~group ~flags
    ~batch:sc.g_taken.(group);
  sc.g_taken.(group) <- sc.g_taken.(group) + 1

(* exact-size copy of the first [n] rows of a scratch column; the [sub]
   view costs 7 words, a memcpy instead of an element loop *)
let icol_take (a : icol) n : icol =
  let d = icol_create n in
  Bigarray.Array1.blit (Bigarray.Array1.sub a 0 n) d;
  d

(* --- resolved kernel walker --- *)

(* The kernel body is resolved once per call into [sc.code], a flat int
   program: loop variables get integer slots, byte/FLOP counts fold to
   constants (region lengths are static ints), buffers and groups resolve
   to their scope, flags and interned index, and only loop extents and
   branch conditions stay expressions, in postfix form. Each statement is
   an opcode followed by its operands:

   - [k_for slot body body_end extent... body...] — a sequential or
     unrolled loop; it closes open register-pipeline batches after each
     iteration;
   - [k_loadn] — the same layout, for a loop whose body is one [k_load]
     (the shape copy loops lower to), run without per-iteration dispatch;
   - [k_warp slot body body_end extent... body...] — a warp-parallel loop,
     run once with its byte/FLOP counts scaled by the extent;
   - [k_pin slot body_end body...] — a grid loop, its variable pinned to 0;
   - [k_if cmp rhs body body_end lhs... rhs... body...];
   - [k_load bytes flags group soft] ([soft]: register-pipeline index or
     -1), [k_mma flops], [k_commit group], [k_wait group];
   - [k_row op arg flags] — an ungrouped event (store, element-wise
     compute, accumulate, barrier) whose [arg] scales with the warps;
   - [k_sync_row op arg group] — an acquire or release;
   - [k_fail] — malformed mma operands: raises if (and only if) reached.

   Expressions are [e_const c], [e_slot s], [e_unbound i] (raises, with
   the name [sc.unbound.(i)], only when evaluated) and the binary
   operators. A binary operator's right operand is emitted, and so
   evaluated, first: the order native code evaluates [Expr.eval]'s
   operands in, so the same error wins when both sides fail. *)

let k_load = 0
let k_loadn = 1
let k_for = 2
let k_warp = 3
let k_pin = 4
let k_if = 5
let k_row = 6
let k_sync_row = 7
let k_mma = 8
let k_commit = 9
let k_wait = 10
let k_fail = 11

let e_const = 0
let e_slot = 1
let e_unbound = 2
let e_add = 3
let e_sub = 4
let e_mul = 5
let e_div = 6
let e_mod = 7
let e_min = 8
let e_max = 9

let emit sc x =
  let i = sc.code_len in
  if i = Array.length sc.code then sc.code <- grown sc.code (i + 1) 0;
  Array.unsafe_set sc.code i x;
  sc.code_len <- i + 1

(* Slot of the innermost loop variable [v] in scope, -1 if unbound. *)
let rec slot_of sc v i =
  if i < 0 then -1
  else if String.equal sc.b_var.(i) v then sc.b_slot.(i)
  else slot_of sc v (i - 1)

(* Emit [e] in postfix form; returns the evaluation stack depth it needs. *)
let rec emit_expr sc (e : Expr.t) =
  match e with
  | Expr.Const c ->
    emit sc e_const;
    emit sc c;
    1
  | Expr.Var v ->
    let s = slot_of sc v (sc.nbind - 1) in
    if s >= 0 then begin
      emit sc e_slot;
      emit sc s
    end
    else begin
      let i = sc.nunbound in
      sc.unbound <- grown sc.unbound (i + 1) "";
      sc.unbound.(i) <- v;
      sc.nunbound <- i + 1;
      emit sc e_unbound;
      emit sc i
    end;
    1
  | Expr.Add (a, b) -> emit_binop sc e_add a b
  | Expr.Sub (a, b) -> emit_binop sc e_sub a b
  | Expr.Mul (a, b) -> emit_binop sc e_mul a b
  | Expr.Div (a, b) -> emit_binop sc e_div a b
  | Expr.Mod (a, b) -> emit_binop sc e_mod a b
  | Expr.Min (a, b) -> emit_binop sc e_min a b
  | Expr.Max (a, b) -> emit_binop sc e_max a b

and emit_binop sc op a b =
  let db = emit_expr sc b in
  let da = emit_expr sc a in
  emit sc op;
  max db (da + 1)

let emit_operand sc e =
  let depth = emit_expr sc e in
  sc.stack <- grown sc.stack depth 0

(* Value of the expression in [sc.code.(lo .. hi-1)]. *)
let eval sc lo hi =
  let code = sc.code in
  (* most extents and operands are a constant or a loop variable *)
  if hi - lo = 2 && code.(lo) = e_const then code.(lo + 1)
  else if hi - lo = 2 && code.(lo) = e_slot then sc.env.(code.(lo + 1))
  else begin
    let stack = sc.stack in
    let sp = ref 0 and pc = ref lo in
    while !pc < hi do
      let at = !pc in
      match code.(at) with
      | 0 (* e_const *) ->
        stack.(!sp) <- code.(at + 1);
        incr sp;
        pc := at + 2
      | 1 (* e_slot *) ->
        stack.(!sp) <- sc.env.(code.(at + 1));
        incr sp;
        pc := at + 2
      | 2 (* e_unbound *) ->
        invalid_arg ("Expr.eval: unbound variable " ^ sc.unbound.(code.(at + 1)))
      | op ->
        let l = stack.(!sp - 1) and r = stack.(!sp - 2) in
        sp := !sp - 1;
        stack.(!sp - 1) <-
          (match op with
           | 3 (* e_add *) -> l + r
           | 4 (* e_sub *) -> l - r
           | 5 (* e_mul *) -> l * r
           | 6 (* e_div *) -> Expr.floordiv_int l r
           | 7 (* e_mod *) -> Expr.floormod_int l r
           | 8 (* e_min *) -> if l <= r then l else r
           | _ (* e_max *) -> if l >= r then l else r);
        pc := at + 1
    done;
    stack.(0)
  end

let add_buffer sc b =
  sc.bufs <- grown sc.bufs (sc.nbuf + 1) no_buffer;
  sc.bufs.(sc.nbuf) <- b;
  sc.nbuf <- sc.nbuf + 1

let rec add_buffers sc = function
  | [] -> ()
  | b :: rest ->
    add_buffer sc b;
    add_buffers sc rest

let rec add_allocs sc (stmt : Stmt.t) =
  match stmt with
  | Stmt.Seq ss -> add_allocs_list sc ss
  | Stmt.Alloc { buffer; body } ->
    add_buffer sc buffer;
    add_allocs sc body
  | Stmt.For { body; _ } | Stmt.If { then_ = body; _ } -> add_allocs sc body
  | Stmt.Copy _ | Stmt.Fill _ | Stmt.Mma _ | Stmt.Unop _ | Stmt.Accum _
  | Stmt.Sync _ -> ()

and add_allocs_list sc = function
  | [] -> ()
  | s :: rest ->
    add_allocs sc s;
    add_allocs_list sc rest

(* The last buffer named [name] among the parameters and the allocs, in
   program order. *)
let rec buffer_from sc name i =
  if i < 0 then invalid_arg ("Trace: unknown buffer " ^ name)
  else if String.equal sc.bufs.(i).Buffer.name name then sc.bufs.(i)
  else buffer_from sc name (i - 1)

let buffer_of sc name = buffer_from sc name (sc.nbuf - 1)

let bytes_of_region sc (r : Stmt.region) =
  let b = buffer_of sc r.Stmt.buffer in
  Stmt.region_elems r * Dtype.size_bytes b.Buffer.dtype

module A = Alcop_pipeline.Analysis

let rec has_member name = function
  | [] -> false
  | (m : A.buffer_info) :: rest ->
    String.equal m.A.buffer.Buffer.name name || has_member name rest

(* The last group with a member named [name], as the suffix of the group
   list it heads; [] when there is none. *)
let rec owner name found = function
  | [] -> found
  | (g : A.group) :: rest as l ->
    owner name (if has_member name g.A.members then l else found) rest

(* Position of group [gid] among the register pipelines, -1 if none. *)
let rec soft_index gid i = function
  | [] -> -1
  | (g : A.group) :: rest ->
    if g.A.synchronized then soft_index gid i rest
    else if String.equal g.A.id gid then i
    else soft_index gid (i + 1) rest

let rec stages_of gid = function
  | [] -> 2
  | (g : A.group) :: rest ->
    if String.equal g.A.id gid then g.A.stages else stages_of gid rest

(* [squeeze_lens r] without building it: its length, and its [i]th entry *)
let rec squeezed_count = function
  | [] -> 0
  | (s : Stmt.slice) :: rest ->
    (if s.Stmt.len <> 1 then 1 else 0) + squeezed_count rest

let rec squeezed_nth i = function
  | [] -> invalid_arg "squeezed_nth"
  | (s : Stmt.slice) :: rest ->
    if s.Stmt.len = 1 then squeezed_nth i rest
    else if i = 0 then s.Stmt.len
    else squeezed_nth (i - 1) rest

let emit_row sc op arg flags =
  emit sc k_row;
  emit sc op;
  emit sc arg;
  emit sc flags

let emit_sync_row sc op arg group =
  emit sc k_sync_row;
  emit sc op;
  emit sc arg;
  emit sc group

let rec resolve sc groups (stmt : Stmt.t) =
  match stmt with
  | Stmt.Seq ss -> resolve_list sc groups ss
  | Stmt.Alloc { body; _ } -> resolve sc groups body
  | Stmt.For { var; extent; kind; body } ->
    let slot = sc.nslots in
    sc.nslots <- slot + 1;
    (match kind with
     | Stmt.Parallel (Stmt.Block_x | Stmt.Block_y | Stmt.Block_z) ->
       let at = sc.code_len in
       emit sc k_pin;
       emit sc slot;
       emit sc 0;
       resolve_in_scope sc groups var slot body;
       sc.code.(at + 2) <- sc.code_len
     | Stmt.Parallel (Stmt.Warp_x | Stmt.Warp_y) ->
       resolve_loop sc groups k_warp var slot extent body
     | Stmt.Sequential | Stmt.Unrolled ->
       let at = sc.code_len in
       resolve_loop sc groups k_for var slot extent body;
       (* copy loops lower to a loop over one load whose size ignores the
          loop variable — run them without per-iteration dispatch *)
       let body_at = sc.code.(at + 2) in
       if sc.code_len - body_at = 5 && sc.code.(body_at) = k_load then
         sc.code.(at) <- k_loadn)
  | Stmt.If { cond; then_ } ->
    let at = sc.code_len in
    emit sc k_if;
    emit sc
      (match cond.Stmt.cmp with
       | Stmt.Eq -> 0
       | Stmt.Ne -> 1
       | Stmt.Lt -> 2
       | Stmt.Le -> 3);
    emit sc 0;
    emit sc 0;
    emit sc 0;
    emit_operand sc cond.Stmt.lhs;
    sc.code.(at + 2) <- sc.code_len;
    emit_operand sc cond.Stmt.rhs;
    sc.code.(at + 3) <- sc.code_len;
    resolve sc groups then_;
    sc.code.(at + 4) <- sc.code_len
  | Stmt.Copy { kind; dst; src; _ } ->
    let dst_buf = buffer_of sc dst.Stmt.buffer in
    let bytes = bytes_of_region sc src in
    (match dst_buf.Buffer.scope with
     | Buffer.Global -> emit_row sc op_store bytes 0
     | Buffer.Shared | Buffer.Register ->
       let src_buf = buffer_of sc src.Stmt.buffer in
       let shared =
         match src_buf.Buffer.scope with
         | Buffer.Global -> 0
         | Buffer.Shared | Buffer.Register -> flag_shared
       in
       let async =
         match kind with Stmt.Async_copy -> flag_async | Stmt.Sync_copy -> 0
       in
       emit sc k_load;
       emit sc bytes;
       emit sc (async lor shared);
       (match owner dst.Stmt.buffer [] groups with
        | [] ->
          emit sc (-1);
          emit sc (-1)
        | (g : A.group) :: _ ->
          emit sc (intern sc g.A.id);
          emit sc (if g.A.synchronized then -1 else soft_index g.A.id 0 groups)))
  | Stmt.Fill _ -> ()
  | Stmt.Mma { c; a; _ } ->
    if squeezed_count c.Stmt.slices = 2 && squeezed_count a.Stmt.slices = 2
    then begin
      emit sc k_mma;
      emit sc
        (2 * squeezed_nth 0 c.Stmt.slices * squeezed_nth 1 c.Stmt.slices
        * squeezed_nth 1 a.Stmt.slices)
    end
    else emit sc k_fail
  | Stmt.Unop { dst; _ } ->
    (* Element-wise transforms ride along with copies in our kernels; a
       stand-alone unop is costed as CUDA-core work via its output size. *)
    emit_row sc op_compute (bytes_of_region sc dst) 0
  | Stmt.Accum { dst; src } ->
    let dst_buf = buffer_of sc dst.Stmt.buffer in
    let bytes = bytes_of_region sc src in
    (match dst_buf.Buffer.scope with
     | Buffer.Global ->
       (* read both operands, write the destination *)
       emit_row sc op_load bytes 0;
       emit_row sc op_store bytes 0
     | Buffer.Shared | Buffer.Register -> emit_row sc op_load bytes flag_shared)
  | Stmt.Sync s ->
    (match s with
     | Stmt.Barrier -> emit_row sc op_barrier 0 0
     | Stmt.Producer_acquire g ->
       let group = intern sc g in
       emit_sync_row sc op_acquire (stages_of g groups) group
     | Stmt.Producer_commit g ->
       emit sc k_commit;
       emit sc (intern sc g)
     | Stmt.Consumer_wait g ->
       emit sc k_wait;
       emit sc (intern sc g)
     | Stmt.Consumer_release g -> emit_sync_row sc op_release 0 (intern sc g))

and resolve_list sc groups = function
  | [] -> ()
  | s :: rest ->
    resolve sc groups s;
    resolve_list sc groups rest

(* [op slot body body_end extent... body...] *)
and resolve_loop sc groups op var slot extent body =
  let at = sc.code_len in
  emit sc op;
  emit sc slot;
  emit sc 0;
  emit sc 0;
  emit_operand sc extent;
  sc.code.(at + 2) <- sc.code_len;
  resolve_in_scope sc groups var slot body;
  sc.code.(at + 3) <- sc.code_len

(* Resolve a loop body with the loop variable bound to [slot]. *)
and resolve_in_scope sc groups var slot body =
  let d = sc.nbind in
  sc.b_var <- grown sc.b_var (d + 1) "";
  sc.b_slot <- grown sc.b_slot (d + 1) 0;
  sc.b_var.(d) <- var;
  sc.b_slot.(d) <- slot;
  sc.nbind <- d + 1;
  resolve sc groups body;
  sc.nbind <- d

(* Close the open batch of every register pipeline that accumulated loads. *)
let flush_soft sc =
  for s = 0 to Array.length sc.s_gid - 1 do
    if sc.s_open.(s) then begin
      let group = sc.s_gid.(s) in
      push_commit sc ~group ~flags:sc.g_flags.(group);
      sc.s_batches.(s) <- sc.s_batches.(s) + 1;
      sc.s_open.(s) <- false
    end
  done

(* Before a compute event: retire register-pipeline batches down to the
   pipeline depth, mirroring the hardware scoreboard stall on the operands
   loaded [stages-1] iterations ago. *)
let soft_waits sc =
  flush_soft sc;
  for s = 0 to Array.length sc.s_gid - 1 do
    while sc.s_waits.(s) < sc.s_batches.(s) - sc.s_hide.(s) do
      let group = sc.s_gid.(s) in
      push_wait sc ~group ~flags:sc.g_flags.(group);
      sc.s_waits.(s) <- sc.s_waits.(s) + 1
    done
  done

(* Run the statements in [sc.code.(pc .. stop-1)]. *)
let rec exec sc pc stop =
  let code = sc.code in
  let pc = ref pc in
  while !pc < stop do
    let at = !pc in
    match code.(at) with
    | 0 (* k_load *) ->
      push_load sc ~bytes:(code.(at + 1) * sc.warp_mult) ~group:code.(at + 3)
        ~flags:code.(at + 2);
      let soft = code.(at + 4) in
      if soft >= 0 then sc.s_open.(soft) <- true;
      pc := at + 5
    | 1 (* k_loadn *) ->
      (* Equivalent to [k_for] over a single [k_load]: the first
         iteration's boundary flush can close *any* open pipeline, so it
         goes through [flush_soft]; from the second iteration on, the only
         group a flush could still close is this load's own, so the commit
         is emitted inline (or skipped entirely for non-pipelined loads). *)
      let body = code.(at + 2) in
      let n = eval sc (at + 4) body in
      if n > 0 then begin
        let arg = code.(body + 1) * sc.warp_mult
        and flags = code.(body + 2)
        and group = code.(body + 3)
        and soft = code.(body + 4) in
        push_load sc ~bytes:arg ~group ~flags;
        if soft >= 0 then sc.s_open.(soft) <- true;
        flush_soft sc;
        if soft >= 0 then begin
          let sgid = sc.s_gid.(soft) in
          for _ = 2 to n do
            push_load sc ~bytes:arg ~group ~flags;
            push_commit sc ~group:sgid ~flags:sc.g_flags.(sgid);
            sc.s_batches.(soft) <- sc.s_batches.(soft) + 1
          done
        end
        else
          for _ = 2 to n do
            push_load sc ~bytes:arg ~group ~flags
          done
      end;
      pc := code.(at + 3)
    | 2 (* k_for *) ->
      let slot = code.(at + 1) and body = code.(at + 2)
      and body_end = code.(at + 3) in
      let n = eval sc (at + 4) body in
      for i = 0 to n - 1 do
        sc.env.(slot) <- i;
        exec sc body body_end;
        (* An iteration boundary closes open register-pipeline batches
           (e.g. each prologue-loop iteration loads one chunk). *)
        flush_soft sc
      done;
      pc := body_end
    | 3 (* k_warp *) ->
      let body = code.(at + 2) and body_end = code.(at + 3) in
      let n = eval sc (at + 4) body in
      let saved = sc.warp_mult in
      sc.warp_mult <- saved * n;
      sc.env.(code.(at + 1)) <- 0;
      exec sc body body_end;
      sc.warp_mult <- saved;
      pc := body_end
    | 4 (* k_pin *) ->
      sc.env.(code.(at + 1)) <- 0;
      exec sc (at + 3) code.(at + 2);
      pc := code.(at + 2)
    | 5 (* k_if *) ->
      let rhs = code.(at + 2) and body = code.(at + 3) in
      let l = eval sc (at + 5) rhs in
      let r = eval sc rhs body in
      let holds =
        match code.(at + 1) with
        | 0 -> l = r
        | 1 -> l <> r
        | 2 -> l < r
        | _ -> l <= r
      in
      if holds then exec sc body code.(at + 4);
      pc := code.(at + 4)
    | 6 (* k_row *) ->
      push_row sc ~op:code.(at + 1) ~arg:(code.(at + 2) * sc.warp_mult)
        ~group:(-1) ~flags:code.(at + 3) ~batch:(-1);
      pc := at + 4
    | 7 (* k_sync_row *) ->
      push_row sc ~op:code.(at + 1) ~arg:code.(at + 2) ~group:code.(at + 3)
        ~flags:flag_sync_group ~batch:(-1);
      pc := at + 4
    | 8 (* k_mma *) ->
      soft_waits sc;
      push_row sc ~op:op_compute ~arg:(code.(at + 1) * sc.warp_mult)
        ~group:(-1) ~flags:0 ~batch:(-1);
      pc := at + 2
    | 9 (* k_commit *) ->
      let group = code.(at + 1) in
      push_commit sc ~group ~flags:sc.g_flags.(group);
      pc := at + 2
    | 10 (* k_wait *) ->
      let group = code.(at + 1) in
      push_wait sc ~group ~flags:sc.g_flags.(group);
      pc := at + 2
    | _ (* k_fail *) -> invalid_arg "Trace: malformed mma operands"
  done

let rec add_softs sc s = function
  | [] -> ()
  | (g : A.group) :: rest ->
    if g.A.synchronized then add_softs sc s rest
    else begin
      sc.s_gid.(s) <- intern sc g.A.id;
      sc.s_hide.(s) <- g.A.stages - 1;
      add_softs sc (s + 1) rest
    end

(* The register pipelines' bookkeeping; interns their groups. *)
let open_softs sc groups =
  let rec count n = function
    | [] -> n
    | (g : A.group) :: rest -> count (if g.A.synchronized then n else n + 1) rest
  in
  let n = count 0 groups in
  sc.s_gid <- Array.make n 0;
  sc.s_hide <- Array.make n 0;
  sc.s_open <- Array.make n false;
  sc.s_batches <- Array.make n 0;
  sc.s_waits <- Array.make n 0;
  add_softs sc 0 groups

(* Exact group-table metadata from the pipeline analysis: protocol kind
   (stamped on commit/wait flags via [g_flags]), declared stage count and
   the pass's per-stage byte footprint. A group that emitted no events
   stays out of the table. *)
let rec add_metadata sc = function
  | [] -> ()
  | (g : A.group) :: rest ->
    let idx = group_index sc g.A.id 0 in
    if idx >= 0 then begin
      sc.g_stages.(idx) <- g.A.stages;
      sc.g_bytes.(idx) <- A.stage_footprint_bytes g;
      if g.A.synchronized then begin
        sc.g_sync.(idx) <- true;
        sc.g_flags.(idx) <- flag_sync_group
      end
    end;
    add_metadata sc rest

(* Extract into the domain's scratch and cut the program; a group whose
   stage count is still 0 (a primitive naming a group the analysis did not
   report) takes its observed ring depth. *)
let extract_program ~(groups : A.group list) (kernel : Kernel.t) =
  let sc =
    let b = Domain.DLS.get scratch_key in
    if b.in_use then scratch_fresh () else b
  in
  sc.in_use <- true;
  Fun.protect ~finally:(fun () -> sc.in_use <- false) @@ fun () ->
  sc.len <- 0;
  sc.warp_mult <- 1;
  sc.ng <- 0;
  sc.code_len <- 0;
  sc.nslots <- 0;
  sc.nunbound <- 0;
  sc.nbind <- 0;
  sc.nbuf <- 0;
  add_buffers sc kernel.Kernel.inputs;
  add_buffers sc kernel.Kernel.outputs;
  add_allocs sc kernel.Kernel.body;
  (* group ids in first-use order, shared by resolution and the program *)
  resolve sc groups kernel.Kernel.body;
  open_softs sc groups;
  open_groups sc;
  add_metadata sc groups;
  sc.env <- grown sc.env sc.nslots 0;
  exec sc 0 sc.code_len;
  let n = sc.len in
  let group_stages = sc.g_stages in
  for g = 0 to sc.ng - 1 do
    if group_stages.(g) = 0 then group_stages.(g) <- sc.g_depth.(g)
  done;
  { n;
    opcode = icol_take sc.r_op n;
    arg = icol_take sc.r_arg n;
    group = icol_take sc.r_grp n;
    flags = icol_take sc.r_flg n;
    batch = icol_take sc.r_bat n;
    groups = Array.sub sc.g_id 0 sc.ng;
    group_depth = sc.g_depth;
    group_stages;
    group_sync = sc.g_sync;
    group_bytes = sc.g_bytes }

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
