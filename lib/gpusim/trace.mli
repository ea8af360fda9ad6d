(** Per-threadblock event traces extracted from kernel IR.

    The timing simulator replays the sequence of loads, computes and
    synchronization points one threadblock executes. Grid loop variables are
    pinned to zero (every threadblock runs the same program) and
    warp-parallel loops are aggregated (event bytes/FLOPs are summed across
    the warps of a threadblock).

    Scope-synchronized pipelines take their commit/wait structure directly
    from the IR's primitives; register-level pipelines have no explicit
    primitives — the hardware scoreboard stalls the consumer — so the
    extractor synthesizes the equivalent batches: a compute event waits
    until all batches except the youngest [stages-1] have completed.

    A trace has one representation, the packed {!program} — parallel int
    arrays with an interned group table and precomputed batch ordinals —
    produced by {!extract_program} with no per-event boxing. The test
    suite keeps a boxed event view of it, with its own packer that
    computes batch ordinals and ring depths independently of the
    extractor. *)

open Alcop_ir

type level =
  | From_global
  | From_shared

(** {1 Packed programs}

    Struct-of-arrays encoding: event [i] is described by [opcode.{i}],
    [arg.{i}], [group.{i}], [flags.{i}] and [batch.{i}]. Pipeline groups
    are interned into [groups]; [group.{i}] is an index into it, [-1] when
    the event has no group. *)

(** Opcodes (values of [opcode.{i}]); the simulator reads every value
    but the seven below as a compute event, whose [arg] is its FLOPs. *)

val op_load : int
val op_store : int
val op_commit : int
val op_wait : int
val op_acquire : int
val op_release : int
val op_barrier : int

val op_compute : int
(** Test-only: tests pack compute events with the value the extractor
    gives them. *)

(** Flag bits (values or-ed into [flags.{i}]). *)

val flag_async : int
val flag_shared : int

val flag_sync_group : int
(** Test-only: tests pack and decode the sync bit of events.
    Set on commit/wait/acquire/release events of scope-synchronized
    pipeline groups; clear on the synthesized commit/wait pairs of
    register ("soft") pipelines. Ignored by the simulator, which reads the
    protocol of a group from [group_sync]. *)

type icol = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t
(** A program column. Bigarray storage is malloc'd outside the OCaml heap,
    so emitting a program costs a handful of mallocs plus a memcpy rather
    than major-heap allocations (whose GC pacing debt dominated
    extraction). *)

type program = {
  n : int;  (** event count *)
  opcode : icol;
  arg : icol;
      (** load/store: bytes; compute: FLOPs; acquire: stages; wait: index
          of the committed batch it consumes, [-1] when the wait fires
          before any commit (it then waits on nothing) *)
  group : icol;  (** index into [groups], [-1] = no group *)
  flags : icol;
  batch : icol;
      (** precomputed batch ordinal within the event's group: for async
          grouped loads the batch they join, for commits the batch they
          close, for waits their consumption ordinal; [-1] otherwise.
          Program-static because every threadblock runs the same program. *)
  groups : string array;  (** interned pipeline-group ids *)
  group_depth : int array;
      (** per group: peak committed-but-unconsumed batches (ring capacity
          a replay needs), always [>= 1] *)
  group_stages : int array;
      (** per group: the pipeline stage count the pass planned; falls back
          to [group_depth] when unknown *)
  group_sync : bool array;
      (** per group: [true] for scope-synchronized pipelines, [false] for
          scoreboard-synthesized register pipelines *)
  group_bytes : int array;
      (** per group: bytes one pipeline stage occupies — the pass's
          per-stage buffer footprint, [0] when unknown *)
}

val length : program -> int

val extract_program :
  groups:Alcop_pipeline.Analysis.group list -> Kernel.t -> program
(** Extract the packed trace of one representative threadblock. [groups]
    must be the pipeline groups the pass reported for this kernel (empty
    for unpipelined kernels). Extraction is allocation-lean: the kernel
    body is resolved once into a flat code array in domain-local scratch,
    which is then interpreted straight into the scratch's event columns;
    a call allocates only the program it returns and a few group-sized
    counter arrays.
    @raise Invalid_argument ["Trace: unknown buffer ..."] when the body
    names a buffer that is neither a parameter nor allocated, even where
    no threadblock reaches it; ["Expr.eval: unbound variable ..."] only
    when a loop extent or condition that mentions one is evaluated;
    ["Trace: malformed mma operands"] only when such an mma is reached. *)

val program_hash : program -> string
(** Content digest of the packed encoding (group table included),
    computed on each call. Two programs with equal hashes are, up to MD5
    collision, the same event sequence; profile exports carry it to
    identify the trace. *)

type stats = {
  global_load_bytes : int;
  shared_load_bytes : int;
  store_bytes : int;
  flops : int;
  n_events : int;
}

val stats_of_program : program -> stats
