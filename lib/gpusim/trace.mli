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

    The simulator runs on the packed {!program} representation — parallel
    int arrays with an interned group table and precomputed batch ordinals
    — produced by {!extract_program} with no per-event boxing. The boxed
    {!event} type is the view for tests and hand-built traces: {!pack}
    pushes events through the extractor's own builder, so batch ordinals
    are computed by one recurrence, and {!decode} prints a program back. *)

open Alcop_ir

type level =
  | From_global
  | From_shared

type event =
  | Load of { level : level; bytes : int; async : bool; group : string option }
  | Store of { bytes : int }
  | Commit of { group : string; sync : bool }
      (** [sync] distinguishes scope-synchronized pipeline commits from
          scoreboard-synthesized register-pipeline ones *)
  | Wait_oldest of { group : string; sync : bool }
  | Acquire of { group : string; stages : int }
  | Release of string
  | Barrier
  | Compute of { flops : int }

val pp_event : Format.formatter -> event -> unit
(** Test-only: tests print failing event sequences. *)

(** {1 Packed programs}

    Struct-of-arrays encoding: event [i] is described by [opcode.{i}],
    [arg.{i}], [group.{i}], [flags.{i}] and [batch.{i}]. Pipeline groups
    are interned into [groups]; [group.{i}] is an index into it, [-1] when
    the event has no group. *)

(** Opcodes (values of [opcode.{i}]); every other value is a compute
    event, whose [arg] is its FLOPs. *)

val op_load : int
val op_store : int
val op_commit : int
val op_wait : int
val op_acquire : int
val op_release : int
val op_barrier : int

(** Flag bits (values or-ed into [flags.{i}]). *)

val flag_async : int
val flag_shared : int

val flag_sync_group : int
(** Test-only: tests check the sync bit of packed events.
    Set on commit/wait/acquire/release events of scope-synchronized
    pipeline groups; clear on the synthesized commit/wait pairs of
    register ("soft") pipelines. Ignored by the simulator — carried for
    decoded views and the pipeline observatory. *)

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
      (** per group: the pipeline stage count the pass planned on the
          {!extract_program} path; for {!pack}-built traces the largest
          acquire argument. Either falls back to [group_depth] when
          unknown. *)
  group_sync : bool array;
      (** per group: [true] for scope-synchronized pipelines, [false] for
          scoreboard-synthesized register pipelines *)
  group_bytes : int array;
      (** per group: bytes one pipeline stage occupies — the pass's
          per-stage buffer footprint on the {!extract_program} path; for
          {!pack}-built traces, derived from the events as the peak
          async-load byte sum of one batch. [0] when unknown. *)
}

val length : program -> int

val extract_program :
  groups:Alcop_pipeline.Analysis.group list -> Kernel.t -> program
(** Extract the packed trace of one representative threadblock. [groups]
    must be the pipeline groups the pass reported for this kernel (empty
    for unpipelined kernels). This is the allocation-lean primary path:
    the kernel body is resolved once into a flat code array in
    domain-local scratch, which is then interpreted straight into the
    scratch's event columns; a call allocates only the program it
    returns and a few group-sized counter arrays.
    @raise Invalid_argument ["Trace: unknown buffer ..."] when the body
    names a buffer that is neither a parameter nor allocated, even where
    no threadblock reaches it; ["Expr.eval: unbound variable ..."] only
    when a loop extent or condition that mentions one is evaluated;
    ["Trace: malformed mma operands"] only when such an mma is reached. *)

val pack : event array -> program
(** Pack a boxed event sequence by pushing it through the builder
    {!extract_program} uses, so batch ordinals and ring depths come from
    the same recurrence. The group table is derived from the events: a
    group is synchronized when any of its protocol events carries [sync]
    (acquire and release always do), its stage count is the largest
    acquire argument, and its byte footprint is the peak async-load byte
    sum of one batch. Intended for tests and hand-built traces. *)

val decode : program -> event array
(** Test-only: tests, and the frozen legacy engine they compare against,
    read programs as boxed events.
    The boxed view of a program, event by event. *)

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
