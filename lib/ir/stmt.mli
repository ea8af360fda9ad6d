(** Statement IR.

    A kernel is the program of one threadblock, wrapped in [For] loops bound
    to grid / warp dimensions. Data movement is expressed at chunk
    granularity: a {!Copy} moves a rectangular region between buffers, the
    granularity the pipelining pass reasons at (paper Fig. 7).

    Synchronization follows the CUDA pipeline API of Ampere GPUs: a
    pipelined buffer group is guarded by [producer_acquire] /
    [producer_commit] around its loading code and [consumer_wait] /
    [consumer_release] around its using code. [Barrier] is a plain
    block-wide [__syncthreads], which the unpipelined input IR uses. *)

type slice = {
  offset : Expr.t;
  len : int;
}

type region = {
  buffer : string;
  slices : slice list;
}

type loop_binding =
  | Block_x
  | Block_y
  | Block_z
  | Warp_x
  | Warp_y

type loop_kind =
  | Sequential
  | Parallel of loop_binding
  | Unrolled

type copy_kind =
  | Sync_copy
  | Async_copy

type sync =
  | Barrier
  | Producer_acquire of string
  | Producer_commit of string
  | Consumer_wait of string
  | Consumer_release of string

type cmp =
  | Eq
  | Ne
  | Lt
  | Le

type cond = {
  lhs : Expr.t;
  cmp : cmp;
  rhs : Expr.t;
}

type t =
  | Seq of t list
  | For of { var : string; extent : Expr.t; kind : loop_kind; body : t }
  | Alloc of { buffer : Buffer.t; body : t }
  | If of { cond : cond; then_ : t }
  | Copy of { kind : copy_kind; dst : region; src : region; fused : string option }
      (** [fused] names an element-wise function applied in flight; only
          legal on synchronous copies (paper Fig. 5). *)
  | Fill of { dst : region; value : float }
  | Mma of { c : region; a : region; b : region }
      (** Tensor-core matrix-multiply-accumulate on register fragments:
          [c(i,j) += sum_k a(i,k) * b(j,k)]. *)
  | Unop of { dst : region; src : region; op : string }
  | Accum of { dst : region; src : region }
      (** dst += src elementwise; the reduction step of split-K kernels *)
  | Sync of sync

(** {2 Construction} *)

val slice : Expr.t -> int -> slice
val point_slice : Expr.t -> slice
val region : string -> slice list -> region
val full_region : Buffer.t -> region
(** Test-only: tests build regions by hand. *)

val seq : t list -> t
(** Flattens nested [Seq]s; a singleton list collapses to its element. *)

val for_ : ?kind:loop_kind -> string -> Expr.t -> t -> t
val copy : ?kind:copy_kind -> ?fused:string -> dst:region -> src:region -> unit -> t
val alloc : Buffer.t -> t -> t

(** {2 Region utilities} *)

val region_elems : region -> int
val squeeze_lens : region -> int list
val copy_shapes_compatible : dst:region -> src:region -> bool

(** {2 Traversal} *)

val map : (t -> t) -> t -> t
(** Bottom-up rewriting: children first, then the rewritten node. A node
    whose children all come back physically unchanged is passed to the
    function itself, so [map Fun.id s == s]. *)

val allocs : t -> Buffer.t list
(** All allocated buffers in program order. *)

val find_alloc : t -> string -> Buffer.t option
(** The first allocation of the named buffer, in program order. *)

val loop_vars : t -> string list
(** Test-only: tests inspect lowered and pipelined IR with it. *)

val subst_slices : string -> Expr.t -> slice list -> slice list
(** [subst_var] on the offsets of a region's slices; the list comes back
    physically unchanged when no offset mentions the variable. *)

val subst_var : string -> Expr.t -> t -> t
(** Substitute an index variable through every expression of the program.
    A subtree that does not mention the variable comes back physically
    unchanged. *)

(** {2 Statistics} *)

val count : (t -> bool) -> t -> int
(** Test-only: tests count IR patterns with it. *)

val count_copies : ?kind:copy_kind -> t -> int
(** Test-only: tests count primitives in lowered and pipelined IR. *)

val count_syncs : t -> int
(** Test-only: tests count primitives in lowered and pipelined IR. *)

val count_mmas : t -> int
(** Test-only: tests count primitives in lowered and pipelined IR. *)

(** {2 Printing} *)

val binding_to_string : loop_binding -> string
val cmp_to_string : cmp -> string
val pp : Format.formatter -> t -> unit
val to_string : t -> string
(** Test-only: tests match printed IR. *)
