(** Buffers: named, statically shaped storage at one level of the GPU
    memory hierarchy. *)

type scope =
  | Global    (** device memory *)
  | Shared    (** per-threadblock shared memory *)
  | Register  (** per-warp register file fragments *)

val scope_to_string : scope -> string
val scope_equal : scope -> scope -> bool

val inner_scope : scope -> scope option
(** Test-only: the IR tests check the memory-level order.
    The next memory level closer to the compute units, if any. *)

type t = private {
  name : string;
  scope : scope;
  dtype : Dtype.t;
  shape : int list;
}

val make : name:string -> scope:scope -> dtype:Dtype.t -> shape:int list -> t
(** @raise Invalid_argument on an empty shape or non-positive dimension. *)

val num_elements : t -> int
val size_bytes : t -> int
val rank : t -> int

val with_stage_dim : int -> t -> t
(** [with_stage_dim n b] prepends a pipeline-stage dimension of extent [n];
    the pipelining pass's buffer-expansion step.
    @raise Invalid_argument if [n < 2]. *)

val pp : Format.formatter -> t -> unit
