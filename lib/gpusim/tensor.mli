(** Dense row-major host tensors for the functional interpreter and
    reference implementations. Values are float64; dtype drives byte
    accounting only. Storage is an unboxed [Bigarray.Array1] (float64,
    C layout), so element access never allocates on the OCaml heap. *)

open Alcop_ir

type data = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = {
  shape : int list;
  strides : int array;
  data : data;
  dtype : Dtype.t;
}

val strides_of : int list -> int array

val shape_equal : int list -> int list -> bool
(** Dimension-wise integer equality (no polymorphic compare). *)

val alloc : int -> data
(** Fresh uninitialized float64 storage of [n] elements. *)

val create : ?dtype:Dtype.t -> int list -> float -> t
(** Test-only: tests build constant-filled input tensors. *)

val zeros : ?dtype:Dtype.t -> int list -> t
val init : ?dtype:Dtype.t -> int list -> (int array -> float) -> t

val random : ?dtype:Dtype.t -> seed:int -> int list -> t
(** Deterministic pseudo-random values in [-1, 1). *)

val get : t -> int array -> float
val set : t -> int array -> float -> unit
val map : (float -> float) -> t -> t

val max_abs_diff : t -> t -> float
val allclose : ?atol:float -> ?rtol:float -> t -> t -> bool
