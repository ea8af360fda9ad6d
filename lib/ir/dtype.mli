(** Element data types of tensors. *)

type t =
  | F16
  | F32
  | I32
  | I8

val size_bytes : t -> int
(** Storage size of one element in bytes. *)

val to_string : t -> string

val of_string : string -> t option
(** Test-only: the IR tests check the name round trip. *)

val pp : Format.formatter -> t -> unit

val quantize : t -> float -> float
(** Round a float to the representable grid of the data type. Used by the
    functional interpreter to emulate reduced-precision storage. *)
