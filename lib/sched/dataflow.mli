(** Dataflow stage graph: the structure the schedule transformation (paper
    Sec. II) rewrites, equivalent to TVM's stage list. *)

open Alcop_ir

type kind =
  | Placeholder
  | Elemwise of { src : string; op : string }
  | Cache_read of { src : string; scope : Buffer.scope; fused : string option }
  | Gemm of { a : string; b : string }

type stage = {
  name : string;
  kind : kind;
  shape : int list;
  dtype : Dtype.t;
}

type t = {
  stages : stage list;  (** topological order, producers first *)
  output : string;
}

val find : t -> string -> stage option
val find_exn : t -> string -> stage
val mem : t -> string -> bool
(** Test-only: the schedule tests inspect the dataflow graph. *)

val consumers : t -> string -> stage list
val producer : t -> string -> string option
(** Test-only: the schedule tests inspect the dataflow graph. *)

val of_spec : Op_spec.t -> t

val cache_read : t -> string -> Buffer.scope -> t * string
(** Insert a cache-read stage of the named stage in the given scope,
    retargeting all consumers through it. Returns the new stage name. *)

val set_fused : t -> string -> string -> t
(** Attach a fused element-wise op to a cache-read stage's copy. *)

val remove_elemwise : t -> string -> t
(** Remove an element-wise stage, rewiring consumers to its source. *)

val cache_stages : t -> stage list

val cache_chain : t -> string -> string list * string
(** [cache_chain t operand] follows cache reads from a GEMM operand back to
    its non-cache root: returns the chain outermost-first (e.g.
    [\["A_sh"; "A_reg"\]]) and the root stage name. *)

val kind_to_string : kind -> string
