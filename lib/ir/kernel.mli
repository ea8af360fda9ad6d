(** A kernel: the unit the compiler produces and the simulators consume. *)

type t = {
  name : string;
  inputs : Buffer.t list;   (** global-memory input tensors *)
  outputs : Buffer.t list;  (** global-memory output tensors *)
  body : Stmt.t;
}

val make :
  name:string -> inputs:Buffer.t list -> outputs:Buffer.t list -> body:Stmt.t -> t
(** @raise Invalid_argument if a parameter is not in global scope. *)

val find_param : t -> string -> Buffer.t option

val all_buffers : t -> Buffer.t list
(** Parameters plus every buffer allocated in the body, program order. *)

val find_buffer : t -> string -> Buffer.t option

val map_body : (Stmt.t -> Stmt.t) -> t -> t
(** Test-only: tests build variants of lowered kernels with it. *)

val to_string : t -> string
