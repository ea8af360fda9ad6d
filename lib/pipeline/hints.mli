(** Pipelining hints: the product of the schedule transformation (paper
    Sec. II). Each hint marks one buffer as pipelined. *)

type hint = {
  buffer : string;
  stages : int;
  inner_fuse : bool;
      (** request inner-pipeline fusion (paper Fig. 3d) when this buffer's
          pipeline is nested inside another pipeline *)
}

type t = hint list

val make : ?inner_fuse:bool -> buffer:string -> stages:int -> unit -> hint
(** @raise Invalid_argument if [stages < 2]. *)

val empty : t

val add : t -> hint -> t
(** @raise Invalid_argument on a duplicate buffer. *)

val mem : t -> string -> bool
val buffers : t -> string list
(** Test-only: the schedule tests list the hinted buffers. *)
