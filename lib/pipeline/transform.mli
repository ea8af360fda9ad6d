(** Transformation phase of the pipelining pass (paper Sec. III-B): buffer
    expansion, index shifting, buffer rolling / out-of-bound wrapping,
    prologue injection and synchronization injection, with multi-level
    inner-pipeline fusion (paper Fig. 3d). *)

open Alcop_ir

val run : Analysis.t -> Kernel.t -> Kernel.t
(** Rewrite every load-and-use loop identified by the analysis into its
    pipelined form. The input kernel must be the one the analysis ran on. *)

(**/**)

(* Exposed for white-box unit tests. *)

val prologue_var_of : string -> string
(** Test-only: tests find the prologue loop by its variable. *)
