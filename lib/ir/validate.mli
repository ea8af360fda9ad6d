(** Structural validation of kernels.

    Run on both the lowered input IR and the pipelined output IR; catches
    malformed programs (undeclared buffers, rank/shape mismatches, async
    copies with fused ops or non-shared destinations, variable scoping
    errors) before the interpreter runs. Dynamic properties are checked by
    the interpreter. *)

type error = {
  context : string;
  message : string;
}

exception Invalid of error list

val check : Kernel.t -> (unit, error list) result

val check_exn : Kernel.t -> unit
(** @raise Invalid with all collected errors. *)

val errors_to_string : error list -> string
