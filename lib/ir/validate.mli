(** Structural validation of kernels.

    Run on both the lowered input IR ([Lower.run]) and the pipelined output
    IR ([Pipeline.Pass.run]) of every compile; catches malformed programs
    (undeclared buffers, rank/shape mismatches, async copies with fused ops
    or non-shared destinations, variable scoping errors) before the
    interpreter runs. Dynamic properties are checked by the interpreter.

    Allocation contract: on a well-formed kernel {!check} allocates only
    one list cell per enclosing loop variable and per allocated buffer (its
    scope stacks) and returns [Ok ()]. Errors, and anything their messages
    need, are built only once a check fails; they come in traversal
    order. *)

type error = {
  context : string;
  message : string;
}

exception Invalid of error list

val check : Kernel.t -> (unit, error list) result

val check_exn : Kernel.t -> unit
(** @raise Invalid with all collected errors. *)

val errors_to_string : error list -> string
