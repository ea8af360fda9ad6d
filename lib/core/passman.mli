(** The pass manager: compile phases as first-class, instrumented passes.

    The paper's architecture (Fig. 4) is an explicit pipeline — schedule
    construction, lowering, the pipelining transformation, trace
    extraction, timing simulation. [Compiler.compile] runs each phase
    through {!run}, which gives every pass uniformly:

    - an [Alcop_obs] span named [compile.<pass>] (unchanged from the
      pre-passman span names, so existing traces and tools keep working);
    - a wall-time gauge [pass.<pass>.ms] and a counter [pass.<pass>.runs];
    - a dump hook ([--dump-ir-after=PASS] in [alcop show]/[alcop explain])
      that receives the intermediate kernel right after the pass runs.

    The pass registry is static: it describes the passes
    [Compiler.compile] executes, in order, so CLIs can validate pass names
    and print help without compiling anything. *)

type info = {
  name : string;       (** registry key, e.g. ["lower"] *)
  title : string;      (** one-line description for [--help] output *)
  produces_ir : bool;  (** whether the pass yields a kernel to dump *)
}

val find : string -> info option
(** Test-only: the registry test reads one entry's fields. *)

val names : string list
(** Bench-only: perfbench lists its per-pass metrics from it; the
    registry test checks it.
    Names of the compile pipeline's passes in execution order:
    [schedule; lower; pipeline; trace; timing]. *)

val ir_pass_names : string list
(** Test-only: the registry test checks which passes produce IR.
    Names of the IR-producing passes (valid [--dump-ir-after] targets). *)

(** {2 IR dump hook} *)

val set_dump :
  after:string -> (string -> Alcop_ir.Kernel.t -> unit) -> (unit, string) result
(** Install a hook called with [(pass_name, kernel)] right after the named
    pass produces a kernel. [Error] when the pass is unknown or produces no
    IR; the payload is a ready-to-print message listing valid names. Only
    one hook is active at a time. *)

val clear_dump : unit -> unit
(** Test-only: tests uninstall the dump hook between cases. *)

(** {2 Running a pass} *)

val run :
  name:string ->
  ?ir_of:('a -> Alcop_ir.Kernel.t option) ->
  (unit -> 'a) ->
  'a
(** [run ~name ?ir_of f] executes [f] as the named pass: inside an obs span
    [compile.<name>], timing it into the [pass.<name>.ms] gauge, counting
    [pass.<name>.runs], then — when [ir_of] extracts a kernel from the
    result — feeding the dump hook. The passes that produce IR validate
    it themselves ([Lower.run], [Alcop_pipeline.Pass.run]). Escaping
    exceptions still close the span. *)
