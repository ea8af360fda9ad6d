(** Analysis phase of the pipelining program transformation (paper
    Sec. III-A) plus re-verification of the legality rules of Sec. II-A. *)

open Alcop_ir

type rejection = {
  buffer : string;
  rule : int;  (** which of the paper's three rules failed; 0 = structural *)
  reason : string;
}

val pp_rejection : Format.formatter -> rejection -> unit

type frame = {
  var : string;
  extent : Expr.t;
  kind : Stmt.loop_kind;
}

type copy_site = {
  dst : Stmt.region;
  src : Stmt.region;
  fused : string option;
  stack : frame list;  (** enclosing loops, innermost first *)
}

type buffer_info = {
  buffer : Buffer.t;
  hint : Hints.hint;
  site : copy_site;
  loop_var : string;   (** the sequential load-and-use loop (step 3) *)
  loop_extent : int;
  producer : string;   (** source buffer of the producing copy (step 2) *)
}

type group = {
  id : string;
  scope : Buffer.scope;
  loop_var : string;
  loop_extent : int;
  loop_depth : int;
  stages : int;
  members : buffer_info list;
  synchronized : bool;
      (** scope-based barriers: guarded by the four-primitive protocol *)
  outer : string option;
      (** id of the group whose buffers produce this group's data *)
  fused : bool;  (** inner-pipeline fusion with [outer] (paper Fig. 3d) *)
}

type t = { groups : group list (** outermost first *) }

val find_group : t -> string -> group option
val group_of_buffer : t -> string -> group option
(** Test-only: tests look up a buffer's group with it. *)

val member_names : group -> string list

val mem_buffer : group -> string -> bool
(** The named buffer is one of the group's members. *)

val loads_group : group -> Stmt.t -> bool
(** The statement contains a copy into one of the group's buffers. *)

val reads_group : group -> Stmt.t -> bool
(** The statement contains a read of one of the group's buffers: a copy
    or unary-op source, an mma operand other than the accumulator, or
    either side of an accumulation. *)

(** Bytes one stage of the group's expanded buffers occupies (sum of the
    pre-expansion member buffer sizes); the footprint the pipeline
    observatory compares occupancy high-water marks against. *)
val stage_footprint_bytes : group -> int

val run :
  hw:Alcop_hw.Hw_config.t -> hints:Hints.t -> Kernel.t ->
  (t, rejection) result
(** [Error] when a hinted buffer fails one of the paper's three legality
    rules or a structural precondition. *)

(** {2 Structured per-buffer legality verdicts}

    [run] stops at the first rejection; [verdicts] evaluates every rule
    for every hinted buffer and never raises, for diagnosis ([alcop
    explain]) and structured error reporting. *)

type rule_check = {
  rule : int;  (** 1, 2 or 3 — the slot in the report *)
  passed : bool;
  detail : string;
      (** structural (rule-0) failures are folded into the slot where they
          were detected, prefixed with "structural:" *)
}

type buffer_verdict = {
  verdict_buffer : string;
  verdict_scope : string;
  pipelined : bool;  (** all three rules passed *)
  verdict_group : string option;  (** group id when pipelined *)
  checks : rule_check list;  (** rules 1, 2, 3 in order *)
}

val verdicts :
  hw:Alcop_hw.Hw_config.t -> hints:Hints.t -> Kernel.t -> buffer_verdict list
(** One verdict per hinted buffer, in hint order. Deterministic for a
    given kernel, so reports can be golden-tested. *)

val pp_verdicts : Format.formatter -> buffer_verdict list -> unit
