(** Experiment drivers: one function per table / figure of the paper's
    evaluation section, plus two extensions. Each returns structured data;
    the bench executable formats it. See DESIGN.md's experiment index and
    EXPERIMENTS.md for the paper-versus-measured record. *)

open Alcop_sched

val geomean : float list -> float

(** {2 E1 — Fig. 1(b): the motivating example} *)

type fig1b_row = {
  tile : string;
  tb_count : int;
  tflops_tiling_only : float option;
  tflops_pipelined : float option;
}

val fig1b : ?hw:Alcop_hw.Hw_config.t -> unit -> fig1b_row list

(** {2 E2 — Fig. 10: single-operator speedups} *)

type fig10_row = {
  op : string;
  speedups : (string * float) list;  (** variant name -> speedup over TVM *)
}

type fig10_result = {
  rows : fig10_row list;
  geomeans : (string * float) list;
}

val fig10 :
  ?hw:Alcop_hw.Hw_config.t -> ?pool:Alcop_par.Pool.t ->
  ?suite:Op_spec.t list -> unit -> fig10_result
(** [pool] fans the suite across worker domains, one operator per task
    (bit-identical rows; see doc/parallelism.md). *)

(** {2 E3 — Table III: end-to-end models} *)

val table3 : ?hw:Alcop_hw.Hw_config.t -> unit -> E2e.report list

(** {2 E4 — Fig. 11: versus libraries} *)

type fig11_row = {
  op11 : string;
  normalized_to_library : float option;
      (** library latency / ALCOP latency; > 1 means ALCOP wins *)
}

val fig11 :
  ?hw:Alcop_hw.Hw_config.t -> ?suite:Op_spec.t list -> unit -> fig11_row list

(** {2 E5 — Fig. 12: best-in-top-k of the performance models} *)

type fig12_row = {
  op12 : string;
  ours_top : (int * float option) list;
  bottleneck_top : (int * float option) list;
}

val fig12 :
  ?hw:Alcop_hw.Hw_config.t -> ?pool:Alcop_par.Pool.t ->
  ?suite:Op_spec.t list -> ?ks:int list -> unit ->
  fig12_row list

(** {2 E6 — Fig. 13: search efficiency} *)

type fig13_row = {
  op13 : string;
  per_method : (string * (int * float option) list) list;
}

val fig13 :
  ?hw:Alcop_hw.Hw_config.t -> ?pool:Alcop_par.Pool.t ->
  ?suite:Op_spec.t list -> ?budgets:int list ->
  ?seed:int -> unit -> fig13_row list

(** {2 E7 — Table I agreement} *)

type table1_row = {
  op1 : string;
  predicted_cycles : float;
  simulated_cycles : float;
  rel_error : float;
  smem_bound : bool;
}

val table1 :
  ?hw:Alcop_hw.Hw_config.t -> ?suite:Op_spec.t list -> unit -> table1_row list

(** {2 E8 — Figs. 2–3 quantified} *)

type fig23_row = {
  label : string;
  cycles : float option;
  speedup_over_unpipelined : float option;
}

val fig23 :
  ?hw:Alcop_hw.Hw_config.t -> ?spec:Op_spec.t -> unit -> fig23_row list

(** {2 E9 — extensions: hardware scaling and generations} *)

type scaling_row = {
  compute_scale : float;
  peak_tflops : float;
  mean_speedup : float;
}

val scaling :
  ?hw:Alcop_hw.Hw_config.t -> ?subset:Op_spec.t list -> ?scales:float list ->
  unit -> scaling_row list

type generation_row = {
  machine : string;
  gen_speedup : float;
}

val generations : ?subset:Op_spec.t list -> unit -> generation_row list

(** {2 CSV shapes}

    [(header, rows)] pairs shared by the bench CSV export and the HTML
    report's recompute fallback, so [results/*.csv] and a standalone
    report agree cell for cell. Optional cells (compile failures) render
    as empty strings. *)

val fig10_csv : fig10_result -> string list * string list list
val fig12_csv : fig12_row list -> string list * string list list
val fig13_csv : fig13_row list -> string list * string list list
