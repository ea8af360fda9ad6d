(** The self-contained HTML experiment report ([alcop report]): the
    paper's headline figures (10, 12, 13), the compiler selfbench, a
    stall-class diff explaining the pipelining speedup and the pipeline
    observatory of the same example pair — one HTML page with inline SVG,
    no scripts, no external resources.

    Figure data is read from [results_dir]'s CSVs when `bench csv` has
    written them and recomputed through the same {!Experiments} CSV
    shapes otherwise; the selfbench section reads [bench_json] (and notes
    its absence rather than re-running bechamel). *)

val generate :
  ?hw:Alcop_hw.Hw_config.t -> ?pool:Alcop_par.Pool.t ->
  ?results_dir:string -> ?bench_json:string -> unit -> string
(** The report page. Each schedule of the example pair (1x1 and 3x2
    stages on MM_RN50_FC) is recorded once; the stall-class diff and the
    observatory section fold the same profiles. *)

(** {1 The pipeline observatory}

    One renderer for [alcop explain-pipeline --html] and the report's
    "Pipeline observatory" section (doc/pipeview.md). *)

val pipeview_page : Alcop_gpusim.Pipeview.t -> string
(** One schedule: its cycle partition, stage occupancy waterfall and
    prefetch-slack histogram. *)

val pipeview_compare_page :
  label_a:string -> label_b:string ->
  Alcop_gpusim.Pipeview.t -> Alcop_gpusim.Pipeview.t -> string
(** Two schedules: the latency delta A -> B telescoped into the five
    partition terms, then each schedule's sections as in
    {!pipeview_page}. *)
