(** The self-contained HTML experiment report ([alcop report], [bench
    report]): the paper's headline figures (10, 12, 13), the compiler
    selfbench trajectory, and a stall-class diff explaining the pipelining
    speedup — one HTML file with inline SVG, no scripts, no external
    resources.

    Figure data is read from [results_dir]'s CSVs when `bench csv` has
    written them and recomputed through the same {!Experiments} CSV
    shapes otherwise; the selfbench section reads [bench_json] (and notes
    its absence rather than re-running bechamel). *)

val write :
  ?hw:Alcop_hw.Hw_config.t -> ?pool:Alcop_par.Pool.t ->
  ?results_dir:string -> ?bench_json:string -> ?history_dir:string ->
  string -> unit
(** [generate] to a file. *)
