(* The self-contained HTML experiment report: the paper's headline
   figures (fig 10/12/13), the compiler's own selfbench record, and a
   stall-class diff between an unpipelined and a fully pipelined variant
   of the fig 2/3 example — one file, inline SVG, no scripts.

   Figure data comes from results/*.csv when `bench csv` has written
   them, and is recomputed through the same Experiments.*_csv shapes
   otherwise, so both paths agree cell for cell. The selfbench section
   reads BENCH_gpusim.json (skipped with a note when absent: recomputing
   it means re-running bechamel). *)

open Alcop_obs

let geomean = Experiments.geomean

(* --- results/*.csv, with recompute fallback --- *)

(* The figure CSVs are plain comma-joined cells (no quoting; see
   [fig10_csv] etc.), so a split on ',' is a faithful parse. *)
let parse_csv text =
  match
    String.split_on_char '\n' text
    |> List.filter (fun l -> String.trim l <> "")
    |> List.map (String.split_on_char ',')
  with
  | header :: rows -> Some (header, rows)
  | [] -> None

let csv_or_compute path compute =
  match Trace_reader.read_all path with
  | Ok text ->
    (match parse_csv text with Some v -> v | None -> compute ())
  | Error _ -> compute ()

let float_cell s = if s = "" then None else float_of_string_opt s

(* --- sections --- *)

let fig10_section ~results_dir ~hw ~pool () =
  let header, rows =
    csv_or_compute
      (Filename.concat results_dir "fig10.csv")
      (fun () -> Experiments.fig10_csv (Experiments.fig10 ~hw ?pool ()))
  in
  let variants = List.tl header in
  let categories = List.map List.hd rows in
  let cell row i = Option.value ~default:0.0 (float_cell (List.nth row i)) in
  let series =
    List.mapi
      (fun vi name -> (name, List.map (fun row -> cell row (vi + 1)) rows))
      variants
  in
  let geomeans =
    List.map (fun (name, vs) -> (name, geomean vs)) series
  in
  let table_rows =
    List.map (fun row -> List.hd row :: List.tl row) rows
    @ [ "geomean" :: List.map (fun (_, g) -> Printf.sprintf "%.3f" g) geomeans ]
  in
  Report.section ~title:"Fig. 10 — single-operator speedups over TVM"
    ~intro:
      "Best schedule per variant, exhaustive search; the dashed line is \
       parity with the TVM baseline. The rightmost variants add \
       multi-stage (MS) and multi-level (ML) pipelining."
    [ Report.grouped_bars ~refline:1.0 ~y_label:"speedup over TVM"
        ~categories ~series ();
      Report.table ~header ~rows:table_rows ]

let fig12_section ~results_dir ~hw ~pool () =
  let header, rows =
    csv_or_compute
      (Filename.concat results_dir "fig12.csv")
      (fun () -> Experiments.fig12_csv (Experiments.fig12 ~hw ?pool ()))
  in
  let categories = List.map List.hd rows in
  let series =
    List.mapi
      (fun ci name ->
        ( name,
          List.map
            (fun row ->
              Option.value ~default:0.0 (float_cell (List.nth row (ci + 1))))
            rows ))
      (List.tl header)
  in
  let table_rows =
    List.map
      (List.map (fun c -> if c = "" then "compile fail" else c))
      rows
  in
  Report.section
    ~title:"Fig. 12 — performance-model quality (best-in-top-k)"
    ~intro:
      "Fraction of the true best latency reached by taking the model's \
       top-k schedules; higher is better, 1.0 means the model's top-k \
       contains the optimum. \"ours\" is the analytical model, \
       \"bottleneck\" the simpler roofline ranking."
    [ Report.grouped_bars ~y_label:"best-in-top-k (fraction of optimum)"
        ~categories ~series ();
      Report.table ~header ~rows:table_rows ]

let fig13_section ~results_dir ~hw ~pool () =
  let header, rows =
    csv_or_compute
      (Filename.concat results_dir "fig13.csv")
      (fun () -> Experiments.fig13_csv (Experiments.fig13 ~hw ?pool ()))
  in
  (* rows: operator, method, budget, best_in_budget — aggregate to the
     geomean trajectory per method so one line summarizes the suite *)
  let methods =
    List.sort_uniq compare (List.map (fun r -> List.nth r 1) rows)
  in
  let budgets =
    List.sort_uniq compare
      (List.filter_map (fun r -> int_of_string_opt (List.nth r 2)) rows)
  in
  let series =
    List.map
      (fun m ->
        ( m,
          List.filter_map
            (fun b ->
              let vs =
                List.filter_map
                  (fun r ->
                    if List.nth r 1 = m && List.nth r 2 = string_of_int b
                    then float_cell (List.nth r 3)
                    else None)
                  rows
              in
              if vs = [] then None else Some (float_of_int b, geomean vs))
            budgets ))
      methods
  in
  Report.section ~title:"Fig. 13 — search efficiency"
    ~intro:
      "Geomean (across the operator suite) of the best latency found \
       within a trial budget, as a fraction of the exhaustive optimum; \
       higher is better. Model-guided search reaches the optimum with a \
       fraction of the trials random sampling needs."
    [ Report.line_chart ~y_label:"best-in-budget (fraction of optimum)"
        ~x_label:"trial budget" ~series ();
      Report.table ~header ~rows ]

let selfbench_section ~bench_json () =
  match Benchdb.read_file bench_json with
  | Error e ->
    Report.section ~title:"Compiler selfbench"
      ~intro:
        (Printf.sprintf
           "%s unreadable (%s) — run `dune exec bench/main.exe -- selfbench` \
            to generate it."
           bench_json e)
      []
  | Ok r ->
    let rows =
      List.map
        (fun b -> (b.Benchdb.b_id, Benchdb.ops_per_sec b.Benchdb.b_stats))
        r.Benchdb.r_benches
    in
    let machine = r.Benchdb.r_machine in
    Report.section ~title:"Compiler selfbench (bechamel)"
      ~intro:
        (Printf.sprintf
           "Throughput of the compiler's own hot paths (simulated machine: \
            %s), from %s. Log scale: the entries span orders of magnitude."
           machine bench_json)
      [ Report.dot_plot_log ~x_label:"operations / second (log scale)" ~rows ();
        Report.table
          ~header:[ "benchmark"; "ops/sec" ]
          ~rows:
            (List.map
               (fun (id, ops) -> [ id; Printf.sprintf "%.3g" ops ])
               rows) ]

(* --- the fig 2/3 example pair ---

   The unpipelined baseline and the full multi-level pipeline of the
   fig 2/3 example, each recorded once: the stall-class diff and the
   pipeline observatory below fold the same two profiles. *)

let example_spec = Alcop_workloads.Suites.mm_rn50_fc

let example_profile ~hw ~smem_stages ~reg_stages =
  let tiling =
    Alcop_sched.Tiling.make ~tb_m:64 ~tb_n:64 ~tb_k:32 ~warp_m:32 ~warp_n:32
      ~warp_k:16 ()
  in
  let params =
    Alcop_perfmodel.Params.make ~tiling ~smem_stages ~reg_stages ()
  in
  Result.to_option (Compiler.profile ~hw params example_spec)

(* Stall diff between the pair: the per-class cycle deltas partition the
   total cycle delta (each side's classes telescope to its critical
   threadblock's cycles), so the table *accounts for* the speedup. *)
let stall_diff_section = function
  | None, _ | _, None ->
    Report.section ~title:"Why pipelining wins: stall-class diff"
      ~intro:"(profiling the example variants failed on this build)" []
  | Some base, Some piped ->
    let total (p : Alcop_gpusim.Profile.t) =
      p.Alcop_gpusim.Profile.p_timing.Alcop_gpusim.Timing.total_cycles
    in
    let deltas =
      Analytics.diff_stalls
        ~old_stalls:(Alcop_gpusim.Profile.stall_breakdown base)
        ~new_stalls:(Alcop_gpusim.Profile.stall_breakdown piped)
    in
    let to_, tn, td = Analytics.stall_total deltas in
    let header = [ "stall class"; "unpipelined"; "3x2 pipelined"; "delta" ] in
    let rows =
      List.map
        (fun d ->
          [ d.Analytics.st_class;
            Analytics.fmt_num d.Analytics.st_old;
            Analytics.fmt_num d.Analytics.st_new;
            Analytics.fmt_signed d.Analytics.st_delta ])
        deltas
      @ [ [ "total";
            Analytics.fmt_num to_;
            Analytics.fmt_num tn;
            Analytics.fmt_signed td ] ]
    in
    Report.section ~title:"Why pipelining wins: stall-class diff"
      ~intro:
        (Printf.sprintf
           "Critical-threadblock cycles by stall class on %s: unpipelined \
            (1 stage) versus multi-level pipelined (3 smem x 2 reg \
            stages). Kernel total %s -> %s cycles; the per-class deltas \
            below sum exactly to the critical block's cycle delta — the \
            diff accounts for the whole speedup."
           example_spec.Alcop_sched.Op_spec.name
           (Analytics.fmt_num (total base))
           (Analytics.fmt_num (total piped)))
      [ Report.diverging_bars ~pos_label:"more cycles (worse)"
          ~neg_label:"fewer cycles (better)"
          ~rows:(List.map (fun d -> (d.Analytics.st_class, d.Analytics.st_delta)) deltas)
          ();
        Report.table ~header ~rows ]

(* --- the pipeline observatory (doc/pipeview.md) ---

   One renderer for [explain-pipeline --html] and the report's
   observatory section: a compared pair's telescoped latency delta, then
   each view's cycle partition, stage occupancy and prefetch slack. *)

open Alcop_gpusim.Pipeview

let partition_section v =
  Report.section ~title:"Cycle partition"
    ~intro:
      "The five terms partition the critical threadblock's wave cycles \
       exactly; their schedule-to-schedule deltas telescope the latency \
       delta."
    [ Report.table ~header:[ "term"; "cycles"; "share" ]
        ~rows:
          (List.map
             (fun (name, c) ->
               [ name; Printf.sprintf "%.0f" c;
                 Printf.sprintf "%.1f%%"
                   (100.0 *. c /. Float.max 1.0 v.pv_wave_cycles) ])
             v.pv_terms) ]

let occupancy_section v =
  let rows =
    List.concat_map
      (fun g ->
        Array.to_list g.gv_slots
        |> List.map (fun slot ->
               ( Printf.sprintf "%s stage %d" g.gv_id slot.oc_stage,
                 Array.to_list slot.oc_intervals )))
      v.pv_groups
  in
  Report.section ~title:"Stage occupancy"
    ~intro:
      "Fill-to-retire intervals of every pipeline stage slot across the \
       critical threadblock's wave, on a shared cycle axis. Gaps are \
       cycles the stage buffer sat empty."
    [ Report.interval_rows ~x_label:"cycles" ~total:v.pv_wave_cycles ~rows () ]

let slack_section v =
  let slacks = List.map (fun s -> (s.sl_group, s.sl_slack)) v.pv_slacks in
  if slacks = [] then ""
  else begin
    let values = List.map snd slacks in
    let lo = List.fold_left Float.min 0.0 values in
    let hi = Float.max 1.0 (List.fold_left Float.max 0.0 values) in
    let nbins = 8 in
    let width = (hi -. lo) /. float_of_int nbins in
    let bin x = min (nbins - 1) (max 0 (int_of_float ((x -. lo) /. width))) in
    let categories =
      List.init nbins (fun i ->
          Printf.sprintf "%.0f..%.0f"
            (lo +. (float_of_int i *. width))
            (lo +. (float_of_int (i + 1) *. width)))
    in
    let series =
      List.map
        (fun g ->
          let counts = Array.make nbins 0.0 in
          List.iter
            (fun (g', x) ->
              if String.equal g g' then counts.(bin x) <- counts.(bin x) +. 1.0)
            slacks;
          (g, Array.to_list counts))
        (List.sort_uniq compare (List.map fst slacks))
    in
    let table_rows =
      List.map
        (fun g ->
          [ g.gv_id; string_of_int g.gv_stages;
            (if g.gv_synchronized then "scope" else "soft");
            Printf.sprintf "%.1f" g.gv_mean_slack;
            Printf.sprintf "%.1f" g.gv_min_slack;
            Printf.sprintf "%.0f" g.gv_exposed_cycles;
            Printf.sprintf "%.2f" g.gv_duty ])
        v.pv_groups
    in
    Report.section ~title:"Prefetch slack"
      ~intro:
        "Per-wait slack = wait-start minus batch-land cycle; negative \
         slack is exposed copy latency the pipeline failed to hide."
      [ Report.grouped_bars ~y_label:"waits" ~categories ~series ();
        Report.table
          ~header:[ "group"; "stages"; "protocol"; "mean slack";
                    "min slack"; "exposed cycles"; "duty" ]
          ~rows:table_rows ]
  end

let view_sections v =
  [ partition_section v; occupancy_section v; slack_section v ]

let compare_sections ~label_a ~label_b a b =
  let cmp = compare_views a b in
  Report.section ~title:"Latency delta, telescoped"
    ~intro:
      (Printf.sprintf
         "Wave-cycle delta %s → %s, split across the five partition \
          terms; the term deltas sum to the total exactly (integer \
          cycles)."
         label_a label_b)
    [ Report.table
        ~header:[ "term"; label_a; label_b; "delta" ]
        ~rows:
          (List.map
             (fun t ->
               [ t.dt_name; string_of_int t.dt_a; string_of_int t.dt_b;
                 Printf.sprintf "%+d" t.dt_delta ])
             cmp.cmp_terms
          @ [ [ "total"; string_of_int cmp.cmp_total_a;
                string_of_int cmp.cmp_total_b;
                Printf.sprintf "%+d" cmp.cmp_total_delta ] ]);
      Report.diverging_bars ~pos_label:"slower in B" ~neg_label:"faster in B"
        ~rows:
          (List.map (fun t -> (t.dt_name, float_of_int t.dt_delta))
             cmp.cmp_terms)
        () ]
  :: (view_sections a @ view_sections b)

let observatory_page sections =
  Report.page ~title:"ALCOP pipeline observatory"
    ~subtitle:"per-stage occupancy, prefetch slack, sync attribution"
    sections

let pipeview_page v = observatory_page (view_sections v)

let pipeview_compare_page ~label_a ~label_b a b =
  observatory_page (compare_sections ~label_a ~label_b a b)

(* The report's observatory: [explain-pipeline --compare 1x1,3x2]'s
   sections on the example pair, under one heading. *)
let pipeview_section = function
  | None, _ | _, None ->
    Report.section ~title:"Pipeline observatory"
      ~intro:"(analyzing the example variants failed on this build)" []
  | Some base, Some piped ->
    String.concat "\n"
      (Report.section ~title:"Pipeline observatory"
         ~intro:
           (Printf.sprintf
              "Per-stage buffer occupancy and prefetch slack of the 1x1 \
               and 3x2 schedules on %s, and the 1x1 -> 3x2 latency delta \
               telescoped into five partition terms (integer cycles, \
               exact; doc/pipeview.md)."
              example_spec.Alcop_sched.Op_spec.name)
         []
      :: compare_sections ~label_a:"1x1" ~label_b:"3x2" (of_profile base)
           (of_profile piped))

(* --- assembly --- *)

let generate ?(hw = Alcop_hw.Hw_config.default) ?pool
    ?(results_dir = "results") ?(bench_json = "BENCH_gpusim.json") () =
  let examples =
    ( example_profile ~hw ~smem_stages:1 ~reg_stages:1,
      example_profile ~hw ~smem_stages:3 ~reg_stages:2 )
  in
  Report.page ~title:"ALCOP experiment report"
    ~subtitle:
      (Printf.sprintf
         "Automatic load-compute pipelining, reproduced in simulation \
          (machine: %s). Figures recomputed from %s/*.csv when present."
         hw.Alcop_hw.Hw_config.name results_dir)
    ([ fig10_section ~results_dir ~hw ~pool ();
       fig12_section ~results_dir ~hw ~pool ();
       fig13_section ~results_dir ~hw ~pool ();
       selfbench_section ~bench_json ();
       stall_diff_section examples;
       pipeview_section examples ])
