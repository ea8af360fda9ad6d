(* Tests for the trace analytics layer: histogram bucket math and
   percentiles, the live-session -> JSONL -> Trace_reader round-trip (a
   QCheck property over random instrumentation scripts), span-tree
   reconstruction and critical-path extraction, trace diffs, the golden
   text of `alcop trace summary`, and the stall-diff invariant on two real
   fig 2/3 pipeline variants: per-class cycle deltas sum exactly to the
   critical threadblock's cycle delta. *)

open Alcop_obs

(* A deterministic clock: strictly increasing 1 ms per read. *)
let install_fake_clock () =
  let t = ref 0.0 in
  Obs.set_clock (fun () ->
      t := !t +. 0.001;
      !t)

let with_fresh f =
  Obs.reset ();
  install_fake_clock ();
  Fun.protect ~finally:Obs.reset f

(* --- histograms --- *)

let test_hist_empty_and_single () =
  let h = Obs.hist_empty () in
  Alcotest.(check bool) "empty p50 is nan" true
    (Float.is_nan (Obs.hist_percentile h 0.5));
  let h = Obs.hist_observe h 42.0 in
  Alcotest.(check int) "count" 1 h.Obs.h_count;
  (* single observation: every quantile is clamped to the exact value *)
  List.iter
    (fun q ->
      Alcotest.(check (float 1e-12))
        (Printf.sprintf "p%.0f exact" (100.0 *. q))
        42.0
        (Obs.hist_percentile h q))
    [ 0.0; 0.5; 0.9; 0.99; 1.0 ]

let test_hist_percentile_accuracy () =
  (* 1..1000: the q-quantile is ~1000q; log buckets bound relative error
     at 10^(1/8)-1 ~ 33% *)
  let values = List.init 1000 (fun i -> float_of_int (i + 1)) in
  let h = Obs.hist_of_values values in
  Alcotest.(check int) "count" 1000 h.Obs.h_count;
  List.iter
    (fun q ->
      let exact = 1000.0 *. q in
      let est = Obs.hist_percentile h q in
      Alcotest.(check bool)
        (Printf.sprintf "p%.0f within bucket resolution" (100.0 *. q))
        true
        (Float.abs (est -. exact) /. exact < 0.34))
    [ 0.5; 0.9; 0.99 ]

let test_hist_merge_equals_combined () =
  let a = [ 1e-3; 4.0; 17.0; 2.5e6 ] and b = [ 0.0; 9.9; 1e-12 ] in
  let merged = Obs.hist_merge (Obs.hist_of_values a) (Obs.hist_of_values b) in
  let combined = Obs.hist_of_values (a @ b) in
  Alcotest.(check int) "count" combined.Obs.h_count merged.Obs.h_count;
  Alcotest.(check (float 1e-12)) "sum" combined.Obs.h_sum merged.Obs.h_sum;
  Alcotest.(check (float 1e-12)) "min" combined.Obs.h_min merged.Obs.h_min;
  Alcotest.(check (float 1e-12)) "max" combined.Obs.h_max merged.Obs.h_max;
  Alcotest.(check (array int)) "buckets" combined.Obs.h_buckets
    merged.Obs.h_buckets

let test_hist_bucket_edges () =
  (* each value lands in a bucket whose [lo, hi) range contains it — up to
     one ulp of slack at exact decade boundaries, where log10/pow rounding
     can push a value one bucket either way *)
  List.iter
    (fun v ->
      let i = Obs.hist_bucket_index v in
      Alcotest.(check bool)
        (Printf.sprintf "%g >= lo" v)
        true
        (v >= Obs.hist_bucket_lo i *. (1.0 -. 1e-9) || i = 0);
      Alcotest.(check bool) (Printf.sprintf "%g < hi" v) true
        (v < Obs.hist_bucket_hi i *. (1.0 +. 1e-9)))
    [ 0.0; 1e-10; 1e-9; 1.0; 3.7; 1e3; 9.99e8; 1e20 ]

(* --- live session -> JSONL -> Trace_reader round-trip --- *)

type op =
  | Count of string * int
  | Gauge of string * float
  | Observe of string * float
  | Point of string
  | Span of string * op list

let rec exec = function
  | Count (n, k) -> Obs.count ~n:k n
  | Gauge (n, v) -> Obs.gauge n v
  | Observe (n, v) -> Obs.observe n v
  | Point n -> Obs.point n []
  | Span (n, ops) -> Obs.with_span n (fun () -> List.iter exec ops)

(* Expected span forest of a script: name + children, in order. *)
type shape = Shape of string * shape list

let rec expected_spans op =
  match op with
  | Span (n, ops) -> [ Shape (n, List.concat_map expected_spans ops) ]
  | _ -> []

let rec actual_spans (s : Trace_reader.span) =
  Shape
    (s.Trace_reader.sp_name,
     List.map actual_spans s.Trace_reader.sp_children)

let shape_testable : shape list Alcotest.testable =
  let rec pp fmt l =
    Format.fprintf fmt "[%a]"
      (Format.pp_print_list (fun fmt (Shape (n, cs)) ->
           Format.fprintf fmt "%s%a" n pp cs))
      l
  in
  Alcotest.testable pp ( = )

let op_gen =
  let open QCheck.Gen in
  let name = oneofl [ "a"; "b"; "c"; "load.g0" ] in
  sized_size (int_bound 12) @@ fix (fun self n ->
      if n = 0 then
        oneof
          [ map2 (fun s k -> Count (s, k)) name (int_range 1 5);
            map2 (fun s v -> Gauge (s, v)) name (float_bound_exclusive 1e6);
            map2 (fun s v -> Observe (s, v)) name (float_bound_exclusive 1e4);
            map (fun s -> Point s) name ]
      else
        map2 (fun s ops -> Span (s, ops)) name
          (list_size (int_bound 3) (self (n / 2))))

let hist_equal (a : Obs.histogram) (b : Obs.histogram) =
  a.Obs.h_count = b.Obs.h_count
  && a.Obs.h_sum = b.Obs.h_sum
  && a.Obs.h_min = b.Obs.h_min
  && a.Obs.h_max = b.Obs.h_max
  && a.Obs.h_buckets = b.Obs.h_buckets

let prop_jsonl_roundtrip =
  QCheck.Test.make ~count:100 ~name:"jsonl -> trace_reader round-trip"
    (QCheck.make (QCheck.Gen.list_size (QCheck.Gen.int_bound 6) op_gen))
    (fun script ->
      Obs.reset ();
      install_fake_clock ();
      let buf = Buffer.create 1024 in
      Obs.add_sink (Sinks.jsonl (Buffer.add_string buf));
      List.iter exec script;
      let live_counters = Obs.counters () in
      let live_gauges = Obs.gauges () in
      let live_hists = Obs.histograms () in
      Obs.reset ();
      match Trace_reader.trace_of_jsonl (Buffer.contents buf) with
      | Error e -> QCheck.Test.fail_report e
      | Ok trace ->
        trace.Trace_reader.tr_counters = live_counters
        && trace.Trace_reader.tr_gauges = live_gauges
        && List.length trace.Trace_reader.tr_hists = List.length live_hists
        && List.for_all2
             (fun (n1, h1) (n2, h2) -> n1 = n2 && hist_equal h1 h2)
             trace.Trace_reader.tr_hists live_hists
        && List.map actual_spans trace.Trace_reader.tr_spans
           = List.concat_map expected_spans script)

let test_span_tree_reconstruction () =
  with_fresh @@ fun () ->
  let buf = Buffer.create 256 in
  Obs.add_sink (Sinks.jsonl (Buffer.add_string buf));
  Obs.with_span "compile" (fun () ->
      Obs.with_span "lower" (fun () -> ());
      Obs.with_span "pipeline" (fun () ->
          Obs.with_span "analysis" (fun () -> ())));
  Obs.with_span "simulate" (fun () -> ());
  Obs.reset ();
  match Trace_reader.trace_of_jsonl (Buffer.contents buf) with
  | Error e -> Alcotest.fail e
  | Ok trace ->
    Alcotest.check shape_testable "forest shape"
      [ Shape
          ("compile",
           [ Shape ("lower", []); Shape ("pipeline", [ Shape ("analysis", []) ]) ]);
        Shape ("simulate", []) ]
      (List.map actual_spans trace.Trace_reader.tr_spans);
    Alcotest.(check int) "span count" 5 (Trace_reader.span_count trace)

(* --- corruption tolerance: skip and count, never raise --- *)

let test_corrupt_jsonl_skipped_and_counted () =
  with_fresh @@ fun () ->
  let buf = Buffer.create 256 in
  Obs.add_sink (Sinks.jsonl (Buffer.add_string buf));
  Obs.with_span "compile" (fun () -> Obs.count "cache.miss");
  Obs.with_span "simulate" (fun () -> ());
  Obs.reset ();
  (* splice garbage between the real lines: truncated JSON, non-JSON, and
     JSON that is not an event — all three must be skipped and counted *)
  let good = String.split_on_char '\n' (Buffer.contents buf) in
  let corrupted =
    String.concat "\n"
      (List.concat_map
         (fun l -> [ l; {|{"type":"span","name":"torn|}; "!!garbage!!" ])
         (List.filter (fun l -> String.trim l <> "") good)
      @ [ {|{"no":"type field"}|} ])
  in
  (match Trace_reader.trace_of_jsonl corrupted with
   | Error e -> Alcotest.fail e
   | Ok trace ->
     Alcotest.(check int) "all real spans survive" 2
       (Trace_reader.span_count trace);
     Alcotest.(check (option int)) "counter survives" (Some 1)
       (List.assoc_opt "cache.miss" trace.Trace_reader.tr_counters);
     (* 2 garbage lines per good line + the typeless object *)
     Alcotest.(check int) "skips counted"
       ((2 * List.length (List.filter (fun l -> String.trim l <> "") good)) + 1)
       trace.Trace_reader.tr_skipped;
     let summary = Analytics.summary_lines trace in
     Alcotest.(check bool) "summary warns about skips" true
       (List.exists
          (fun l ->
            String.length l >= 8 && String.sub l 0 8 = "warning:")
          summary));
  (* the same stream through a file and [load], with on_skip observation *)
  let path = Filename.temp_file "alcop_corrupt" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let oc = open_out path in
  output_string oc corrupted;
  close_out oc;
  match Trace_reader.load path with
  | Error e -> Alcotest.fail e
  | Ok trace ->
    Alcotest.(check int) "file path counts too"
      ((2 * List.length (List.filter (fun l -> String.trim l <> "") good)) + 1)
      trace.Trace_reader.tr_skipped

(* Fuzz: corrupt random bytes of a valid JSONL stream; the reader must
   never raise, and parsed events + skipped lines must account for every
   non-blank line. *)
let prop_corruption_never_raises =
  let count_nonblank text =
    List.length
      (List.filter
         (fun l -> String.trim l <> "")
         (String.split_on_char '\n' text))
  in
  QCheck.Test.make ~count:100 ~name:"random byte corruption never raises"
    QCheck.(
      pair
        (make (Gen.list_size (Gen.int_bound 4) op_gen))
        (small_list (pair small_nat printable_char)))
    (fun (script, edits) ->
      Obs.reset ();
      install_fake_clock ();
      let buf = Buffer.create 512 in
      Obs.add_sink (Sinks.jsonl (Buffer.add_string buf));
      List.iter exec script;
      Obs.reset ();
      let text = Bytes.of_string (Buffer.contents buf) in
      List.iter
        (fun (pos, c) ->
          if Bytes.length text > 0 then
            Bytes.set text (pos mod Bytes.length text) c)
        edits;
      let corrupted = Bytes.to_string text in
      match Trace_reader.trace_of_jsonl corrupted with
      | Error e -> QCheck.Test.fail_report e
      | Ok trace ->
        trace.Trace_reader.tr_events + trace.Trace_reader.tr_skipped
        = count_nonblank corrupted)

(* --- critical path --- *)

let test_critical_path () =
  with_fresh @@ fun () ->
  let buf = Buffer.create 256 in
  Obs.add_sink (Sinks.jsonl (Buffer.add_string buf));
  (* clock ticks once per now(): with_span costs 2 ticks + body. "slow"
     encloses more ticks than "fast", so the path must descend into it. *)
  Obs.with_span "root" (fun () ->
      Obs.with_span "fast" (fun () -> ());
      Obs.with_span "slow" (fun () ->
          Obs.with_span "inner" (fun () -> ());
          Obs.with_span "inner2" (fun () -> ignore (Obs.now ()))));
  Obs.reset ();
  match Trace_reader.trace_of_jsonl (Buffer.contents buf) with
  | Error e -> Alcotest.fail e
  | Ok trace ->
    let path = Analytics.critical_path_of_trace trace in
    Alcotest.(check (list string)) "path names"
      [ "root"; "slow"; "inner2" ]
      (List.map (fun n -> n.Analytics.cn_name) path);
    (* self + chosen child telescopes down the path *)
    (match path with
     | r :: s :: _ ->
       Alcotest.(check bool) "root self < root dur" true
         (r.Analytics.cn_self < r.Analytics.cn_dur);
       Alcotest.(check (float 1e-9)) "telescoping" r.Analytics.cn_dur
         (r.Analytics.cn_self +. s.Analytics.cn_dur)
     | _ -> Alcotest.fail "path too short")

(* --- span diff --- *)

let trace_of_script script =
  Obs.reset ();
  install_fake_clock ();
  let buf = Buffer.create 256 in
  Obs.add_sink (Sinks.jsonl (Buffer.add_string buf));
  List.iter exec script;
  Obs.reset ();
  match Trace_reader.trace_of_jsonl (Buffer.contents buf) with
  | Ok t -> t
  | Error e -> Alcotest.fail e

let test_diff_spans () =
  let old_trace =
    trace_of_script [ Span ("stable", []); Span ("gone", [ Point "x" ]) ]
  in
  let new_trace =
    trace_of_script [ Span ("stable", []); Span ("added", []) ]
  in
  let deltas = Analytics.diff_spans ~old_trace ~new_trace in
  let find n = List.find (fun d -> d.Analytics.sd_name = n) deltas in
  Alcotest.(check int) "three names" 3 (List.length deltas);
  Alcotest.(check bool) "gone has no new side" true
    ((find "gone").Analytics.sd_new_total = None);
  Alcotest.(check bool) "added has no old side" true
    ((find "added").Analytics.sd_old_total = None);
  Alcotest.(check bool) "added delta positive" true
    ((find "added").Analytics.sd_delta > 0.0);
  Alcotest.(check bool) "gone delta negative" true
    ((find "gone").Analytics.sd_delta < 0.0)

(* --- stall diff: synthetic --- *)

let test_stall_diff_sums_synthetic () =
  let old_stalls = [ ("compute", 60.0); ("dram_bw", 40.0) ] in
  let new_stalls = [ ("compute", 50.0); ("sync_wait", 10.0) ] in
  let deltas = Analytics.diff_stalls ~old_stalls ~new_stalls in
  Alcotest.(check int) "union of classes" 3 (List.length deltas);
  let to_, tn, td = Analytics.stall_total deltas in
  Alcotest.(check (float 1e-12)) "old total" 100.0 to_;
  Alcotest.(check (float 1e-12)) "new total" 60.0 tn;
  Alcotest.(check (float 1e-12)) "deltas sum to total delta" (tn -. to_) td

(* --- stall diff: two real fig 2/3 variants through the JSONL path --- *)

let profile_jsonl_trace ~smem_stages ~reg_stages =
  let spec =
    match Alcop_workloads.Suites.find "MM_RN50_FC" with
    | Some s -> s
    | None -> Alcotest.fail "MM_RN50_FC missing from the suite"
  in
  let tiling =
    Alcop_sched.Tiling.make ~tb_m:64 ~tb_n:64 ~tb_k:32 ~warp_m:32 ~warp_n:32
      ~warp_k:16 ()
  in
  let params =
    Alcop_perfmodel.Params.make ~tiling ~smem_stages ~reg_stages ()
  in
  let hw = Alcop_hw.Hw_config.default in
  match Alcop.Compiler.compile ~hw params spec with
  | Error e ->
    Alcotest.failf "compile failed: %s" (Alcop.Compiler.error_to_string e)
  | Ok c ->
    let p =
      Alcop_gpusim.Profile.run ~op:"MM_RN50_FC" c.Alcop.Compiler.timing_request
    in
    let path = Filename.temp_file "alcop_profile" ".jsonl" in
    Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
    Sinks.emit_all (Sinks.jsonl_file path) (Alcop_gpusim.Profile.events p);
    (match Trace_reader.load path with
     | Error e -> Alcotest.fail e
     | Ok trace -> (p, trace))

let test_fig23_stall_diff_accounts_for_cycle_delta () =
  let old_p, old_trace = profile_jsonl_trace ~smem_stages:1 ~reg_stages:1 in
  let new_p, new_trace = profile_jsonl_trace ~smem_stages:3 ~reg_stages:2 in
  (* the JSONL gauges reproduce Profile.stall_breakdown exactly *)
  let from_trace = Analytics.stall_breakdown_of_trace old_trace in
  let direct = Alcop_gpusim.Profile.stall_breakdown old_p in
  List.iter
    (fun (cls, cyc) ->
      match List.assoc_opt cls from_trace with
      | None -> Alcotest.failf "class %s missing from trace" cls
      | Some v -> Alcotest.(check (float 1e-6)) ("class " ^ cls) cyc v)
    direct;
  (* per-class deltas sum exactly to the critical threadblock cycle delta *)
  let critical_cycles (p : Alcop_gpusim.Profile.t) =
    match Alcop_gpusim.Profile.representative p with
    | None -> Alcotest.fail "no wave"
    | Some w ->
      Alcop_gpusim.Profile.tb_cycles w (Alcop_gpusim.Profile.critical w)
  in
  let deltas =
    Analytics.diff_stalls
      ~old_stalls:(Analytics.stall_breakdown_of_trace old_trace)
      ~new_stalls:(Analytics.stall_breakdown_of_trace new_trace)
  in
  let to_, tn, td = Analytics.stall_total deltas in
  let tol = 1e-6 *. Float.max 1.0 (critical_cycles old_p) in
  Alcotest.(check (float tol)) "old side telescopes" (critical_cycles old_p) to_;
  Alcotest.(check (float tol)) "new side telescopes" (critical_cycles new_p) tn;
  Alcotest.(check (float tol)) "deltas sum to cycle delta"
    (critical_cycles new_p -. critical_cycles old_p)
    td;
  (* and pipelining did speed the kernel up *)
  Alcotest.(check bool) "pipelined faster" true (td < 0.0);
  (* the rendered diff table carries a total row *)
  let lines = Analytics.diff_lines ~old_trace ~new_trace in
  Alcotest.(check bool) "diff prints stall table" true
    (List.exists
       (fun l ->
         String.length l >= 5 && String.sub l 0 5 = "total")
       lines)

(* --- golden trace summary --- *)

let test_trace_summary_golden () =
  let trace =
    trace_of_script
      [ Span ("compile", [ Span ("lower", []); Count ("cache.miss", 1) ]);
        Gauge ("pass.lower.ms", 2.5);
        Observe ("timing.kernel.cycles", 1000.0) ]
  in
  let lines = Analytics.summary_lines trace in
  let expect =
    [ "trace: 7 events, 2 spans, 1 roots";
      "-- spans by total time --";
      "name                                      count        total         self        p50        p90        p99";
      "compile                                       1        0.004        0.003      0.004      0.004      0.004";
      "lower                                         1        0.001        0.001      0.001      0.001      0.001";
      "-- critical path --";
      "compile                                         0.004 (self 0.003)";
      "  lower                                         0.001 (self 0.001)";
      "-- counters --";
      "cache.miss                                          1";
      "-- gauges --";
      "pass.lower.ms                                     2.5";
      "-- histograms --";
      "name                                      count          sum        p50        p90        p99";
      "timing.kernel.cycles                          1         1000       1000       1000       1000" ]
  in
  Alcotest.(check (list string)) "summary text" expect lines

let suite =
  [ ( "analytics",
      [ Alcotest.test_case "hist empty and single" `Quick
          test_hist_empty_and_single;
        Alcotest.test_case "hist percentile accuracy" `Quick
          test_hist_percentile_accuracy;
        Alcotest.test_case "hist merge" `Quick test_hist_merge_equals_combined;
        Alcotest.test_case "hist bucket edges" `Quick test_hist_bucket_edges;
        QCheck_alcotest.to_alcotest prop_jsonl_roundtrip;
        Alcotest.test_case "corrupt jsonl skipped and counted" `Quick
          test_corrupt_jsonl_skipped_and_counted;
        QCheck_alcotest.to_alcotest prop_corruption_never_raises;
        Alcotest.test_case "span tree reconstruction" `Quick
          test_span_tree_reconstruction;
        Alcotest.test_case "critical path" `Quick test_critical_path;
        Alcotest.test_case "span diff" `Quick test_diff_spans;
        Alcotest.test_case "stall diff sums (synthetic)" `Quick
          test_stall_diff_sums_synthetic;
        Alcotest.test_case "fig23 stall diff accounts for cycle delta" `Slow
          test_fig23_stall_diff_accounts_for_cycle_delta;
        Alcotest.test_case "trace summary golden" `Quick
          test_trace_summary_golden ] ) ]
