(* Tests for the performance observatory (Alcop_obs.Benchdb): robust
   statistics, fingerprint identity, the v2 schema round-trip and v1
   compatibility, the append-only history store (including corruption
   tolerance, fuzzed), the change-point detector goldens (an injected
   1.3x step is flagged with the right first-bad index; identical
   distributions produce zero false positives across 100 seeds), the
   compare semantics on disjoint ids / missing host objects, and the
   trend chart rendering (noise band + change-point markers). *)

open Alcop_obs

(* --- robust statistics --- *)

let test_median_mad_percentile () =
  Alcotest.(check (float 1e-12)) "median empty" 0.0 (Benchdb.median []);
  Alcotest.(check (float 1e-12)) "median odd" 3.0 (Benchdb.median [ 5.0; 1.0; 3.0 ]);
  Alcotest.(check (float 1e-12)) "median even interpolates" 2.5
    (Benchdb.median [ 4.0; 1.0; 2.0; 3.0 ]);
  Alcotest.(check (float 1e-12)) "mad" 1.0
    (Benchdb.mad [ 1.0; 2.0; 3.0; 4.0; 5.0 ]);
  Alcotest.(check (float 1e-12)) "p90 interpolates" 4.6
    (Benchdb.percentile 0.9 [ 1.0; 2.0; 3.0; 4.0; 5.0 ]);
  Alcotest.(check (float 1e-12)) "p0 is min" 1.0
    (Benchdb.percentile 0.0 [ 3.0; 1.0; 2.0 ]);
  Alcotest.(check (float 1e-12)) "p100 is max" 3.0
    (Benchdb.percentile 1.0 [ 3.0; 1.0; 2.0 ])

let test_summarize () =
  let st = Benchdb.summarize [ 100.0; 110.0; 90.0; 105.0; 95.0 ] in
  Alcotest.(check int) "runs" 5 st.Benchdb.s_runs;
  Alcotest.(check (float 1e-9)) "median" 100.0 st.Benchdb.s_median_ns;
  Alcotest.(check (float 1e-9)) "mad" 5.0 st.Benchdb.s_mad_ns;
  Alcotest.(check (float 1e-9)) "min" 90.0 st.Benchdb.s_min_ns;
  Alcotest.(check (float 1e-9)) "mean" 100.0 st.Benchdb.s_mean_ns;
  Alcotest.(check (float 1e-9)) "noise" 0.05 (Benchdb.noise st);
  Alcotest.(check (float 1e-3)) "ops/sec" 1e7 (Benchdb.ops_per_sec st)

(* --- fingerprint identity --- *)

let fp ?(git_rev = "abc1234") ?(hostname = "box-a") ?(jobs = "2") ?(cores = 4)
    () =
  Benchdb.collect_fingerprint ~hostname ~git_rev ~jobs ~cores ()

let test_fingerprint_id_exclusions () =
  let a = fp () in
  (* the stream key must survive a new commit and a renamed CI runner *)
  Alcotest.(check string) "git rev excluded from id"
    (Benchdb.fingerprint_id a)
    (Benchdb.fingerprint_id (fp ~git_rev:"fffffff" ()));
  Alcotest.(check string) "hostname excluded from id"
    (Benchdb.fingerprint_id a)
    (Benchdb.fingerprint_id (fp ~hostname:"runner-9912" ()));
  (* but both are recorded in the fingerprint itself *)
  Alcotest.(check string) "git rev recorded" "abc1234" a.Benchdb.f_git_rev;
  Alcotest.(check bool) "host hash is 8 hex chars" true
    (String.length a.Benchdb.f_host_hash = 8);
  Alcotest.(check bool) "hostname changes the hash" true
    (a.Benchdb.f_host_hash <> (fp ~hostname:"box-b" ()).Benchdb.f_host_hash);
  (* a genuinely different machine shape is a different stream *)
  Alcotest.(check bool) "core count changes the id" true
    (Benchdb.fingerprint_id a <> Benchdb.fingerprint_id (fp ~cores:8 ()));
  Alcotest.(check bool) "jobs changes the id" true
    (Benchdb.fingerprint_id a <> Benchdb.fingerprint_id (fp ~jobs:"8" ()));
  (* file-name safety: exotic characters degrade to '_' *)
  let weird = fp ~jobs:"2;rm -rf /" () in
  Alcotest.(check bool) "id is file-name safe" true
    (String.for_all
       (fun c ->
         match c with
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '.' | '-' | '_' -> true
         | _ -> false)
       (Benchdb.fingerprint_id weird))

(* --- schema v2 round-trip and v1 compatibility --- *)

let bench ?host ?(runs = 5) ?(mad = 0.0) id median =
  { Benchdb.b_id = id;
    b_stats =
      { Benchdb.s_runs = runs; s_median_ns = median; s_mad_ns = mad;
        s_min_ns = median -. mad; s_p90_ns = median +. mad;
        s_mean_ns = median };
    b_host = host }

let record ?(ts = 1000.0) benches =
  Benchdb.make_record ~ts ~generated_by:"test" ~machine:"sim-a100"
    ~fingerprint:(fp ()) benches

let test_v2_roundtrip () =
  let host = Json.Obj [ ("serial_fraction", Json.Float 0.25) ] in
  let r = record [ bench ~mad:3.0 "alcop/lower" 120.0; bench ~host "sweep" 5e9 ] in
  match Benchdb.record_of_json (Benchdb.record_to_json r) with
  | Error e -> Alcotest.fail e
  | Ok r' ->
    Alcotest.(check string) "schema" "alcop-selfbench-v2" r'.Benchdb.r_schema;
    Alcotest.(check string) "machine" "sim-a100" r'.Benchdb.r_machine;
    Alcotest.(check (option (float 1e-9))) "ts" (Some 1000.0) r'.Benchdb.r_ts;
    (match r'.Benchdb.r_fingerprint with
     | None -> Alcotest.fail "fingerprint lost"
     | Some f ->
       Alcotest.(check string) "fingerprint id survives"
         (Benchdb.fingerprint_id (fp ()))
         (Benchdb.fingerprint_id f));
    (match r'.Benchdb.r_benches with
     | [ a; b ] ->
       Alcotest.(check string) "id" "alcop/lower" a.Benchdb.b_id;
       Alcotest.(check (float 1e-9)) "median" 120.0
         a.Benchdb.b_stats.Benchdb.s_median_ns;
       Alcotest.(check (float 1e-9)) "mad" 3.0
         a.Benchdb.b_stats.Benchdb.s_mad_ns;
       Alcotest.(check int) "runs" 5 a.Benchdb.b_stats.Benchdb.s_runs;
       Alcotest.(check bool) "host object survives" true
         (b.Benchdb.b_host <> None)
     | bs -> Alcotest.failf "expected 2 benches, got %d" (List.length bs))

let test_v1_rejected () =
  (* The v1 schema (rate-only entries, no stats, no fingerprint) is an
     unknown schema like any other. *)
  let v1 =
    {|{"schema":"alcop-selfbench-v1","machine":"sim-a100","unit":"ops_per_sec",
      "benchmarks":[{"id":"alcop/lower","ns_per_run":200.0,"ops_per_sec":5000000.0}]}|}
  in
  (match Result.bind (Json.of_string v1) Benchdb.record_of_json with
   | Error e ->
     Alcotest.(check string) "v1 is an unknown schema"
       "unknown selfbench schema alcop-selfbench-v1" e
   | Ok _ -> Alcotest.fail "v1 schema should be rejected");
  (* A v2 entry carrying only the legacy fields has no median: dropped. *)
  let legacy_entry =
    {|{"schema":"alcop-selfbench-v2","machine":"sim-a100",
      "benchmarks":[{"id":"alcop/lower","median_ns":200.0},
                    {"id":"legacy","ns_per_run":200.0,"ops_per_sec":5e6}]}|}
  in
  (match Result.bind (Json.of_string legacy_entry) Benchdb.record_of_json with
   | Error e -> Alcotest.fail e
   | Ok r ->
     Alcotest.(check (list string)) "legacy-only entry dropped"
       [ "alcop/lower" ]
       (List.map (fun b -> b.Benchdb.b_id) r.Benchdb.r_benches));
    (* unknown schema is an error, not a silent empty record *)
    (match
       Result.bind
         (Json.of_string {|{"schema":"alcop-selfbench-v99","benchmarks":[]}|})
         Benchdb.record_of_json
     with
     | Error _ -> ()
     | Ok _ -> Alcotest.fail "v99 schema should be rejected")

(* --- history store --- *)

let with_tmpdir f =
  let dir = Filename.temp_file "alcop_hist" "" in
  Sys.remove dir;
  let rec rm path =
    if Sys.is_directory path then begin
      Array.iter (fun n -> rm (Filename.concat path n)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path
  in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists dir then rm dir)
    (fun () -> f dir)

let test_history_append_read () =
  with_tmpdir @@ fun dir ->
  let dir = Filename.concat dir "nested" in
  (* append creates the directory, one record per line, in order *)
  let r1 = record ~ts:1.0 [ bench "b" 100.0 ] in
  let r2 = record ~ts:2.0 [ bench "b" 101.0 ] in
  let path =
    match Benchdb.append ~dir r1 with
    | Ok p -> p
    | Error e -> Alcotest.fail e
  in
  (match Benchdb.append ~dir r2 with
   | Ok p -> Alcotest.(check string) "same stream file" path p
   | Error e -> Alcotest.fail e);
  Alcotest.(check string) "stream named by fingerprint id"
    (Benchdb.history_file ~dir (Benchdb.fingerprint_id (fp ())))
    path;
  (match Benchdb.read_history path with
   | Error e -> Alcotest.fail e
   | Ok (records, skipped) ->
     Alcotest.(check int) "two records" 2 (List.length records);
     Alcotest.(check int) "nothing skipped" 0 skipped;
     Alcotest.(check (list (option (float 1e-9)))) "append order kept"
       [ Some 1.0; Some 2.0 ]
       (List.map (fun r -> r.Benchdb.r_ts) records));
  (match Benchdb.machines ~dir with
   | [ (id, p) ] ->
     Alcotest.(check string) "machine id" (Benchdb.fingerprint_id (fp ())) id;
     Alcotest.(check string) "machine path" path p
   | ms -> Alcotest.failf "expected 1 stream, got %d" (List.length ms));
  Alcotest.(check (list (pair string string))) "missing dir is empty" []
    (Benchdb.machines ~dir:(Filename.concat dir "absent"))

let test_history_corruption_tolerated () =
  with_tmpdir @@ fun dir ->
  (match Benchdb.append ~dir (record ~ts:1.0 [ bench "b" 100.0 ]) with
   | Ok _ -> ()
   | Error e -> Alcotest.fail e);
  let path = Benchdb.history_file ~dir (Benchdb.fingerprint_id (fp ())) in
  (* simulate a torn write and an alien line between two good records *)
  let oc = open_out_gen [ Open_append ] 0o644 path in
  output_string oc "{\"schema\":\"alcop-selfbench-v2\",\"trunc\n";
  output_string oc "{\"schema\":\"not-a-selfbench\"}\n";
  close_out oc;
  (match Benchdb.append ~dir (record ~ts:2.0 [ bench "b" 99.0 ]) with
   | Ok _ -> ()
   | Error e -> Alcotest.fail e);
  match Benchdb.read_history path with
  | Error e -> Alcotest.fail e
  | Ok (records, skipped) ->
    Alcotest.(check int) "both good records read" 2 (List.length records);
    Alcotest.(check int) "both bad lines counted" 2 skipped

(* Fuzz: random byte corruption of a stream file; reads must stay Ok and
   never surface more records than were written. *)
let prop_history_corruption =
  QCheck.Test.make ~count:50 ~name:"corrupted history reads never raise"
    QCheck.(small_list (pair small_nat printable_char))
    (fun edits ->
      with_tmpdir @@ fun dir ->
      List.iter
        (fun i ->
          match
            Benchdb.append ~dir
              (record ~ts:(float_of_int i) [ bench "b" (100.0 +. float_of_int i) ])
          with
          | Ok _ -> ()
          | Error e -> failwith e)
        [ 0; 1; 2 ];
      let path = Benchdb.history_file ~dir (Benchdb.fingerprint_id (fp ())) in
      let ic = open_in_bin path in
      let text =
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> Bytes.of_string (really_input_string ic (in_channel_length ic)))
      in
      List.iter
        (fun (pos, c) ->
          if Bytes.length text > 0 then
            Bytes.set text (pos mod Bytes.length text) c)
        edits;
      let oc = open_out_bin path in
      output_bytes oc text;
      close_out oc;
      match Benchdb.read_history path with
      | Error e -> QCheck.Test.fail_report e
      | Ok (records, _skipped) -> List.length records <= 3)

(* --- change-point detector goldens --- *)

let flat_then_step ~n_before ~n_after ~before ~after ~noise =
  Array.init (n_before + n_after) (fun i ->
      ((if i < n_before then before else after), noise))

let test_change_point_step_flagged () =
  (* a 1.3x slowdown: ops drop from 100 to 100/1.3 at index 10 *)
  let pts =
    flat_then_step ~n_before:10 ~n_after:10 ~before:100.0 ~after:(100.0 /. 1.3)
      ~noise:1.0
  in
  match Benchdb.change_points pts with
  | [ cp ] ->
    Alcotest.(check int) "first-bad index" 10 cp.Benchdb.cp_index;
    Alcotest.(check (float 1e-6)) "before level" 100.0 cp.Benchdb.cp_before;
    Alcotest.(check (float 1e-6)) "after level" (100.0 /. 1.3)
      cp.Benchdb.cp_after;
    Alcotest.(check (float 1e-6)) "ratio" (1.0 /. 1.3) cp.Benchdb.cp_ratio;
    Alcotest.(check bool) "is a regression" true (cp.Benchdb.cp_ratio < 1.0)
  | cps -> Alcotest.failf "expected exactly 1 change point, got %d"
             (List.length cps)

let test_change_point_improvement_not_regression () =
  let pts =
    flat_then_step ~n_before:8 ~n_after:8 ~before:100.0 ~after:150.0 ~noise:1.0
  in
  match Benchdb.change_points pts with
  | [ cp ] ->
    Alcotest.(check bool) "ratio above 1" true (cp.Benchdb.cp_ratio > 1.0);
    (* regressions must not report an improvement *)
    let t = { Benchdb.t_bench = "b"; t_points = []; t_changes = [ cp ] } in
    Alcotest.(check int) "not a regression" 0
      (List.length (Benchdb.regressions [ t ]))
  | cps -> Alcotest.failf "expected 1 change point, got %d" (List.length cps)

let test_change_point_two_record_history () =
  (* the CI shape on a fresh cache: exactly two records *)
  let drop = [| (100.0, 0.0); (100.0 /. 1.3, 0.0) |] in
  (match Benchdb.change_points drop with
   | [ cp ] -> Alcotest.(check int) "index 1" 1 cp.Benchdb.cp_index
   | cps -> Alcotest.failf "expected 1, got %d" (List.length cps));
  let same = [| (100.0, 0.0); (100.0, 0.0) |] in
  Alcotest.(check int) "identical pair silent" 0
    (List.length (Benchdb.change_points same))

(* Identical-distribution reruns: +/-2% deterministic pseudo-noise around
   a flat level must never fire, for every one of 100 seeds. The min_rel
   floor guarantees it: any shift under sensitivity*min_rel*level (8%)
   cannot fire, and two window medians of the same +/-2% distribution
   can differ by at most 4%. *)
let test_change_point_zero_false_positives_100_seeds () =
  let series_of_seed seed =
    let state = ref (seed * 2654435761) in
    Array.init 20 (fun _ ->
        state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
        let u = (float_of_int (!state mod 2001) /. 1000.0) -. 1.0 in
        (100.0 *. (1.0 +. (0.02 *. u)), 0.5))
  in
  let fired = ref 0 in
  for seed = 1 to 100 do
    if Benchdb.change_points (series_of_seed seed) <> [] then incr fired
  done;
  Alcotest.(check int) "zero false positives across 100 seeds" 0 !fired

let test_trends_and_first_bad () =
  (* records -> per-bench trend; the slowdown lands in record #3 *)
  let ops_to_ns ops = 1e9 /. ops in
  let records =
    List.mapi
      (fun i ops -> record ~ts:(float_of_int i) [ bench "hot" (ops_to_ns ops) ])
      [ 100.0; 100.0; 100.0; 70.0; 70.0; 70.0 ]
  in
  match Benchdb.trends records with
  | [ t ] ->
    Alcotest.(check string) "bench id" "hot" t.Benchdb.t_bench;
    Alcotest.(check int) "six points" 6 (List.length t.Benchdb.t_points);
    (match t.Benchdb.t_changes with
     | [ cp ] ->
       Alcotest.(check int) "first-bad series index" 3 cp.Benchdb.cp_index;
       let desc = Benchdb.first_bad records cp t in
       Alcotest.(check bool) "first-bad names record #3" true
         (String.length desc >= 9 && String.sub desc 0 9 = "record #3");
       Alcotest.(check bool) "first-bad carries the git rev" true
         (let re = "abc1234" in
          let rec contains i =
            i + String.length re <= String.length desc
            && (String.sub desc i (String.length re) = re || contains (i + 1))
          in
          contains 0);
       let lines =
         Benchdb.trend_lines ~machine:"m" ~skipped:0 records [ t ]
       in
       Alcotest.(check bool) "report names a regression" true
         (List.exists
            (fun l ->
              let re = "::error::" in
              String.length l >= String.length re
              && String.sub l 0 (String.length re) = re)
            lines)
     | cps -> Alcotest.failf "expected 1 change, got %d" (List.length cps))
  | ts -> Alcotest.failf "expected 1 trend, got %d" (List.length ts)

(* --- compare semantics --- *)

let test_compare_disjoint_and_missing_host () =
  let host = Json.Obj [ ("serial_fraction", Json.Float 0.5) ] in
  (* OLD has a host object and a benchmark NEW lacks; NEW has a new one.
     Pre-PR-7 this crashed or silently dropped the disjoint ids. *)
  let old_r = record [ bench ~host "shared" 100.0; bench "vanished" 50.0 ] in
  let new_r = record [ bench "shared" 100.0; bench "fresh" 10.0 ] in
  let r = Benchdb.compare_records ~old_r ~new_r () in
  Alcotest.(check (list string)) "only old" [ "vanished" ] r.Benchdb.cmp_only_old;
  Alcotest.(check (list string)) "only new" [ "fresh" ] r.Benchdb.cmp_only_new;
  (* a disappeared benchmark is a failure; a new one is not *)
  Alcotest.(check int) "one failure" 1 r.Benchdb.cmp_failures;
  let contains needle l =
    let n = String.length needle in
    let rec go i =
      i + n <= String.length l && (String.sub l i n = needle || go (i + 1))
    in
    go 0
  in
  Alcotest.(check bool) "explicit only-in-OLD row" true
    (List.exists (contains "(only in OLD)") r.Benchdb.cmp_lines);
  Alcotest.(check bool) "explicit only-in-NEW row" true
    (List.exists (contains "(only in NEW)") r.Benchdb.cmp_lines);
  Alcotest.(check bool) "one-sided host noted, no crash" true
    (List.exists (contains "OLD carries host data") r.Benchdb.cmp_lines)

let test_compare_regression_and_tolerance () =
  let old_r = record [ bench "hot" 100.0 ] in
  (* 100 -> 150 ns is a 0.67x throughput ratio: beyond 20% tolerance *)
  let slow_r = record [ bench "hot" 150.0 ] in
  let r = Benchdb.compare_records ~old_r ~new_r:slow_r () in
  Alcotest.(check int) "regression counted" 1 r.Benchdb.cmp_failures;
  (* within a generous tolerance the same diff passes *)
  let r = Benchdb.compare_records ~tolerance:0.5 ~old_r ~new_r:slow_r () in
  Alcotest.(check int) "inside tolerance" 0 r.Benchdb.cmp_failures;
  (* identical files never fail, strict or not *)
  let r = Benchdb.compare_records ~strict:true ~old_r ~new_r:old_r () in
  Alcotest.(check int) "self-compare clean" 0 r.Benchdb.cmp_failures

(* A row summarized over fewer than 3 runs has no noise estimate: a strict
   compare fails on it, on either side, even against itself; a lenient
   compare does not. *)
let test_compare_strict_rejects_thin_rows () =
  let thick = record [ bench "hot" 100.0; bench "cold" 10.0 ] in
  let thin = record [ bench ~runs:1 "hot" 100.0; bench "cold" 10.0 ] in
  let failures ?strict old_r new_r =
    (Benchdb.compare_records ?strict ~old_r ~new_r ()).Benchdb.cmp_failures
  in
  Alcotest.(check int) "thin OLD fails strict" 1 (failures ~strict:true thin thick);
  Alcotest.(check int) "thin NEW fails strict" 1 (failures ~strict:true thick thin);
  Alcotest.(check int) "thin self-compare fails strict" 2
    (failures ~strict:true thin thin);
  Alcotest.(check int) "thin passes lenient" 0 (failures thin thin);
  let three = record [ bench ~runs:3 "hot" 100.0 ] in
  Alcotest.(check int) "3 runs are enough" 0 (failures ~strict:true three three)

(* --- trend charts --- *)

let test_trend_sections_render_band_and_marker () =
  let ops_to_ns ops = 1e9 /. ops in
  let records =
    List.mapi
      (fun i ops ->
        record ~ts:(float_of_int i)
          [ bench ~mad:(ops_to_ns ops *. 0.02) "hot" (ops_to_ns ops) ])
      [ 100.0; 100.0; 100.0; 70.0; 70.0; 70.0 ]
  in
  let html =
    String.concat "\n"
      (Benchdb.trend_sections ~machine:"m" records (Benchdb.trends records))
  in
  let contains needle =
    let n = String.length needle in
    let rec go i =
      i + n <= String.length html
      && (String.sub html i n = needle || go (i + 1))
    in
    go 0
  in
  Alcotest.(check bool) "noise band rendered" true (contains "noise-band");
  Alcotest.(check bool) "change-point marker rendered" true
    (contains "change-point");
  Alcotest.(check bool) "benchmark titled" true (contains "<h3>hot</h3>");
  (* and the full standalone page wraps it *)
  let page = Benchdb.trend_page [ ("m", records, Benchdb.trends records) ] in
  Alcotest.(check bool) "page is a document" true
    (String.length page > 15 && String.sub page 0 15 = "<!DOCTYPE html>")

let suite =
  [ ( "benchdb",
      [ Alcotest.test_case "median/mad/percentile" `Quick
          test_median_mad_percentile;
        Alcotest.test_case "summarize" `Quick test_summarize;
        Alcotest.test_case "fingerprint id exclusions" `Quick
          test_fingerprint_id_exclusions;
        Alcotest.test_case "v2 round-trip" `Quick test_v2_roundtrip;
        Alcotest.test_case "v1 documents are rejected" `Quick test_v1_rejected;
        Alcotest.test_case "history append/read" `Quick
          test_history_append_read;
        Alcotest.test_case "history corruption tolerated" `Quick
          test_history_corruption_tolerated;
        QCheck_alcotest.to_alcotest prop_history_corruption;
        Alcotest.test_case "change point: 1.3x step flagged" `Quick
          test_change_point_step_flagged;
        Alcotest.test_case "change point: improvement not regression" `Quick
          test_change_point_improvement_not_regression;
        Alcotest.test_case "change point: two-record history" `Quick
          test_change_point_two_record_history;
        Alcotest.test_case "change point: zero false positives (100 seeds)"
          `Quick test_change_point_zero_false_positives_100_seeds;
        Alcotest.test_case "trends and first-bad attribution" `Quick
          test_trends_and_first_bad;
        Alcotest.test_case "compare: disjoint ids and missing host" `Quick
          test_compare_disjoint_and_missing_host;
        Alcotest.test_case "compare: regression and tolerance" `Quick
          test_compare_regression_and_tolerance;
        Alcotest.test_case "compare: strict rejects thin rows" `Quick
          test_compare_strict_rejects_thin_rows;
        Alcotest.test_case "trend sections render band and marker" `Quick
          test_trend_sections_render_band_and_marker ] ) ]
