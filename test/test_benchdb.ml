(* Tests for the selfbench records (Alcop_obs.Benchdb): robust
   statistics, the v2 schema round-trip with its fingerprint, v1
   rejection, and the compare semantics on regressions, tolerance,
   disjoint ids and thin rows under --strict. *)

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

(* --- fingerprint --- *)

let fp ?(git_rev = "abc1234") ?(hostname = "box-a") ?(jobs = "2") ?(cores = 4)
    () =
  Benchdb.collect_fingerprint ~hostname ~git_rev ~jobs ~cores ()

(* --- schema v2 round-trip and v1 compatibility --- *)

let bench ?(runs = 5) ?(mad = 0.0) id median =
  { Benchdb.b_id = id;
    b_stats =
      { Benchdb.s_runs = runs; s_median_ns = median; s_mad_ns = mad;
        s_min_ns = median -. mad; s_p90_ns = median +. mad;
        s_mean_ns = median } }

let record ?(ts = 1000.0) benches =
  Benchdb.make_record ~ts ~generated_by:"test" ~machine:"sim-a100"
    ~fingerprint:(fp ()) benches

let test_v2_roundtrip () =
  let r = record [ bench ~mad:3.0 "alcop/lower" 120.0; bench "sweep" 5e9 ] in
  match Benchdb.record_of_json (Benchdb.record_to_json r) with
  | Error e -> Alcotest.fail e
  | Ok r' ->
    Alcotest.(check string) "schema" "alcop-selfbench-v2" r'.Benchdb.r_schema;
    Alcotest.(check string) "machine" "sim-a100" r'.Benchdb.r_machine;
    Alcotest.(check (option (float 1e-9))) "ts" (Some 1000.0) r'.Benchdb.r_ts;
    Alcotest.(check bool) "fingerprint survives" true
      (r'.Benchdb.r_fingerprint = Some (fp ()));
    (* the hostname is recorded only as an 8-hex-char hash *)
    let f = fp () in
    Alcotest.(check int) "host hash length" 8
      (String.length f.Benchdb.f_host_hash);
    Alcotest.(check bool) "hostname changes the hash" true
      (f.Benchdb.f_host_hash <> (fp ~hostname:"box-b" ()).Benchdb.f_host_hash);
    (match r'.Benchdb.r_benches with
     | [ a; _ ] ->
       Alcotest.(check string) "id" "alcop/lower" a.Benchdb.b_id;
       Alcotest.(check (float 1e-9)) "median" 120.0
         a.Benchdb.b_stats.Benchdb.s_median_ns;
       Alcotest.(check (float 1e-9)) "mad" 3.0
         a.Benchdb.b_stats.Benchdb.s_mad_ns;
       Alcotest.(check int) "runs" 5 a.Benchdb.b_stats.Benchdb.s_runs
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

(* --- compare semantics --- *)

let test_compare_disjoint_and_missing_host () =
  (* OLD has a benchmark NEW lacks; NEW has a new one. *)
  let old_r = record [ bench "shared" 100.0; bench "vanished" 50.0 ] in
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
    (List.exists (contains "(only in NEW)") r.Benchdb.cmp_lines)

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

let suite =
  [ ( "benchdb",
      [ Alcotest.test_case "median/mad/percentile" `Quick
          test_median_mad_percentile;
        Alcotest.test_case "summarize" `Quick test_summarize;
        Alcotest.test_case "v2 round-trip" `Quick test_v2_roundtrip;
        Alcotest.test_case "v1 documents are rejected" `Quick test_v1_rejected;
        Alcotest.test_case "compare: disjoint ids and missing host" `Quick
          test_compare_disjoint_and_missing_host;
        Alcotest.test_case "compare: regression and tolerance" `Quick
          test_compare_regression_and_tolerance;
        Alcotest.test_case "compare: strict rejects thin rows" `Quick
          test_compare_strict_rejects_thin_rows ] ) ]
