(* Test runner: aggregates all per-module alcotest suites. *)

let () =
  Alcotest.run "alcop"
    (Test_expr.suite
     @ Test_stmt.suite
     @ Test_validate.suite
     @ Test_schedule.suite
     @ Test_lower.suite
     @ Test_pipeline.suite
     @ Test_interp.suite
     @ Test_trace.suite
     @ Test_timing.suite
     @ Test_perfmodel.suite
     @ Test_tune.suite
     @ Test_tree_equiv.suite
     @ Test_compiler.suite
     @ Test_fingerprint.suite
     @ Test_passman.suite
     @ Test_session.suite
     @ Test_workloads.suite
     @ Test_splitk.suite
     @ Test_codegen.suite
     @ Test_e2e.suite
     @ Test_golden.suite
     @ Test_des.suite
     @ Test_analysis_detail.suite
     @ Test_obs.suite
     @ Test_json.suite
     @ Test_par.suite
     @ Test_fingerprint.domain_suite
     @ Test_session.domain_suite
     @ Test_compiler.domain_suite
     @ Test_hostprof.suite
     @ Test_analytics.suite
     @ Test_benchdb.suite
     @ Test_profile.suite
     @ Test_property.suite
     @ Test_packed.suite
     @ Test_pipeview.suite
     (* last: the store hammer test spawns domains, and Test_obs's
        fork-based test must run before any domain exists *)
     @ Test_store.suite)
