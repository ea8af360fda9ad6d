(* Tests for the pass manager: the pass registry, per-pass observability
   (spans, wall-time gauges, run counters) and the --dump-ir-after hook. *)

open Alcop_sched
open Alcop
module Obs = Alcop_obs.Obs

let hw = Alcop_hw.Hw_config.ampere_a100

let spec = Op_spec.matmul ~name:"pm_test" ~m:128 ~n:64 ~k:256 ()

let tiling =
  Tiling.make ~tb_m:64 ~tb_n:32 ~tb_k:32 ~warp_m:32 ~warp_n:16 ~warp_k:16 ()

let params = Alcop_perfmodel.Params.make ~tiling ~smem_stages:3 ~reg_stages:2 ()

let with_clean_slate f =
  Obs.reset ();
  Passman.clear_dump ();
  Fun.protect f ~finally:(fun () ->
      Obs.reset ();
      Passman.clear_dump ())

let test_registry () =
  Alcotest.(check (list string)) "pipeline order"
    [ "schedule"; "lower"; "pipeline"; "trace"; "timing" ]
    Passman.names;
  Alcotest.(check (list string)) "IR-producing passes"
    [ "lower"; "pipeline" ] Passman.ir_pass_names;
  (match Passman.find "lower" with
   | Some info ->
     Alcotest.(check bool) "lower produces IR" true info.Passman.produces_ir
   | None -> Alcotest.fail "lower not registered");
  Alcotest.(check bool) "unknown pass" true (Passman.find "nope" = None)

let test_dump_hook_fires_for_ir_passes () =
  with_clean_slate @@ fun () ->
  List.iter
    (fun pass ->
      let dumped = ref [] in
      (match
         Passman.set_dump ~after:pass (fun name kernel ->
             dumped := (name, Alcop_ir.Kernel.to_string kernel) :: !dumped)
       with
       | Ok () -> ()
       | Error m -> Alcotest.fail m);
      (match Compiler.compile ~hw params spec with
       | Ok _ -> ()
       | Error e -> Alcotest.fail (Compiler.error_to_string e));
      (match !dumped with
       | [ (name, text) ] ->
         Alcotest.(check string) "hook got its own pass" pass name;
         Alcotest.(check bool) "non-empty kernel text" true
           (String.length text > 0)
       | l ->
         Alcotest.failf "expected exactly one dump for %s, got %d" pass
           (List.length l));
      Passman.clear_dump ())
    Passman.ir_pass_names

let test_dump_hook_rejections () =
  with_clean_slate @@ fun () ->
  (match Passman.set_dump ~after:"timing" (fun _ _ -> ()) with
   | Error msg ->
     Alcotest.(check bool) "names the IR passes" true
       (String.length msg > 0)
   | Ok () -> Alcotest.fail "timing must not accept an IR dump");
  match Passman.set_dump ~after:"bogus" (fun _ _ -> ()) with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "unknown pass accepted"

let test_spans_and_gauges () =
  with_clean_slate @@ fun () ->
  Obs.record ();
  let sink, events = Obs.memory_sink () in
  Obs.add_sink sink;
  (match Compiler.compile ~hw params spec with
   | Ok _ -> ()
   | Error e -> Alcotest.fail (Compiler.error_to_string e));
  let gauges = Obs.gauges () in
  List.iter
    (fun pass ->
      Alcotest.(check bool)
        (Printf.sprintf "gauge pass.%s.ms published" pass)
        true
        (List.mem_assoc ("pass." ^ pass ^ ".ms") gauges);
      Alcotest.(check int)
        (Printf.sprintf "counter pass.%s.runs" pass)
        1
        (Obs.counter_value ("pass." ^ pass ^ ".runs")))
    Passman.names;
  let span_names =
    List.filter_map
      (function Obs.Span_end { name; _ } -> Some name | _ -> None)
      (events ())
  in
  List.iter
    (fun pass ->
      Alcotest.(check bool)
        (Printf.sprintf "span compile.%s emitted" pass)
        true
        (List.mem ("compile." ^ pass) span_names))
    Passman.names

let suite =
  [ ( "passman",
      [ Alcotest.test_case "pass registry" `Quick test_registry;
        Alcotest.test_case "dump hook fires for every IR pass" `Quick
          test_dump_hook_fires_for_ir_passes;
        Alcotest.test_case "dump hook rejects non-IR and unknown passes"
          `Quick test_dump_hook_rejections;
        Alcotest.test_case "per-pass spans, gauges and run counters" `Quick
          test_spans_and_gauges ] ) ]
