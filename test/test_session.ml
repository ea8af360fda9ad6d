(* Tests for the compilation session (the content-addressed artifact cache):
   bit-identical results vs. cold compiles, counter telescoping, eviction,
   pass-through mode and the shared per-hardware registry. *)

open Alcop_sched
open Alcop

let hw = Alcop_hw.Hw_config.ampere_a100

let spec = Op_spec.matmul ~name:"sess_test" ~m:128 ~n:64 ~k:256 ()

let space =
  Alcop_tune.Space.enumerate ~restriction:Alcop_tune.Space.full spec

let tiling =
  Tiling.make ~tb_m:64 ~tb_n:64 ~tb_k:32 ~warp_m:32 ~warp_n:32 ~warp_k:16 ()

let params = Alcop_perfmodel.Params.make ~tiling ~smem_stages:3 ~reg_stages:2 ()

let test_hit_returns_identical_artifact () =
  let session = Session.create ~hw () in
  match Session.compile session params spec, Session.compile session params spec with
  | Ok cold, Ok hit ->
    Alcotest.(check bool) "latency bit-identical" true
      (cold.Compiler.latency_cycles = hit.Compiler.latency_cycles);
    Alcotest.(check bool) "timing bit-identical" true
      (cold.Compiler.timing = hit.Compiler.timing);
    let s = Session.stats session in
    Alcotest.(check int) "one hit" 1 s.Session.hits;
    Alcotest.(check int) "one miss" 1 s.Session.misses
  | _ -> Alcotest.fail "compile failed"

let test_errors_are_memoized () =
  let session = Session.create ~hw () in
  let big =
    Alcop_perfmodel.Params.make
      ~tiling:(Tiling.make ~tb_m:256 ~tb_n:128 ~tb_k:64 ~warp_m:64 ~warp_n:64
                 ~warp_k:32 ())
      ~smem_stages:4 ~reg_stages:2 ()
  in
  Alcotest.(check bool) "fails" true (Session.evaluate session big spec = None);
  Alcotest.(check bool) "fails again" true (Session.evaluate session big spec = None);
  let s = Session.stats session in
  Alcotest.(check int) "failure hit from cache" 1 s.Session.hits

let test_eviction_fifo () =
  let session = Session.create ~hw ~capacity:2 () in
  let p i =
    Alcop_perfmodel.Params.make ~tiling ~smem_stages:(1 + i) ~reg_stages:1 ()
  in
  ignore (Session.evaluate session (p 0) spec);
  ignore (Session.evaluate session (p 1) spec);
  ignore (Session.evaluate session (p 2) spec);  (* evicts p0 *)
  let s = Session.stats session in
  Alcotest.(check int) "capacity bound" 2 s.Session.entries;
  Alcotest.(check int) "one eviction" 1 s.Session.evictions;
  ignore (Session.evaluate session (p 0) spec);  (* p0 is gone: a miss *)
  let s = Session.stats session in
  Alcotest.(check int) "evicted entry misses" 4 s.Session.misses;
  Alcotest.(check int) "no hits" 0 s.Session.hits

let test_no_cache_pass_through () =
  let session = Session.create ~hw ~cache:false () in
  let a = Session.evaluate session params spec in
  let b = Session.evaluate session params spec in
  Alcotest.(check bool) "same result" true (a = b);
  let s = Session.stats session in
  Alcotest.(check int) "no entries" 0 s.Session.entries;
  Alcotest.(check int) "no hits" 0 s.Session.hits;
  Alcotest.(check int) "no misses" 0 s.Session.misses

let test_registry_shared_per_hw () =
  let a = Session.for_hw hw and b = Session.for_hw hw in
  Alcotest.(check bool) "same session object" true (a == b);
  let v100 = Session.for_hw Alcop_hw.Hw_config.volta_v100 in
  Alcotest.(check bool) "different hw, different session" true (not (a == v100))

let test_clear () =
  let session = Session.create ~hw () in
  ignore (Session.evaluate session params spec);
  ignore (Session.evaluate session params spec);
  Session.clear session;
  let s = Session.stats session in
  Alcotest.(check int) "entries dropped" 0 s.Session.entries;
  Alcotest.(check int) "counters zeroed" 0 (s.Session.hits + s.Session.misses)

(* An entry holds only the evaluation record, not the compiled artifact:
   over 256 points of a Fig. 10 operator the whole session stays under 200
   reachable words per entry (a compiled artifact alone is ~1.5k). *)
let test_entries_are_records () =
  let spec = Alcop_workloads.Suites.mm_bert_fc1 in
  let space = Variants.space Variants.alcop spec in
  let session = Session.create ~hw () in
  for i = 0 to 255 do
    ignore (Session.evaluate session space.(i) spec)
  done;
  let entries = (Session.stats session).Session.entries in
  Alcotest.(check int) "256 entries" 256 entries;
  let per_entry = Obj.reachable_words (Obj.repr session) / entries in
  if per_entry > 200 then
    Alcotest.failf "%d reachable words per entry (> 200)" per_entry

(* --- the satellite qcheck property: cached evaluation is bit-identical to
   a cold [Compiler.compile], and hit/miss counters telescope to the total
   number of evaluations. --- *)

let prop_cached_equals_cold =
  QCheck.Test.make
    ~name:"session evaluation == cold compile; counters telescope"
    ~count:60
    QCheck.(int_bound (Array.length space - 1))
    (fun i ->
      let p = space.(i) in
      let session = Session.create ~hw () in
      let cold =
        match Compiler.compile ~hw p spec with
        | Ok c -> Some (c.Compiler.latency_cycles, c.Compiler.timing)
        | Error _ -> None
      in
      let view = function
        | Ok (c : Compiler.compiled) ->
          Some (c.Compiler.latency_cycles, c.Compiler.timing)
        | Error _ -> None
      in
      let first = view (Session.compile session p spec) in
      let second = view (Session.compile session p spec) in
      let s = Session.stats session in
      first = cold && second = cold
      && s.Session.hits + s.Session.misses = 2
      && s.Session.hits = 1)

(* A miss that raises after the compile — here the write-through's
   telemetry — must release its in-flight claim: the next caller for the
   same key becomes the miss itself instead of blocking forever in the
   claim wait. The second call runs in a domain so a leaked claim fails
   the test after ~5 s instead of hanging the suite. *)
exception Sink_failure

let test_failed_write_through_releases_claim () =
  let root = Filename.temp_dir "alcop-session-test" "" in
  let session = Session.create ~hw ~store:(Store.create ~root ()) () in
  Alcop_obs.Obs.add_sink
    { Alcop_obs.Obs.emit =
        (function
          | Alcop_obs.Obs.Counter { name = "session.store.write"; _ } ->
            raise Sink_failure
          | _ -> ());
      close = ignore };
  let raised =
    Fun.protect ~finally:Alcop_obs.Obs.reset (fun () ->
        match Session.timing session params spec with
        | _ -> false
        | exception Sink_failure -> true)
  in
  Alcotest.(check bool) "timing re-raises the sink failure" true raised;
  let result = Atomic.make None in
  let d =
    Domain.spawn (fun () ->
        Atomic.set result (Some (Session.timing session params spec)))
  in
  let deadline = Unix.gettimeofday () +. 5.0 in
  while Atomic.get result = None && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.01
  done;
  match Atomic.get result with
  | None -> Alcotest.fail "second timing call blocked on a leaked claim"
  | Some r ->
    Domain.join d;
    Alcotest.(check bool) "second timing call is Ok" true (Result.is_ok r)

let suite =
  [ ( "session",
      [ Alcotest.test_case "hit returns the identical artifact" `Quick
          test_hit_returns_identical_artifact;
        Alcotest.test_case "errors are memoized" `Quick
          test_errors_are_memoized;
        Alcotest.test_case "FIFO eviction at capacity" `Quick
          test_eviction_fifo;
        Alcotest.test_case "cache:false is a pass-through" `Quick
          test_no_cache_pass_through;
        Alcotest.test_case "registry shares sessions per hardware" `Quick
          test_registry_shared_per_hw;
        Alcotest.test_case "clear" `Quick test_clear;
        Alcotest.test_case "entries are evaluation records" `Quick
          test_entries_are_records;
        QCheck_alcotest.to_alcotest prop_cached_equals_cold ] ) ]

(* Spawns a domain: runs after Test_obs's fork-based test. *)
let domain_suite =
  [ ( "session-par",
      [ Alcotest.test_case "failed write-through releases the claim" `Quick
          test_failed_write_through_releases_claim ] ) ]
