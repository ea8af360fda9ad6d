(* Tests for the persistent on-disk artifact store of evaluation
   records: cross-"process" serving (a fresh session over a shared
   directory), corruption tolerance, size-capped eviction and concurrent
   same-key hammering. *)

open Alcop

let hw = Alcop_hw.Hw_config.ampere_a100

let spec = Alcop_workloads.Suites.mm_rn50_fc

let tiling =
  Alcop_sched.Tiling.make ~tb_m:64 ~tb_n:64 ~tb_k:32 ~warp_m:32 ~warp_n:32
    ~warp_k:16 ()

let params = Alcop_perfmodel.Params.make ~tiling ~smem_stages:3 ~reg_stages:2 ()

let bad_params =
  (* smem stages beyond what shared memory fits: a memoized failure *)
  Alcop_perfmodel.Params.make ~tiling ~smem_stages:64 ~reg_stages:2 ()

let with_dir f = Temp_dir.with_dir "alcop-store-test" f

let stall_fractions (w : Alcop_gpusim.Timing.wave_result) =
  Alcop_gpusim.Timing.
    [ w.stall_compute; w.stall_dram_bw; w.stall_llc_bw; w.stall_smem_port;
      w.stall_sync_wait; w.stall_issue ]

(* --- cross-process serving: fresh session, shared directory --- *)

let test_warm_across_sessions () =
  with_dir @@ fun dir ->
  let st1 = Store.create ~root:dir () in
  let s1 = Session.create ~hw ~store:st1 () in
  let cold =
    match Session.timing s1 params spec with
    | Ok r -> r
    | Error msg -> Alcotest.failf "cold compile failed: %s" msg
  in
  Alcotest.(check int) "cold run wrote one entry" 1 (Store.stats st1).Store.writes;
  (* A fresh session + store handle over the same directory is what a new
     process sees: the timing query must be served from disk, without
     compiling, and bit-identically. *)
  let st2 = Store.create ~root:dir () in
  let s2 = Session.create ~hw ~store:st2 () in
  (match Session.timing s2 params spec with
   | Ok warm ->
     Alcotest.(check bool) "latency bit-identical" true
       (warm.Session.latency_cycles = cold.Session.latency_cycles);
     Alcotest.(check bool) "kernel timing identical" true
       (warm.Session.timing = cold.Session.timing)
   | Error msg -> Alcotest.failf "warm timing failed: %s" msg);
  let s = Store.stats st2 in
  Alcotest.(check int) "served from disk" 1 s.Store.hits;
  Alcotest.(check int) "nothing recompiled, nothing written" 0 s.Store.writes;
  (* Third tier: the record is now memory-resident in s2 — the next call
     must not touch the disk again. *)
  ignore (Session.timing s2 params spec);
  Alcotest.(check int) "second lookup is a memory hit" 1
    (Store.stats st2).Store.hits;
  Alcotest.(check int) "session counted both" 1 (Session.stats s2).Session.hits

let test_failures_persist () =
  with_dir @@ fun dir ->
  let s1 =
    Session.create ~hw ~store:(Store.create ~root:dir ()) ()
  in
  Alcotest.(check bool) "bad point fails cold" true
    (Session.evaluate s1 bad_params spec = None);
  let st2 = Store.create ~root:dir () in
  let s2 = Session.create ~hw ~store:st2 () in
  Alcotest.(check bool) "bad point fails warm" true
    (Session.evaluate s2 bad_params spec = None);
  Alcotest.(check int) "failure served from disk" 1 (Store.stats st2).Store.hits

(* --- corruption tolerance --- *)

let corrupt_then_serve payload =
  with_dir @@ fun dir ->
  let st1 = Store.create ~root:dir () in
  let s1 = Session.create ~hw ~store:st1 () in
  let cold =
    match Session.timing s1 params spec with
    | Ok r -> r.Session.latency_cycles
    | Error msg -> Alcotest.failf "cold compile failed: %s" msg
  in
  let key =
    Fingerprint.to_hex
      (Fingerprint.compile_key ~hw ~extra_regs_per_thread:0 params spec)
  in
  let path = Store.entry_path st1 ~ns:"compile" key in
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc payload);
  let st2 = Store.create ~root:dir () in
  let s2 = Session.create ~hw ~store:st2 () in
  let warm =
    match Session.timing s2 params spec with
    | Ok r -> r.Session.latency_cycles
    | Error msg -> Alcotest.failf "recovery compile failed: %s" msg
  in
  Alcotest.(check bool) "recomputed value matches" true (warm = cold);
  let s = Store.stats st2 in
  Alcotest.(check int) "corrupt entry counted" 1 s.Store.corrupt;
  Alcotest.(check int) "corrupt entry is not a hit" 0 s.Store.hits;
  Alcotest.(check int) "bad entry rewritten" 1 s.Store.writes;
  (* The bad file was deleted and replaced; a third process hits again. *)
  let st3 = Store.create ~root:dir () in
  let s3 = Session.create ~hw ~store:st3 () in
  ignore (Session.timing s3 params spec);
  Alcotest.(check int) "replaced entry serves again" 1 (Store.stats st3).Store.hits

let test_corrupt_entries () =
  corrupt_then_serve "";                                  (* truncated to nothing *)
  corrupt_then_serve "{\"v\":1,\"ok\":true";              (* cut mid-document *)
  corrupt_then_serve "not json at all \x00\xff";          (* garbage bytes *)
  corrupt_then_serve "{\"v\":999,\"ok\":true}";           (* future schema *)
  (* a malformed \u escape: once an uncaught [Failure] in the parser *)
  corrupt_then_serve {|{"v":1,"ok":false,"kind":"x","message":"\uZZZZ"}|}

let prop_corruption_fuzz =
  (* Any byte string in an entry file either parses to a record or reads
     as [None] — [Artifact.of_string] never raises. *)
  QCheck.Test.make ~name:"artifact parser never raises on garbage" ~count:500
    QCheck.(string_gen_of_size (Gen.int_range 0 200) Gen.char)
    (fun garbage ->
      match Artifact.of_string garbage with
      | Some _ | None -> true)

(* --- serialization round-trip --- *)

let test_artifact_roundtrip () =
  let c =
    match
      Compiler.compile ~hw ~extra_regs_per_thread:0 params spec
    with
    | Ok c -> c
    | Error e -> Alcotest.failf "compile failed: %s" (Compiler.error_to_string e)
  in
  let record =
    Artifact.Success
      { Artifact.latency_cycles = c.Compiler.latency_cycles;
        timing = c.Compiler.timing }
  in
  (match Artifact.of_string (Artifact.to_string record) with
   | Some (Artifact.Success r) ->
     Alcotest.(check bool) "latency round-trips bit-identically" true
       (r.Artifact.latency_cycles = c.Compiler.latency_cycles);
     Alcotest.(check bool) "kernel timing round-trips" true
       (r.Artifact.timing = c.Compiler.timing);
     (match r.Artifact.timing.wave_busy, c.Compiler.timing.wave_busy with
      | Some w, Some w0 ->
        let bits w = List.map Int64.bits_of_float (stall_fractions w) in
        Alcotest.(check (list int64))
          "stall fractions round-trip bit-identically" (bits w0) (bits w);
        let sum = List.fold_left ( +. ) 0.0 (stall_fractions w) in
        Alcotest.(check bool)
          (Printf.sprintf "stall fractions cover the wave (sum %g)" sum)
          true
          (Float.abs (sum -. 1.0) < 1e-9)
      | _ -> Alcotest.fail "round-trip lost the representative wave")
   | Some (Artifact.Failure _) | None -> Alcotest.fail "round-trip lost record");
  let failure = Artifact.Failure { kind = "launch"; message = "too big" } in
  (match Artifact.of_string (Artifact.to_string failure) with
   | Some (Artifact.Failure { kind; message }) ->
     Alcotest.(check string) "kind" "launch" kind;
     Alcotest.(check string) "message" "too big" message
   | Some (Artifact.Success _) | None -> Alcotest.fail "round-trip lost failure");
  (* A version-1 record carries no stall fractions: it reads as a miss. *)
  Alcotest.(check bool) "version-1 record is a miss" true
    (Artifact.of_string {|{"v":1,"ok":false,"kind":"launch","message":"m"}|}
     = None)

(* --- traced and untraced writers agree --- *)

(* A store filled by an untraced process serves a traced one the same
   [timing.stall.*] gauges a traced cold compile publishes, and a record's
   bytes do not depend on whether its writer was traced. *)
let test_traced_hit_after_untraced_fill () =
  let key =
    Fingerprint.to_hex
      (Fingerprint.compile_key ~hw ~extra_regs_per_thread:0 params spec)
  in
  (* One evaluation through a fresh session, as a new process would run
     it; returns the stall gauges it published and the store's hits. *)
  let evaluate ~traced root =
    Alcop_obs.Obs.reset ();
    if traced then Alcop_obs.Obs.record ();
    Fun.protect ~finally:Alcop_obs.Obs.reset @@ fun () ->
    let st = Store.create ~root () in
    (match Session.timing (Session.create ~hw ~store:st ()) params spec with
     | Ok _ -> ()
     | Error msg -> Alcotest.failf "evaluation failed: %s" msg);
    ( Alcop_obs.Obs.gauges_with_prefix "timing.stall.",
      (Store.stats st).Store.hits )
  in
  with_dir @@ fun traced_dir ->
  with_dir @@ fun untraced_dir ->
  let cold, cold_hits = evaluate ~traced:true traced_dir in
  Alcotest.(check int) "traced cold compile" 0 cold_hits;
  Alcotest.(check int) "six stall gauges" 6 (List.length cold);
  ignore (evaluate ~traced:false untraced_dir);
  let bytes root = Store.read (Store.create ~root ()) ~ns:"compile" key in
  let traced_bytes = bytes traced_dir in
  Alcotest.(check bool) "record written" true (traced_bytes <> None);
  Alcotest.(check (option string)) "record bytes traced = untraced"
    traced_bytes (bytes untraced_dir);
  let warm, warm_hits = evaluate ~traced:true untraced_dir in
  Alcotest.(check int) "traced run served from the store" 1 warm_hits;
  Alcotest.(check bool) "store-served stall gauges = traced cold compile's" true
    (warm = cold)

(* --- eviction under a size cap --- *)

let test_gc_eviction () =
  with_dir @@ fun dir ->
  let st = Store.create ~root:dir () in
  let payload = String.make 512 'x' in
  for i = 0 to 19 do
    let key = Digest.to_hex (Digest.string (string_of_int i)) in
    Store.write st ~ns:"compile" key payload;
    (* widen the mtime spacing so LRU order is unambiguous *)
    let mt = 1e9 +. (float_of_int i *. 10.0) in
    Unix.utimes (Store.entry_path st ~ns:"compile" key) mt mt
  done;
  let _, bytes_before = Store.usage st in
  Alcotest.(check bool) "over cap before gc" true (bytes_before > 4096);
  let removed = Store.gc st ~max_bytes:4096 () in
  let entries, bytes = Store.usage st in
  Alcotest.(check bool) "under cap after gc" true (bytes <= 4096);
  Alcotest.(check int) "entries + removed = 20" 20 (entries + removed);
  (* LRU: the newest entries survive. *)
  for i = 13 to 19 do
    let key = Digest.to_hex (Digest.string (string_of_int i)) in
    Alcotest.(check bool)
      (Printf.sprintf "entry %d (recent) survives" i)
      true
      (Sys.file_exists (Store.entry_path st ~ns:"compile" key))
  done;
  Alcotest.(check int) "gc below cap is a no-op" 0
    (Store.gc st ~max_bytes:4096 ())

(* --- unwritable root degrades cleanly --- *)

let test_unwritable_root () =
  let file = Filename.temp_file "alcop-store" ".blocker" in
  (* the root's parent is a regular file: mkdir must fail *)
  let st = Store.create ~root:(Filename.concat file "store") () in
  Alcotest.(check bool) "store disabled" false (Store.enabled st);
  Store.write st ~ns:"compile" "deadbeef" "data";
  Alcotest.(check bool) "write is a no-op" true
    (Store.read st ~ns:"compile" "deadbeef" = None);
  (* Sessions keep working without it. *)
  let s = Session.create ~hw ~store:st () in
  Alcotest.(check bool) "evaluate still works" true
    (Session.evaluate s params spec <> None);
  Sys.remove file

let test_default_root_env () =
  let saved_store = Sys.getenv_opt "ALCOP_STORE" in
  let saved_xdg = Sys.getenv_opt "XDG_CACHE_HOME" in
  let restore () =
    let put name v =
      match v with Some v -> Unix.putenv name v | None -> Unix.putenv name ""
    in
    put "ALCOP_STORE" saved_store;
    put "XDG_CACHE_HOME" saved_xdg
  in
  Fun.protect ~finally:restore (fun () ->
      Unix.putenv "ALCOP_STORE" "";
      Unix.putenv "XDG_CACHE_HOME" "/some/cache";
      Alcotest.(check string) "XDG_CACHE_HOME honored" "/some/cache/alcop"
        (Store.default_root ());
      Unix.putenv "ALCOP_STORE" "/explicit/store";
      Alcotest.(check string) "ALCOP_STORE wins" "/explicit/store"
        (Store.default_root ()))

(* --- concurrent same-key hammer --- *)

let test_same_key_hammer () =
  (* Writers and readers race on one key through independent store
     handles over the same directory (the same file-level interleavings
     two OS processes produce). Every read must observe a complete
     payload — atomic rename means torn entries are impossible. *)
  with_dir @@ fun dir ->
  let key = Digest.to_hex (Digest.string "hammer") in
  let payload tag = Printf.sprintf "{\"tag\":%d,\"fill\":\"%s\"}" tag (String.make 256 'p') in
  let iters = 200 in
  let bad = Atomic.make 0 in
  let worker tag () =
    let st = Store.create ~root:dir () in
    for _ = 1 to iters do
      Store.write st ~ns:"compile" key (payload tag);
      match Store.read st ~ns:"compile" key with
      | None -> Atomic.incr bad
      | Some data ->
        let ok =
          (* must be exactly one writer's complete payload *)
          List.exists (fun t -> String.equal data (payload t)) [ 0; 1; 2; 3 ]
        in
        if not ok then Atomic.incr bad
    done
  in
  let domains = List.init 4 (fun tag -> Domain.spawn (worker tag)) in
  List.iter Domain.join domains;
  Alcotest.(check int) "no torn reads" 0 (Atomic.get bad);
  (* the surviving entry is one of the writers', intact *)
  let st = Store.create ~root:dir () in
  (match Store.read st ~ns:"compile" key with
   | Some data ->
     Alcotest.(check bool) "final entry intact" true
       (List.exists (fun t -> String.equal data (payload t)) [ 0; 1; 2; 3 ])
   | None -> Alcotest.fail "entry vanished");
  (* no leftover temp files *)
  let leftovers =
    Array.to_list (Sys.readdir dir)
    |> List.filter (fun f -> String.length f >= 4 && String.sub f 0 4 = ".tmp")
  in
  Alcotest.(check (list string)) "no stale temp files" [] leftovers

(* --- test scratch directories --- *)

(* Every store test gets a directory no earlier run can have filled, and
   leaves nothing behind, also when its body raises. A reused name once let
   a "cold" compile be served from a previous run's record. *)
let test_scratch_dirs () =
  let fill dir =
    Alcotest.(check (array string)) "starts empty" [||] (Sys.readdir dir);
    Store.write (Store.create ~root:dir ()) ~ns:"compile" "deadbeef" "x";
    dir
  in
  let first = with_dir fill in
  let second = ref "" in
  (match with_dir (fun dir -> second := fill dir; failwith "body") with
   | _ -> Alcotest.fail "the body's exception was lost"
   | exception Failure _ -> ());
  Alcotest.(check bool) "a fresh name each time" false (first = !second);
  List.iter
    (fun d -> Alcotest.(check bool) (d ^ " removed") false (Sys.file_exists d))
    [ first; !second ]

let suite =
  [ ( "store",
      [ Alcotest.test_case "warm across sessions (fresh process)" `Quick
          test_warm_across_sessions;
        Alcotest.test_case "failures persist" `Quick test_failures_persist;
        Alcotest.test_case "corrupt entries are misses" `Quick
          test_corrupt_entries;
        Alcotest.test_case "artifact record round-trip" `Quick
          test_artifact_roundtrip;
        Alcotest.test_case "traced hit after untraced fill" `Quick
          test_traced_hit_after_untraced_fill;
        Alcotest.test_case "gc evicts LRU under cap" `Quick test_gc_eviction;
        Alcotest.test_case "unwritable root degrades cleanly" `Quick
          test_unwritable_root;
        Alcotest.test_case "default root honors env" `Quick
          test_default_root_env;
        Alcotest.test_case "concurrent same-key hammer" `Quick
          test_same_key_hammer;
        QCheck_alcotest.to_alcotest prop_corruption_fuzz;
        Alcotest.test_case "test scratch dirs are fresh and removed" `Quick
          test_scratch_dirs ] ) ]
