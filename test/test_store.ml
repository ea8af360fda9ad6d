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

let tmp_counter = ref 0

let fresh_dir () =
  incr tmp_counter;
  let d =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "alcop-store-test-%d-%d" (Unix.getpid ()) !tmp_counter)
  in
  (try Sys.remove d with Sys_error _ -> ());
  d

(* --- cross-process serving: fresh session, shared directory --- *)

let test_warm_across_sessions () =
  let dir = fresh_dir () in
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
  let dir = fresh_dir () in
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

let test_compile_never_reads_records () =
  (* [compile] never reads the store: it compiles to return the artifact.
     A key [timing] landed from a disk record is still a memo hit for it,
     so the rebuild lands and writes nothing. *)
  let dir = fresh_dir () in
  ignore
    (Session.timing
       (Session.create ~hw ~store:(Store.create ~root:dir ()) ())
       params spec);
  let st = Store.create ~root:dir () in
  let s = Session.create ~hw ~store:st () in
  let warm =
    match Session.timing s params spec with
    | Ok r -> r.Session.latency_cycles
    | Error msg -> Alcotest.failf "warm timing failed: %s" msg
  in
  let before = Store.stats st in
  (match Session.compile s params spec with
   | Ok c ->
     Alcotest.(check bool) "rebuilt artifact matches the record" true
       (c.Compiler.latency_cycles = warm)
   | Error e -> Alcotest.failf "compile failed: %s" (Compiler.error_to_string e));
  let after = Store.stats st in
  Alcotest.(check int) "compile reads nothing"
    (before.Store.hits + before.Store.misses)
    (after.Store.hits + after.Store.misses);
  Alcotest.(check int) "compile writes nothing" before.Store.writes
    after.Store.writes;
  let stats = Session.stats s in
  Alcotest.(check int) "compile on a disk record is a hit" 1
    stats.Session.hits;
  Alcotest.(check int) "the read-through is the only miss" 1
    stats.Session.misses

(* --- corruption tolerance --- *)

let corrupt_then_serve payload =
  let dir = fresh_dir () in
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
  corrupt_then_serve "{\"v\":999,\"ok\":true}"            (* future schema *)

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
        timing = c.Compiler.timing;
        gauges = [ ("timing.n_waves", 7.0); ("timing.miss_rate", 0.125) ] }
  in
  (match Artifact.of_string (Artifact.to_string record) with
   | Some (Artifact.Success r) ->
     Alcotest.(check bool) "latency round-trips bit-identically" true
       (r.Artifact.latency_cycles = c.Compiler.latency_cycles);
     Alcotest.(check bool) "kernel timing round-trips" true
       (r.Artifact.timing = c.Compiler.timing);
     Alcotest.(check bool) "gauges round-trip" true
       (r.Artifact.gauges
        = [ ("timing.n_waves", 7.0); ("timing.miss_rate", 0.125) ])
   | Some (Artifact.Failure _) | None -> Alcotest.fail "round-trip lost record");
  let failure = Artifact.Failure { kind = "launch"; message = "too big" } in
  match Artifact.of_string (Artifact.to_string failure) with
  | Some (Artifact.Failure { kind; message }) ->
    Alcotest.(check string) "kind" "launch" kind;
    Alcotest.(check string) "message" "too big" message
  | Some (Artifact.Success _) | None -> Alcotest.fail "round-trip lost failure"

(* --- eviction under a size cap --- *)

let test_gc_eviction () =
  let dir = fresh_dir () in
  let st = Store.create ~root:dir ~max_bytes:4096 () in
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
  let removed = Store.gc st () in
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
  Alcotest.(check int) "gc below cap is a no-op" 0 (Store.gc st ())

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
  let dir = fresh_dir () in
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

let suite =
  [ ( "store",
      [ Alcotest.test_case "warm across sessions (fresh process)" `Quick
          test_warm_across_sessions;
        Alcotest.test_case "failures persist" `Quick test_failures_persist;
        Alcotest.test_case "compile never served by records" `Quick
          test_compile_never_reads_records;
        Alcotest.test_case "corrupt entries are misses" `Quick
          test_corrupt_entries;
        Alcotest.test_case "artifact record round-trip" `Quick
          test_artifact_roundtrip;
        Alcotest.test_case "gc evicts LRU under cap" `Quick test_gc_eviction;
        Alcotest.test_case "unwritable root degrades cleanly" `Quick
          test_unwritable_root;
        Alcotest.test_case "default root honors env" `Quick
          test_default_root_env;
        Alcotest.test_case "concurrent same-key hammer" `Quick
          test_same_key_hammer;
        QCheck_alcotest.to_alcotest prop_corruption_fuzz ] ) ]
