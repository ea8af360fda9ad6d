(* The repository benchmark: three closed-loop workloads that price one
   schedule evaluation in each tier that can answer it (compile path,
   in-memory session memo, on-disk store) and one tuning job end to end.

     perfbench.exe --workload fig10-sweep|warm-replay|tune --seed N
                   --seconds S --trace 0|1 [--out DIR]

   The seed draws the inputs; the same seed gives the same inputs and the
   same per-layer counts. With --trace 0 the run measures end-to-end
   metrics with all instrumentation off. With --trace 1 it spends half
   the time on untraced cycles and half on traced ones, which time calls
   into the public layer functions from outside, read the existing Obs
   counters, histograms and Hostprof pass samples, and give per-layer
   metrics plus the tracing overhead; the traced spans are written at
   exit in the Obs JSONL schema (`alcop trace summary FILE` reads them).

   The last line of standard output is one JSON object with the keys
   correct, attempted, failed and metrics. README.md in this directory
   documents the workloads, op definitions, metrics and run protocol. *)

open Alcop
module Obs = Alcop_obs.Obs
module Json = Alcop_obs.Json
module Hostprof = Alcop_obs.Hostprof
module Benchdb = Alcop_obs.Benchdb
module Timing = Alcop_gpusim.Timing
module Params = Alcop_perfmodel.Params
module Op_spec = Alcop_sched.Op_spec
module Tiling = Alcop_sched.Tiling
module Tuner = Alcop_tune.Tuner

let hw = Alcop_hw.Hw_config.default
let now_ns () = Int64.to_int (Monotonic_clock.now ())
let s_of_ns ns = float_of_int ns /. 1e9
let us_of_ns ns = float_of_int ns /. 1e3

let shuffle rng a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* Exact rendering for the determinism record: floats by their bits. *)
let exact_float f = Printf.sprintf "%h" f

(* ------------------------------------------------------------------ *)
(* The benchmark's own in-memory spans, written at exit in the Obs JSONL
   schema. Spans are kept in completion order (children before parents),
   which is the order Obs itself emits [Span_end] events in. *)

type span = {
  sp_name : string;
  sp_start_ns : int;
  sp_dur_ns : int;
  sp_depth : int;
  sp_fields : (string * Json.t) list;
}

let tracing = ref false
let spans : span list ref = ref []
let span_depth = ref 0

let with_span ?(fields = fun _ -> []) name f =
  if not !tracing then f ()
  else begin
    let depth = !span_depth in
    incr span_depth;
    let t0 = now_ns () in
    let r = Fun.protect ~finally:(fun () -> decr span_depth) f in
    spans :=
      { sp_name = name; sp_start_ns = t0; sp_dur_ns = now_ns () - t0;
        sp_depth = depth; sp_fields = fields r }
      :: !spans;
    r
  end

(* Library spans the traced run needs durations of (the tuner's
   [tuner.run] and [tuner.pretrain]) are captured by a sink that keeps
   only those and re-nests them under the benchmark's open span. The Obs
   clock is switched to the benchmark's monotonic clock so both kinds of
   span share one time base. *)
let captured_spans = [ "tuner.run"; "tuner.pretrain" ]

let capture_sink () =
  { Obs.emit =
      (function
        | Obs.Span_end { name; ts; dur; depth; fields }
          when List.mem name captured_spans ->
          spans :=
            { sp_name = name;
              sp_start_ns = int_of_float (ts *. 1e9);
              sp_dur_ns = int_of_float (dur *. 1e9);
              sp_depth = depth + !span_depth; sp_fields = fields }
            :: !spans
        | _ -> ());
    close = (fun () -> ()) }

let span_total name =
  List.fold_left
    (fun acc sp -> if String.equal sp.sp_name name then acc + sp.sp_dur_ns else acc)
    0 !spans

(* ------------------------------------------------------------------ *)
(* Layer probes for the traced cycle *)

type tracer = {
  mutable hits : int;  (* session calls answered by the in-memory memo *)
  mutable misses : int;
  mutable hit_ns : int;
  mutable miss_ns : int;
  (* Shadow calls: right after each op, the layers it ran internally are
     called again on the same inputs and timed, so their cost is taken in
     the same machine state as the op. Shadow time is kept out of the
     traced wall time. *)
  mutable fingerprint_ns : int;  (* one [Fingerprint.compile_key] per call *)
  mutable store_reads : int;
  mutable read_ns : int;  (* [Store.read] *)
  mutable parse_ns : int;  (* [Artifact.of_string] *)
  mutable shadow_ns : int;
}

let new_tracer () =
  { hits = 0; misses = 0; hit_ns = 0; miss_ns = 0; fingerprint_ns = 0;
    store_reads = 0; read_ns = 0; parse_ns = 0; shadow_ns = 0 }

let shadow_total = function Some tr -> tr.shadow_ns | None -> 0

let shadow tr f =
  let t0 = now_ns () in
  let r = f () in
  let dt = now_ns () - t0 in
  tr.shadow_ns <- tr.shadow_ns + dt;
  (r, dt)

(* Classify one timed session call as memo hit or miss and shadow-time
   its fingerprint; returns the key. *)
let record_call tr ~hit dt ~extra p spec =
  if hit then begin
    tr.hits <- tr.hits + 1;
    tr.hit_ns <- tr.hit_ns + dt
  end
  else begin
    tr.misses <- tr.misses + 1;
    tr.miss_ns <- tr.miss_ns + dt
  end;
  let key, key_ns =
    shadow tr (fun () ->
        Fingerprint.compile_key ~hw ~extra_regs_per_thread:extra p spec)
  in
  tr.fingerprint_ns <- tr.fingerprint_ns + key_ns;
  key

(* One session call, timed; with a tracer, classified by the session's
   own stats deltas around the call. *)
let session_call tracer session ~extra p spec f =
  match tracer with
  | None ->
    let t0 = now_ns () in
    let r = f () in
    (r, now_ns () - t0)
  | Some tr ->
    let before = (Session.stats session).Session.hits in
    let t0 = now_ns () in
    let r = f () in
    let dt = now_ns () - t0 in
    let hit = (Session.stats session).Session.hits > before in
    ignore (record_call tr ~hit dt ~extra p spec);
    (r, dt)

(* ------------------------------------------------------------------ *)
(* Workloads *)

(* One closed-loop pass over a workload's drawn inputs. Every cycle does
   identical work (fresh session, cleared wave cache), so its counts are
   exact functions of the seed. *)
type cycle = {
  ops : int;  (* distinct ops, one latency each *)
  attempted : int;  (* op executions; [ops] times the runs combined *)
  failed : int;  (* ops that raised or failed an inline check *)
  wall_ns : int;
  lat : int array;  (* per-op latency, ns *)
  words : float;  (* minor words allocated during the cycle's first run *)
  counts : (string * string) list;  (* exact per-layer counts *)
  best_geomean : float;
}

type bench = {
  drawn : string;  (* what the seed drew, printed for held-out-seed checks *)
  setup_reps : int;
  reset : unit -> unit;  (* untimed, before each set-up *)
  prepare : unit -> unit;  (* the timed set-up; the last one is measured *)
  run_cycle : tracer option -> cycle;
  best_of : int;
      (* untraced runs of each cycle; each chunk of [chunk] consecutive ops
         keeps the latencies of its fastest run *)
  chunk : int;
  cycles_alike : bool;
      (* every cycle does identical work, and a run is many cycles *)
  model_points : (Op_spec.t * Params.t * int) array;
      (* (spec, point, extra registers) for the analytical-model timing *)
  configs : unit -> (Op_spec.kind * Params.t) list;
      (* pipeline configurations the run visited *)
  check : unit -> int;  (* output checks after measurement; failures *)
  store_layer : unit -> (string * float) list;
      (* store write micro-timing and bytes on disk; [] without a store *)
}

let suite = Array.of_list Alcop_workloads.Suites.fig10
let op_names specs =
  String.concat " " (Array.to_list (Array.map (fun s -> s.Op_spec.name) specs))

let wave_reuse_delta (h0, m0) =
  let h1, m1 = Timing.wave_reuse_stats () in
  (h1 - h0, m1 - m0)

(* [n] elements of [a] drawn without replacement. *)
let sample rng n a = Array.sub (shuffle rng a) 0 (min n (Array.length a))

(* -- fig10-sweep: the paper's Fig. 10 protocol. All five compiler
   variants swept exhaustively, operator by operator, through one fresh
   caching session with no store. One op is one [Session.evaluate]. *)

let variant_rank = [ Variants.alcop; Variants.alcop_no_ml; Variants.alcop_no_ml_ms; Variants.tvm ]

let fig10_sweep rng =
  let order = shuffle rng suite in
  let spaces = ref [] in
  let session = ref (Session.create ~hw ()) in
  let best = Hashtbl.create 64 in
  let make_state () =
    ( Array.to_list
        (Array.map
           (fun spec ->
             (spec, List.map (fun v -> (v, Variants.space v spec)) Variants.all))
           order),
      Session.create ~hw () )
  in
  let prepare () =
    let sp, s = make_state () in
    spaces := sp;
    session := s
  in
  let run_cycle tracer =
    let sess = !session in
    Timing.wave_cache_clear ();
    Hashtbl.reset best;
    let n =
      List.fold_left
        (fun acc (_, vs) ->
          List.fold_left (fun acc (_, sp) -> acc + Array.length sp) acc vs)
        0 !spaces
    in
    let lat = Array.make n 0 in
    let i = ref 0 and failed = ref 0 and rejected = ref 0 in
    let wr0 = Timing.wave_reuse_stats () in
    let w0 = Gc.minor_words () in
    let t0 = now_ns () in
    Timing.with_wave_reuse (fun () ->
        List.iter
          (fun ((spec : Op_spec.t), variants) ->
            with_span "fig10.operator"
              ~fields:(fun () -> [ ("op", Json.Str spec.Op_spec.name) ])
              (fun () ->
                List.iter
                  (fun ((v : Variants.t), space) ->
                    with_span "fig10.variant"
                      ~fields:(fun () ->
                        [ ("variant", Json.Str v.Variants.name);
                          ("points", Json.Int (Array.length space)) ])
                      (fun () ->
                        let extra = Variants.extra_regs v spec in
                        let b = ref infinity in
                        Array.iter
                          (fun p ->
                            let extra = extra p in
                            let r, dt =
                              session_call tracer sess ~extra p spec (fun () ->
                                  match
                                    Session.evaluate sess ~extra_regs_per_thread:extra p spec
                                  with
                                  | r -> Ok r
                                  | exception e -> Error e)
                            in
                            lat.(!i) <- dt;
                            incr i;
                            match r with
                            | Ok (Some c) when Float.is_finite c && c > 0.0 ->
                              if c < !b then b := c
                            | Ok (Some _) | Error _ -> incr failed
                            | Ok None -> incr rejected)
                          space;
                        Hashtbl.replace best (spec.Op_spec.name, v.Variants.name) !b))
                  variants))
          !spaces);
    let wall_ns = now_ns () - t0 in
    let words = Gc.minor_words () -. w0 in
    let wr_hits, wr_misses = wave_reuse_delta wr0 in
    let st = Session.stats sess in
    session := Session.create ~hw ();
    let alcop_best =
      Array.to_list
        (Array.map
           (fun s -> Hashtbl.find best (s.Op_spec.name, Variants.alcop.Variants.name))
           order)
    in
    { ops = n; attempted = n; failed = !failed; wall_ns; lat; words;
      counts =
        [ ("ops", string_of_int n); ("ops.rejected", string_of_int !rejected);
          ("session.hits", string_of_int st.Session.hits);
          ("session.misses", string_of_int st.Session.misses);
          ("session.evictions", string_of_int st.Session.evictions);
          ("session.entries", string_of_int st.Session.entries);
          ("timing.wave_reuse_hits", string_of_int wr_hits);
          ("timing.wave_reuse_misses", string_of_int wr_misses);
          ("best_cycles_geomean", exact_float (Experiments.geomean alcop_best)) ];
      best_geomean = Experiments.geomean alcop_best }
  in
  (* Variant spaces are nested (full ⊇ no-ML ⊇ no-ML&MS ⊇ no pipelining,
     all without extra registers), so each variant's best must be no
     worse than the next-smaller space's: a wrong memo answer shows as an
     inversion. *)
  let check () =
    Array.fold_left
      (fun acc (spec : Op_spec.t) ->
        let b v = Hashtbl.find best (spec.Op_spec.name, v.Variants.name) in
        let rec inversions = function
          | a :: (c :: _ as rest) -> (if b a > b c then 1 else 0) + inversions rest
          | _ -> 0
        in
        let bad = inversions variant_rank in
        if bad > 0 then
          Printf.printf "check: %s: variant bests are not nested\n" spec.Op_spec.name;
        acc + bad)
      0 order
  in
  let all_points =
    Array.concat
      (List.concat_map
         (fun spec ->
           List.map
             (fun v ->
               Array.map
                 (fun p -> (spec, p, Variants.extra_regs v spec p))
                 (Variants.space v spec))
             Variants.all)
         (Array.to_list order))
  in
  { drawn = op_names order;
    setup_reps = 10;
    reset = (fun () -> spaces := []);
    prepare;
    run_cycle;
    (* A cycle is ~190k ops (~20 s); a slow stretch of the machine covers
       seconds of it, so the cycle runs twice and each chunk of ~1000 ops
       (50-150 ms) keeps its faster run. *)
    best_of = 2;
    chunk = 1000;
    cycles_alike = false;
    model_points = sample rng 2000 all_points;
    configs =
      (fun () ->
        List.concat_map
          (fun (spec, vs) ->
            List.concat_map
              (fun ((_ : Variants.t), sp) ->
                Array.to_list (Array.map (fun p -> (spec.Op_spec.kind, p)) sp))
              vs)
          !spaces);
    check;
    store_layer = (fun () -> []) }

(* -- warm-replay: a second process meeting a filled store. Set-up opens
   a fresh store root, fills it by evaluating a seeded sample of ALCOP
   points of every Fig. 10 operator through a store-attached session
   (compile plus write-through), and makes one discarded warm pass. One
   op is one [Session.timing] from a fresh store-attached session.

   The store roots of a run live under [<out>/stores/NNNNNN/], numbered
   by run with a fixed width, so the paths [Store.read] builds (and the
   words it allocates for them) are the same in every run. Runs do not
   delete their roots: the filesystem is mounted with online discard, and
   freeing a run's ~14 MB of small files makes file creation several times
   slower for minutes, which would leak into the next runs' set-up. Only
   the oldest runs beyond [kept_runs] are removed, before set-up. *)

let kept_runs = 64

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path

let same_answer (a : (Session.timed, string) result) b =
  match a, b with
  | Ok x, Ok y ->
    Int64.equal
      (Int64.bits_of_float x.Session.latency_cycles)
      (Int64.bits_of_float y.Session.latency_cycles)
    && compare x.Session.timing y.Session.timing = 0
  | Error m, Error m' -> String.equal m m'
  | Ok _, Error _ | Error _, Ok _ -> false

let points_per_operator = 60

let warm_replay rng ~out_dir =
  let sampled =
    Array.concat
      (Array.to_list
         (Array.map
            (fun spec ->
              Array.map (fun p -> (spec, p, 0))
                (sample rng points_per_operator (Variants.space Variants.alcop spec)))
            suite))
  in
  let points = shuffle rng sampled in
  let n = Array.length points in
  let stores = Filename.concat out_dir "stores" in
  mkdir_p stores;
  let runs =
    List.sort compare
      (List.filter_map int_of_string_opt (Array.to_list (Sys.readdir stores)))
  in
  List.iteri
    (fun i r ->
      if i <= List.length runs - kept_runs then
        rm_rf (Filename.concat stores (Printf.sprintf "%06d" r)))
    runs;
  let run_dir =
    Filename.concat stores
      (Printf.sprintf "%06d" (List.fold_left (fun acc r -> max acc (r + 1)) 0 runs))
  in
  let root_seq = ref 0 in
  let root () = Filename.concat run_dir (Printf.sprintf "fill-%02d" !root_seq) in
  let store = ref None in
  let cold = ref [||] in
  let the_store () = match !store with Some s -> s | None -> assert false in
  let reset () = incr root_seq in
  let prepare () =
    let st = Store.create ~root:(root ()) () in
    let fill = Session.create ~hw ~store:st () in
    cold := Array.map (fun (spec, p, _) -> Session.timing fill p spec) points;
    Array.iter
      (fun (spec, p, _) -> ignore (Session.timing (Session.create ~hw ~store:st ()) p spec))
      points;
    store := Some st
  in
  let run_cycle tracer =
    let st = the_store () in
    let lat = Array.make n 0 in
    let failed = ref 0 and mismatched = ref 0 in
    let best = Hashtbl.create 16 in
    let s0 = Store.stats st in
    let wr0 = Timing.wave_reuse_stats () in
    let w0 = Gc.minor_words () in
    let t0 = now_ns () in
    with_span "replay.pass"
      ~fields:(fun () -> [ ("points", Json.Int n) ])
      (fun () ->
        Array.iteri
          (fun i ((spec : Op_spec.t), p, _) ->
            let t_op = now_ns () in
            let sess = Session.create ~hw ~store:st () in
            let r =
              match Session.timing sess p spec with
              | r -> Some r
              | exception _ -> None
            in
            let dt = now_ns () - t_op in
            lat.(i) <- dt;
            (match tracer with
             | Some tr ->
               let hit = (Session.stats sess).Session.hits > 0 in
               let hex = Fingerprint.to_hex (record_call tr ~hit dt ~extra:0 p spec) in
               let bytes, read_ns = shadow tr (fun () -> Store.read st ~ns:"compile" hex) in
               let _, parse_ns =
                 shadow tr (fun () -> Option.map Artifact.of_string bytes)
               in
               tr.store_reads <- tr.store_reads + 1;
               tr.read_ns <- tr.read_ns + read_ns;
               tr.parse_ns <- tr.parse_ns + parse_ns
             | None -> ());
            match r with
            | None -> incr failed
            | Some r ->
              if not (same_answer r !cold.(i)) then incr mismatched;
              (match r with
               | Ok t ->
                 let c = t.Session.latency_cycles in
                 (match Hashtbl.find_opt best spec.Op_spec.name with
                  | Some b when b <= c -> ()
                  | _ -> Hashtbl.replace best spec.Op_spec.name c)
               | Error _ -> ()))
          points);
    let wall_ns = now_ns () - t0 in
    let words = Gc.minor_words () -. w0 in
    let wr_hits, wr_misses = wave_reuse_delta wr0 in
    let s1 = Store.stats st in
    let hits = s1.Store.hits - s0.Store.hits in
    (* every op must be served by the store: an op the store did not
       answer was compiled *)
    let unserved = n - hits in
    if !mismatched > 0 then
      Printf.printf "check: %d replayed answers differ from the cold fill\n" !mismatched;
    if unserved > 0 then
      Printf.printf "check: %d ops were not served by the store\n" unserved;
    let bests = Hashtbl.fold (fun _ c acc -> c :: acc) best [] in
    { ops = n; attempted = n; failed = !failed + !mismatched + max 0 unserved; wall_ns; lat;
      words;
      counts =
        [ ("ops", string_of_int n);
          ("store.hits", string_of_int hits);
          ("store.misses", string_of_int (s1.Store.misses - s0.Store.misses));
          ("store.writes", string_of_int (s1.Store.writes - s0.Store.writes));
          ("store.corrupt", string_of_int (s1.Store.corrupt - s0.Store.corrupt));
          ("store.errors", string_of_int (s1.Store.errors - s0.Store.errors));
          ("timing.wave_reuse_hits", string_of_int wr_hits);
          ("timing.wave_reuse_misses", string_of_int wr_misses);
          ("best_cycles_geomean", exact_float (Experiments.geomean bests)) ];
      best_geomean = Experiments.geomean bests }
  in
  (* The write side, timed on the replay entries rewritten into a scratch
     root (the read side is shadow-timed in the traced cycles). *)
  let store_layer () =
    let st = the_store () in
    let entries =
      Array.map
        (fun (spec, p, extra) ->
          let key =
            Fingerprint.to_hex
              (Fingerprint.compile_key ~hw ~extra_regs_per_thread:extra p spec)
          in
          (key, Option.value ~default:"" (Store.read st ~ns:"compile" key)))
        points
    in
    let scratch = Store.create ~root:(Filename.concat run_dir "write") () in
    let t0 = now_ns () in
    Array.iter (fun (key, bytes) -> Store.write scratch ~ns:"compile" key bytes) entries;
    let write_us = us_of_ns (now_ns () - t0) /. float_of_int n in
    let _, disk_bytes = Store.usage st in
    [ ("store.write_us", write_us); ("store.bytes", float_of_int disk_bytes) ]
  in
  { drawn = Printf.sprintf "%s (%d sampled ALCOP points each)" (op_names suite)
      points_per_operator;
    setup_reps = 2;
    reset;
    prepare;
    run_cycle;
    best_of = 1;
    chunk = n;
    cycles_alike = true;
    model_points = points;
    configs =
      (fun () ->
        Array.to_list (Array.map (fun ((s : Op_spec.t), p, _) -> (s.Op_spec.kind, p)) points));
    check = (fun () -> 0);
    store_layer }

(* -- tune: `alcop tune` with ALCOP's tuner, one job per Fig. 10
   operator in seeded order, each with its own seeded tuner seed.
   One op is one [Tuner.run] with [Analytical_xgb] at the CLI default
   budget through a fresh in-memory session with no store. The output
   checks look at the jobs of the first cycle. *)

let tune_budget = 20

let tune rng =
  let order = shuffle rng suite in
  let seeds = Array.map (fun _ -> Random.State.int rng 1_000_000) order in
  let spaces = ref [||] in
  let results = ref [||] in
  let prepare () =
    spaces := Array.map (fun spec -> Variants.space Variants.alcop spec) order
  in
  let run_cycle tracer =
    let n = Array.length order in
    let lat = Array.make n 0 in
    let failed = ref 0 in
    let session_hits = ref 0 and session_misses = ref 0 and evictions = ref 0 in
    let trials = ref 0 and trials_failed = ref 0 in
    let res = Array.make n None in
    let wr0 = Timing.wave_reuse_stats () in
    let words = ref 0.0 and wall_ns = ref 0 in
    Array.iteri
      (fun j (spec : Op_spec.t) ->
        Timing.wave_cache_clear ();
        let w0 = Gc.minor_words () in
        let shadow0 = shadow_total tracer in
        let t0 = now_ns () in
        let r =
          with_span "tune.job"
            ~fields:(fun _ ->
              [ ("op", Json.Str spec.Op_spec.name); ("seed", Json.Int seeds.(j)) ])
            (fun () ->
              let session = Session.create ~hw () in
              let evaluate = Variants.evaluator ~hw ~session Variants.alcop spec in
              let evaluate =
                match tracer with
                | None -> evaluate
                | Some _ ->
                  fun p -> fst (session_call tracer session ~extra:0 p spec (fun () -> evaluate p))
              in
              let r =
                match
                  Tuner.run ~hw ~spec ~space:!spaces.(j) ~evaluate ~budget:tune_budget
                    ~seed:seeds.(j) Tuner.Analytical_xgb
                with
                | r -> Some r
                | exception _ -> None
              in
              let st = Session.stats session in
              session_hits := !session_hits + st.Session.hits;
              session_misses := !session_misses + st.Session.misses;
              evictions := !evictions + st.Session.evictions;
              r)
        in
        let raw = now_ns () - t0 in
        lat.(j) <- raw - (shadow_total tracer - shadow0);
        wall_ns := !wall_ns + raw;
        words := !words +. (Gc.minor_words () -. w0);
        res.(j) <- r;
        match r with
        | None -> incr failed
        | Some r ->
          let t = Array.length r.Tuner.trials in
          let f =
            Array.fold_left
              (fun acc (t : Tuner.trial) -> if t.Tuner.cost = None then acc + 1 else acc)
              0 r.Tuner.trials
          in
          trials := !trials + t;
          trials_failed := !trials_failed + f;
          (match Tuner.best r with Some _ -> () | None -> incr failed))
      order;
    let wr_hits, wr_misses = wave_reuse_delta wr0 in
    if !results = [||] then results := res;
    let bests =
      Array.to_list res
      |> List.filter_map (fun r -> Option.bind r Tuner.best)
    in
    { ops = n; attempted = n; failed = !failed; wall_ns = !wall_ns; lat; words = !words;
      counts =
        [ ("ops", string_of_int n);
          ("tune.trials", string_of_int !trials);
          ("tune.trials_failed", string_of_int !trials_failed);
          ("session.hits", string_of_int !session_hits);
          ("session.misses", string_of_int !session_misses);
          ("session.evictions", string_of_int !evictions);
          ("timing.wave_reuse_hits", string_of_int wr_hits);
          ("timing.wave_reuse_misses", string_of_int wr_misses);
          ("best_cycles_geomean", exact_float (Experiments.geomean bests)) ];
      best_geomean = Experiments.geomean bests }
  in
  (* Each job must measure min(budget, space) distinct points, and every
     trial's cost must equal a cold compile of the same point through a
     pass-through session: the memo and tuner plumbing are not trusted. *)
  let check () =
    let cold = Session.create ~hw ~cache:false () in
    let bad = ref 0 in
    Array.iteri
      (fun j r ->
        match r with
        | None -> ()
        | Some (r : Tuner.result) ->
          let spec = order.(j) in
          let expected = min tune_budget r.Tuner.space_size in
          let distinct = Hashtbl.create 32 in
          Array.iter
            (fun (t : Tuner.trial) -> Hashtbl.replace distinct t.Tuner.index ())
            r.Tuner.trials;
          let trials = Array.length r.Tuner.trials in
          if trials <> expected || Hashtbl.length distinct <> expected then begin
            Printf.printf "check: %s: %d trials, %d distinct, expected %d\n"
              spec.Op_spec.name trials (Hashtbl.length distinct) expected;
            incr bad
          end;
          Array.iter
            (fun (t : Tuner.trial) ->
              let again = Session.evaluate cold t.Tuner.params spec in
              let same =
                match again, t.Tuner.cost with
                | Some a, Some b -> Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)
                | None, None -> true
                | _ -> false
              in
              if not same then begin
                Printf.printf "check: %s: trial %s disagrees with a cold compile\n"
                  spec.Op_spec.name (Params.to_string t.Tuner.params);
                incr bad
              end)
            r.Tuner.trials)
      !results;
    !bad
  in
  let all_points =
    Array.concat
      (Array.to_list
         (Array.map
            (fun spec -> Array.map (fun p -> (spec, p, 0)) (Variants.space Variants.alcop spec))
            order))
  in
  { drawn =
      String.concat " "
        (Array.to_list
           (Array.mapi (fun j s -> Printf.sprintf "%s/seed=%d" s.Op_spec.name seeds.(j)) order));
    setup_reps = 15;
    reset = (fun () -> spaces := [||]);
    prepare;
    run_cycle;
    (* A cycle is 11 jobs of ~2.5 s; a slow stretch of the machine covers
       several of them, so each job runs twice and counts its faster run. *)
    best_of = 2;
    chunk = 1;
    cycles_alike = false;
    model_points = sample rng 2000 all_points;
    configs =
      (fun () ->
        Array.to_list !results
        |> List.mapi (fun j r -> (j, r))
        |> List.concat_map (fun (j, r) ->
               match r with
               | None -> []
               | Some (r : Tuner.result) ->
                 Array.to_list
                   (Array.map (fun (t : Tuner.trial) -> (order.(j).Op_spec.kind, t.Tuner.params))
                      r.Tuner.trials)));
    check;
    store_layer = (fun () -> []) }

(* ------------------------------------------------------------------ *)
(* Functional verification that does not trust the timing simulator:
   a seeded sample of the pipeline configurations the run visited
   (stage counts, pipelining levels, split-K), each compiled fused and
   unfused on a small instance of the same operator kind and executed in
   the strict interpreter against the host reference GEMM. *)

let small_instance (kind : Op_spec.kind) =
  match kind with
  | Op_spec.Matmul -> Op_spec.matmul ~name:"verify_mm" ~m:64 ~n:64 ~k:128 ()
  | Op_spec.Batched_matmul ->
    Op_spec.batched_matmul ~name:"verify_bmm" ~batch:2 ~m:32 ~n:64 ~k:128 ()
  | Op_spec.Conv2d _ ->
    Op_spec.conv2d ~name:"verify_conv"
      { Op_spec.cn = 2; ci = 64; ch = 4; cw = 4; co = 32; ckh = 3; ckw = 3;
        stride = 1; pad = 1 }

let kind_tag = function
  | Op_spec.Matmul -> "mm"
  | Op_spec.Batched_matmul -> "bmm"
  | Op_spec.Conv2d _ -> "conv"

let verify_sample = 4

let verify_configs rng visited =
  let distinct = Hashtbl.create 64 in
  List.iter
    (fun (kind, (p : Params.t)) ->
      let key =
        (kind_tag kind, p.Params.smem_stages, p.Params.reg_stages,
         p.Params.tiling.Tiling.split_k)
      in
      if not (Hashtbl.mem distinct key) then Hashtbl.replace distinct key kind)
    visited;
  let keys =
    List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) distinct [])
  in
  let picked = sample rng verify_sample (Array.of_list keys) in
  let checked = ref 0 and skipped = ref 0 and mismatched = ref 0 in
  Array.iter
    (fun ((tag, smem_stages, reg_stages, split_k) as key) ->
      let spec = small_instance (Hashtbl.find distinct key) in
      List.iter
        (fun inner_fuse ->
          let tiling =
            Tiling.make ~split_k ~tb_m:32 ~tb_n:32 ~tb_k:16 ~warp_m:16 ~warp_n:16
              ~warp_k:16 ()
          in
          let p = Params.make ~inner_fuse ~tiling ~smem_stages ~reg_stages () in
          match Compiler.compile ~hw p spec with
          | Error _ -> incr skipped
          | Ok c ->
            incr checked;
            (match Compiler.verify c with
             | Ok _ -> ()
             | Error diff ->
               incr mismatched;
               Printf.printf
                 "check: verify %s smem=%d reg=%d split=%d fuse=%b: max error %g\n"
                 tag smem_stages reg_stages split_k inner_fuse diff))
        [ true; false ])
    picked;
  (!checked, !skipped, !mismatched)

(* ------------------------------------------------------------------ *)
(* Determinism record: the first cycle's exact counts per (workload,
   seed, executable), compared against the previous run's. *)

let read_record path =
  match open_in path with
  | exception Sys_error _ -> []
  | ic ->
    let rec go acc =
      match input_line ic with
      | line ->
        (match String.index_opt line '\t' with
         | Some i ->
           go ((String.sub line 0 i,
                String.sub line (i + 1) (String.length line - i - 1)) :: acc)
         | None -> go acc)
      | exception End_of_file -> close_in ic; List.rev acc
    in
    go []

let write_record path entries =
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  List.iter (fun (k, v) -> Printf.fprintf oc "%s\t%s\n" k v) entries;
  close_out oc;
  Sys.rename tmp path

let determinism_check ~path counts =
  let previous = read_record path in
  let mismatches =
    List.filter_map
      (fun (k, v) ->
        match List.assoc_opt k previous with
        | Some v' when not (String.equal v v') -> Some (k, v', v)
        | _ -> None)
      counts
  in
  List.iter
    (fun (k, old, now) ->
      Printf.printf "determinism: %s was %s in a previous run at this seed, now %s\n" k old now)
    mismatches;
  let merged =
    counts @ List.filter (fun (k, _) -> not (List.mem_assoc k counts)) previous
  in
  write_record path merged;
  (List.length previous > 0, List.length mismatches)

(* ------------------------------------------------------------------ *)
(* Output *)

let peak_rss_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> nan
  | ic ->
    let rec go () =
      match input_line ic with
      | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" (fun kb ->
            float_of_int kb /. 1024.)
      | _ -> go ()
      | exception End_of_file -> nan
    in
    let r = go () in
    close_in ic;
    r

let metrics : (string * float * string) list ref = ref []
let metric name unit value = metrics := (name, value, unit) :: !metrics

let write_trace path =
  let sink = Alcop_obs.Sinks.jsonl_file path in
  let ts ns = float_of_int ns /. 1e9 in
  let last = ref 0 in
  List.iter
    (fun sp ->
      last := max !last (sp.sp_start_ns + sp.sp_dur_ns);
      sink.Obs.emit
        (Obs.Span_end
           { name = sp.sp_name; ts = ts sp.sp_start_ns; dur = s_of_ns sp.sp_dur_ns;
             depth = sp.sp_depth; fields = sp.sp_fields }))
    (List.rev !spans);
  let at = ts !last in
  List.iter
    (fun (name, value, _) ->
      sink.Obs.emit (Obs.Gauge { name = "perfbench." ^ name; value; ts = at }))
    (List.rev !metrics);
  sink.Obs.close ()

(* ------------------------------------------------------------------ *)
(* Main *)

let pass_names = Passman.names
let fail_kinds = [ "schedule"; "lowering"; "legality"; "launch" ]

(* Mean cost of [f] over the points, median of three repetitions. *)
let micro_us points f =
  let n = Array.length points in
  if n = 0 then 0.0
  else
    Benchdb.median
      (List.init 3 (fun _ ->
           let t0 = now_ns () in
           Array.iter f points;
           us_of_ns (now_ns () - t0) /. float_of_int n))

(* The ops a run's figures are taken over. The machine this runs on
   switches between a fast state and one 20-40% slower for seconds at a
   time, so a figure over every op of a run moves with the share of slow
   time in it. Where a run is many identical cycles (warm-replay, ~25 ms
   each), its figures are taken over the fastest twentieth of its windows
   (whole cycles merged to at least [min_window_ops] ops), which reads
   the same whenever a twentieth of the run falls in the fast state. Where a
   cycle is long (fig10-sweep, tune), the cycle runs [best_of] times
   instead and the figures are taken over every op of the combined run. *)
let min_window_ops = 1000
let fast_share = 0.05

let measured_lat ~alike cs =
  if not alike then Array.concat (List.map (fun c -> c.lat) cs)
  else begin
    let windows =
      List.fold_left
        (fun acc c ->
          match acc with
          | w :: rest when Array.length w < min_window_ops -> Array.append w c.lat :: rest
          | _ -> c.lat :: acc)
        [] cs
    in
    let windows =
      match windows with
      | w :: prev :: rest when Array.length w < min_window_ops -> Array.append prev w :: rest
      | ws -> ws
    in
    let per_op w = float_of_int (Array.fold_left ( + ) 0 w) /. float_of_int (Array.length w) in
    let fastest = List.sort (fun a b -> compare (per_op a) (per_op b)) windows in
    let k = max 1 (int_of_float (fast_share *. float_of_int (List.length windows))) in
    Array.concat (List.filteri (fun i _ -> i < k) fastest)
  end

let percentile_us q lat =
  Benchdb.percentile q (Array.to_list (Array.map float_of_int lat)) /. 1e3

let rate lat = float_of_int (Array.length lat) /. s_of_ns (Array.fold_left ( + ) 0 lat)

(* Runs of one cycle combined chunk by chunk: each chunk of [chunk]
   consecutive ops keeps the latencies of its fastest run, so the chunk
   still carries the collections and cache misses its ops cause. Every
   cycle does identical work, so the runs must agree on every exact
   count; a run that does not counts as a failed op. *)
let best_of_runs ~chunk = function
  | [] -> invalid_arg "best_of_runs"
  | first :: rest as cs ->
    let lat = Array.copy first.lat in
    let n = Array.length lat in
    let span a off len =
      let s = ref 0 in
      for i = off to off + len - 1 do s := !s + a.(i) done;
      !s
    in
    List.iter
      (fun c ->
        let off = ref 0 in
        while !off < n do
          let len = min chunk (n - !off) in
          if span c.lat !off len < span lat !off len then Array.blit c.lat !off lat !off len;
          off := !off + len
        done)
      rest;
    let differ = List.length (List.filter (fun c -> c.counts <> first.counts) rest) in
    if differ > 0 then
      Printf.printf "check: %d repeated run(s) of a cycle differ in their counts\n" differ;
    let sum f = List.fold_left (fun acc c -> acc + f c) 0 cs in
    { first with
      lat;
      attempted = sum (fun c -> c.attempted);
      failed = sum (fun c -> c.failed) + differ;
      wall_ns = sum (fun c -> c.wall_ns) }

(* Totals over cycles; integer counts are summed. *)
let sum_cycles = function
  | [] -> invalid_arg "sum_cycles"
  | first :: _ as cs ->
    let sum f = List.fold_left (fun acc c -> acc + f c) 0 cs in
    let add_count (k, _) =
      match List.map (fun c -> int_of_string (List.assoc k c.counts)) cs with
      | vs -> Some (k, string_of_int (List.fold_left ( + ) 0 vs))
      | exception _ -> None
    in
    { ops = sum (fun c -> c.ops); attempted = sum (fun c -> c.attempted);
      failed = sum (fun c -> c.failed);
      wall_ns = sum (fun c -> c.wall_ns);
      lat = Array.concat (List.map (fun c -> c.lat) cs);
      words = List.fold_left (fun acc c -> acc +. c.words) 0.0 cs;
      counts = List.filter_map add_count first.counts;
      best_geomean = first.best_geomean }

let usage = "perfbench --workload fig10-sweep|warm-replay|tune --seed N --seconds S --trace 0|1"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 15.0 and trace = ref 0 in
  let out_dir = ref (Filename.concat "perfbench" "out") in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "fig10-sweep | warm-replay | tune");
      ("--seed", Arg.Set_int seed, "input seed");
      ("--seconds", Arg.Set_float seconds, "measured time per run");
      ("--trace", Arg.Set_int trace, "0: end-to-end metrics; 1: per-layer metrics");
      ("--out", Arg.Set_string out_dir, "directory for traces, stores and records") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if !trace <> 0 && !trace <> 1 then (prerr_endline usage; exit 2);
  mkdir_p !out_dir;
  let rng = Random.State.make [| !seed; 0x5eed |] in
  let bench =
    match !workload with
    | "fig10-sweep" -> fig10_sweep rng
    | "warm-replay" -> warm_replay rng ~out_dir:!out_dir
    | "tune" -> tune rng
    | w ->
      Printf.eprintf "unknown workload %S\n%s\n" w usage;
      exit 2
  in
  let traced = !trace = 1 in
  Printf.printf "workload %s, seed %d, %s run\n" !workload !seed
    (if traced then "traced" else "untraced");
  Printf.printf "drawn: %s\n%!" bench.drawn;
  (* Set-up: the workload's own preparation only, timed in-process with a
     monotonic clock, [setup_reps] times before measurement (the last
     one's state is measured) and as many times after it, so the samples
     span the run rather than one moment of the machine's speed. *)
  let setups () =
    List.init bench.setup_reps (fun _ ->
        bench.reset ();
        let t0 = now_ns () in
        bench.prepare ();
        s_of_ns (now_ns () - t0))
  in
  let setups_before = setups () in
  (* Closed loop: whole cycles until the measured time is spent. A traced
     run spends half of it untraced, for the overhead baseline, and runs
     each cycle once in both halves. *)
  let run_cycles ?(best_of = 1) tracer budget_s =
    let rec go acc elapsed =
      if acc <> [] && s_of_ns elapsed >= budget_s then List.rev acc
      else
        (* Repeated runs of a long cycle each start from a fully collected
           heap, so they do the same collection work. *)
        let run () =
          if best_of > 1 then Gc.compact ();
          bench.run_cycle tracer
        in
        let c = best_of_runs ~chunk:bench.chunk (List.init best_of (fun _ -> run ())) in
        go (c :: acc) (elapsed + c.wall_ns)
    in
    go [] 0
  in
  let cycles =
    if traced then run_cycles None (!seconds /. 2.0)
    else run_cycles ~best_of:bench.best_of None !seconds
  in
  let first = List.hd cycles in
  let total = sum_cycles cycles in
  let peak_rss = peak_rss_mb () in
  let measured = measured_lat ~alike:bench.cycles_alike cycles in
  let traced_info =
    if not traced then None
    else begin
      let tr = new_tracer () in
      Obs.set_clock (fun () -> float_of_int (now_ns ()) /. 1e9);
      Obs.add_sink (capture_sink ());
      tracing := true;
      Hostprof.start ();
      let cs =
        with_span "perfbench.traced" (fun () -> run_cycles (Some tr) (!seconds /. 2.0))
      in
      let profile = Hostprof.stop () in
      tracing := false;
      let n = float_of_int (List.length cs) in
      let counter name = float_of_int (Obs.counter_value name) in
      let hist name =
        match Obs.histogram_value name with
        | Some h -> (h.Obs.h_sum, float_of_int h.Obs.h_count)
        | None -> (0.0, 0.0)
      in
      let passes =
        List.map
          (fun name ->
            let sum, count = hist ("pass." ^ name ^ ".ms") in
            let words =
              match
                List.find_opt (fun pa -> String.equal pa.Hostprof.p_pass name)
                  profile.Hostprof.p_passes
              with
              | Some pa when pa.Hostprof.p_runs > 0 ->
                pa.Hostprof.pa_minor_words /. float_of_int pa.Hostprof.p_runs
              | _ -> 0.0
            in
            (name, sum, count, words))
          pass_names
      in
      let compile_counts =
        ("compile.ok", counter "compile.ok")
        :: List.map (fun k -> ("compile.fail." ^ k, counter ("compile.fail." ^ k))) fail_kinds
      in
      Obs.reset ();
      (* per traced cycle, for the determinism record *)
      let per_cycle =
        List.map (fun (k, v) -> (k, v /. n)) compile_counts
        @ List.map (fun (name, _, count, _) -> ("pass." ^ name ^ ".runs", count /. n)) passes
      in
      let traced_rate = rate (measured_lat ~alike:bench.cycles_alike cs) in
      Some (tr, sum_cycles cs, traced_rate, passes, compile_counts, per_cycle)
    end
  in
  (* Output checks, outside every timed window. *)
  let check_failed = bench.check () in
  let verify_rng = Random.State.make [| !seed; 0xc4ec |] in
  let checked, skipped, verify_failed = verify_configs verify_rng (bench.configs ()) in
  Printf.printf
    "verify: %d configurations executed against the reference, %d not \
     compilable at the small shape, %d mismatched\n"
    checked skipped verify_failed;
  (* Determinism self-check on the first (untraced) cycle's exact counts. *)
  let exe_digest = String.sub (Digest.to_hex (Digest.file Sys.executable_name)) 0 12 in
  let record_path =
    Filename.concat !out_dir
      (Printf.sprintf "determinism-%s-seed%d-%s.tsv" !workload !seed exe_digest)
  in
  let counts =
    first.counts
    @ [ ("minor_words_per_op", exact_float (first.words /. float_of_int first.ops)) ]
  in
  let counts =
    match traced_info with
    | None -> counts
    | Some (_, _, _, _, _, per_cycle) ->
      counts @ List.map (fun (k, v) -> ("traced." ^ k, exact_float v)) per_cycle
  in
  let had_record, mismatches = determinism_check ~path:record_path counts in
  Printf.printf "determinism: %d exact counts %s\n" (List.length counts)
    (if not had_record then "recorded (first run at this seed)"
     else if mismatches = 0 then "repeat the previous run at this seed"
     else Printf.sprintf "checked, %d differ" mismatches);
  let attempted =
    total.attempted + (match traced_info with Some (_, c, _, _, _, _) -> c.attempted | None -> 0)
  in
  let failed =
    total.failed + check_failed + verify_failed
    + (match traced_info with Some (_, c, _, _, _, _) -> c.failed | None -> 0)
  in
  (match traced_info with
   | None ->
     (* after the cycles' state is dropped and the heap compacted *)
     Gc.compact ();
     let setups = setups_before @ setups () in
     metric "setup_s" "s" (Benchdb.median setups);
     metric "ops_per_s" "1/s" (rate measured);
     metric "op_latency_p50_us" "us" (percentile_us 0.50 measured);
     metric "op_latency_p99_us" "us" (percentile_us 0.99 measured);
     metric "peak_rss_mb" "MB" peak_rss;
     metric "minor_words_per_op" "words" (first.words /. float_of_int first.ops);
     metric "ok_op_share" "share"
       (1.0 -. (float_of_int failed /. float_of_int (max 1 attempted)));
     Printf.printf "failed_op_share %g (%d of %d ops failed)\n"
       (float_of_int failed /. float_of_int (max 1 attempted)) failed attempted;
     metric "best_cycles_geomean" "cycles" first.best_geomean;
     Printf.printf
       "measured %d ops (%d executions) in %d cycle(s), %.3f s; %d set-up samples: %s s\n"
       total.ops total.attempted (List.length cycles) (s_of_ns total.wall_ns)
       (List.length setups)
       (String.concat ", " (List.map (Printf.sprintf "%.4f") setups))
   | Some (tr, c, traced_rate, passes, compile_counts, _) ->
     let wall = s_of_ns (c.wall_ns - tr.shadow_ns) in
     let mean ns n = if n = 0 then 0.0 else us_of_ns ns /. float_of_int n in
     let calls = tr.hits + tr.misses in
     let key_us = mean tr.fingerprint_ns calls in
     let read_us = mean tr.read_ns tr.store_reads in
     let parse_us = mean tr.parse_ns tr.store_reads in
     let predict_us =
       micro_us bench.model_points (fun (spec, p, _) ->
           ignore (Alcop_perfmodel.Model.predict_cycles hw spec p))
     in
     let store = bench.store_layer () in
     let store_metric name = Option.value ~default:0.0 (List.assoc_opt name store) in
     let count name = Option.value ~default:"0" (List.assoc_opt name c.counts) in
     let countf name = float_of_string (count name) in
     let pretrain_s = s_of_ns (span_total "tuner.pretrain") in
     let ops_s = s_of_ns (Array.fold_left ( + ) 0 c.lat) in
     let eval_s = s_of_ns (tr.hit_ns + tr.miss_ns) in
     let compile_s =
       List.fold_left (fun acc (_, sum, _, _) -> acc +. (sum /. 1e3)) 0.0 passes
     in
     let fingerprint_s = s_of_ns tr.fingerprint_ns in
     let store_s = s_of_ns (tr.read_ns + tr.parse_ns) in
     let session_s = eval_s -. compile_s -. fingerprint_s -. store_s in
     let search_s = ops_s -. eval_s -. pretrain_s in
     let untraced = rate measured in
     metric "session.hits" "count" (float_of_int tr.hits);
     metric "session.misses" "count" (float_of_int tr.misses);
     metric "session.evictions" "count" (countf "session.evictions");
     metric "session.hit_rate" "share"
       (float_of_int tr.hits /. float_of_int (max 1 (tr.hits + tr.misses)));
     metric "session.hit_us" "us" (mean tr.hit_ns tr.hits);
     metric "session.miss_us" "us" (mean tr.miss_ns tr.misses);
     metric "fingerprint.key_us" "us" key_us;
     List.iter
       (fun (name, sum, count, words) ->
         metric (Printf.sprintf "pass.%s.ms" name) "ms" sum;
         metric (Printf.sprintf "pass.%s.runs" name) "count" count;
         metric (Printf.sprintf "pass.%s.minor_words_per_run" name) "words" words)
       passes;
     List.iter (fun (k, v) -> metric k "count" v) compile_counts;
     let wr_h = countf "timing.wave_reuse_hits" and wr_m = countf "timing.wave_reuse_misses" in
     metric "timing.wave_reuse_hits" "count" wr_h;
     metric "timing.wave_reuse_misses" "count" wr_m;
     metric "timing.wave_reuse_hit_rate" "share"
       (if wr_h +. wr_m > 0.0 then wr_h /. (wr_h +. wr_m) else 0.0);
     metric "store.read_us" "us" read_us;
     metric "artifact.parse_us" "us" parse_us;
     metric "store.write_us" "us" (store_metric "store.write_us");
     metric "store.hits" "count" (countf "store.hits");
     metric "store.misses" "count" (countf "store.misses");
     metric "store.writes" "count" (countf "store.writes");
     metric "store.corrupt" "count" (countf "store.corrupt");
     metric "store.errors" "count" (countf "store.errors");
     metric "store.bytes" "bytes" (store_metric "store.bytes");
     metric "tune.pretrain_s" "s" pretrain_s;
     let trials = countf "tune.trials" in
     metric "tune.evaluate_s" "s" (if trials > 0.0 then eval_s else 0.0);
     metric "tune.search_s" "s" search_s;
     metric "tune.trials" "count" trials;
     metric "tune.trials_failed" "count" (countf "tune.trials_failed");
     metric "perfmodel.predict_us" "us" predict_us;
     metric "trace.untraced_ops_per_s" "1/s" untraced;
     metric "trace.traced_ops_per_s" "1/s" traced_rate;
     metric "trace.overhead_share" "share" (1.0 -. (traced_rate /. untraced));
     metric "attr.wall_s" "s" wall;
     metric "attr.session_s" "s" session_s;
     metric "attr.fingerprint_s" "s" fingerprint_s;
     metric "attr.compile_s" "s" compile_s;
     metric "attr.store_s" "s" store_s;
     metric "attr.tune_pretrain_s" "s" pretrain_s;
     metric "attr.tune_search_s" "s" search_s;
     metric "attr.unattributed_s" "s" (wall -. ops_s);
     metric "verify.checked" "count" (float_of_int checked);
     metric "verify.skipped" "count" (float_of_int skipped);
     metric "determinism.mismatches" "count" (float_of_int mismatches);
     let path =
       Filename.concat !out_dir
         (Printf.sprintf "trace-%s-seed%d.jsonl" !workload !seed)
     in
     write_trace path;
     Printf.printf
       "traced cycles: %.3f s wall = session %.3f + fingerprint %.3f + compile \
        %.3f + store %.3f + tune.pretrain %.3f + tune.search %.3f + \
        unattributed %.3f\n"
       wall session_s fingerprint_s compile_s store_s pretrain_s search_s (wall -. ops_s);
     Printf.printf "trace written to %s\n" path);
  let metrics = List.rev !metrics in
  let finite = List.for_all (fun (_, v, _) -> Float.is_finite v) metrics in
  List.iter (fun (name, v, unit) -> Printf.printf "metric %-40s %.6g %s\n" name v unit) metrics;
  let correct = failed = 0 && mismatches = 0 && finite in
  let json =
    Json.Obj
      [ ("correct", Json.Bool correct);
        ("attempted", Json.Int attempted);
        ("failed", Json.Int failed);
        ("metrics",
         Json.Obj
           (List.map
              (fun (name, v, unit) ->
                ( name,
                  Json.Obj
                    [ ("value", Json.Float (if Float.is_finite v then v else 0.0));
                      ("unit", Json.Str unit) ] ))
              metrics)) ]
  in
  print_endline (Json.to_string json)
