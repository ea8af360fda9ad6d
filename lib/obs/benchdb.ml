(* The continuous performance observatory. Three layers:

     1. robust statistics over repeated runs (median/MAD/min/p90 — means
        and standard deviations are hopeless on shared machines where the
        noise is one-sided: interruptions only ever make a run slower);
     2. schema alcop-selfbench-v2 records carrying a machine/environment
        fingerprint, appended one JSONL line at a time to a per-machine
        history stream (atomic single-write appends, corruption-tolerant
        counted-skip reads, mirroring Trace_reader);
     3. a sliding median-shift change-point detector over each
        benchmark's ops/sec series, tested against a MAD-derived noise
        floor, feeding `bench trend [--strict]` and the trend charts.

   Kept free of compiler dependencies on purpose: everything here works
   on any record stream, so tests drive it with synthetic histories. *)

(* --- robust statistics --- *)

type stats = {
  s_runs : int;
  s_median_ns : float;
  s_mad_ns : float;
  s_min_ns : float;
  s_p90_ns : float;
  s_mean_ns : float;
}

let percentile p vs =
  match List.sort compare vs with
  | [] -> 0.0
  | sorted ->
    let a = Array.of_list sorted in
    let n = Array.length a in
    let idx = p *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor idx) in
    let hi = min (n - 1) (lo + 1) in
    let frac = idx -. float_of_int lo in
    (a.(lo) *. (1.0 -. frac)) +. (a.(hi) *. frac)

let median vs = percentile 0.5 vs

let mad ?center vs =
  match vs with
  | [] -> 0.0
  | _ ->
    let c = match center with Some c -> c | None -> median vs in
    median (List.map (fun v -> Float.abs (v -. c)) vs)

let summarize vs =
  let n = List.length vs in
  if n = 0 then
    { s_runs = 0; s_median_ns = 0.0; s_mad_ns = 0.0; s_min_ns = 0.0;
      s_p90_ns = 0.0; s_mean_ns = 0.0 }
  else
    let m = median vs in
    { s_runs = n;
      s_median_ns = m;
      s_mad_ns = mad ~center:m vs;
      s_min_ns = List.fold_left Float.min infinity vs;
      s_p90_ns = percentile 0.9 vs;
      s_mean_ns = List.fold_left ( +. ) 0.0 vs /. float_of_int n }

let noise st = if st.s_median_ns > 0.0 then st.s_mad_ns /. st.s_median_ns else 0.0

let ops_per_sec st = if st.s_median_ns > 0.0 then 1e9 /. st.s_median_ns else 0.0

(* --- machine fingerprint --- *)

type fingerprint = {
  f_ocaml : string;
  f_os : string;
  f_cores : int;
  f_jobs : string;
  f_host_hash : string;
  f_git_rev : string;
}

let git_rev_of_cwd () =
  match Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" with
  | exception _ -> "unknown"
  | ic ->
    let line = try input_line ic with End_of_file -> "" in
    (match Unix.close_process_in ic with
     | Unix.WEXITED 0 when line <> "" -> line
     | _ | (exception _) -> "unknown")

let collect_fingerprint ?hostname ?git_rev ?jobs ?cores () =
  let hostname =
    match hostname with
    | Some h -> h
    | None -> (try Unix.gethostname () with _ -> "unknown")
  in
  { f_ocaml = Sys.ocaml_version;
    f_os = String.lowercase_ascii Sys.os_type;
    f_cores =
      (match cores with
       | Some c -> c
       | None -> Domain.recommended_domain_count ());
    f_jobs =
      (match jobs with
       | Some j -> j
       | None -> Option.value ~default:"" (Sys.getenv_opt "ALCOP_JOBS"));
    f_host_hash = String.sub (Digest.to_hex (Digest.string hostname)) 0 8;
    f_git_rev = (match git_rev with Some r -> r | None -> git_rev_of_cwd ()) }

(* File-name-safe slug; anything exotic in a version string degrades to
   '_' rather than escaping into the path. *)
let sanitize s =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '.' | '-' -> c
      | _ -> '_')
    s

(* The stream key deliberately excludes f_git_rev (changes every commit)
   and f_host_hash (CI runner hostnames change every run): either would
   shred the history into single-record files and blind the detector. *)
let fingerprint_id fp =
  Printf.sprintf "%s-ocaml%s-%dc-j%s" (sanitize fp.f_os) (sanitize fp.f_ocaml)
    fp.f_cores
    (if fp.f_jobs = "" then "auto" else sanitize fp.f_jobs)

(* --- records --- *)

type bench = {
  b_id : string;
  b_stats : stats;
  b_host : Json.t option;
}

type record = {
  r_schema : string;
  r_generated_by : string;
  r_machine : string;
  r_unit : string;
  r_ts : float option;
  r_fingerprint : fingerprint option;
  r_benches : bench list;
}

let schema_v2 = "alcop-selfbench-v2"

let make_record ?ts ?(generated_by = "bench") ~machine ~fingerprint benches =
  { r_schema = schema_v2; r_generated_by = generated_by; r_machine = machine;
    r_unit = "ops_per_sec"; r_ts = ts; r_fingerprint = Some fingerprint;
    r_benches = benches }

let fingerprint_to_json fp =
  Json.Obj
    [ ("ocaml", Json.Str fp.f_ocaml); ("os", Json.Str fp.f_os);
      ("cores", Json.Int fp.f_cores); ("jobs", Json.Str fp.f_jobs);
      ("host_hash", Json.Str fp.f_host_hash);
      ("git_rev", Json.Str fp.f_git_rev) ]

let bench_to_json b =
  let st = b.b_stats in
  Json.Obj
    ([ ("id", Json.Str b.b_id);
       ("runs", Json.Int st.s_runs);
       ("median_ns", Json.Float st.s_median_ns);
       ("mad_ns", Json.Float st.s_mad_ns);
       ("min_ns", Json.Float st.s_min_ns);
       ("p90_ns", Json.Float st.s_p90_ns);
       ("mean_ns", Json.Float st.s_mean_ns);
       ("noise", Json.Float (noise st)) ]
     @ match b.b_host with Some h -> [ ("host", h) ] | None -> [])

let record_to_json r =
  Json.Obj
    ([ ("schema", Json.Str r.r_schema);
       ("generated_by", Json.Str r.r_generated_by);
       ("machine", Json.Str r.r_machine);
       ("unit", Json.Str r.r_unit) ]
     @ (match r.r_ts with Some ts -> [ ("ts", Json.Float ts) ] | None -> [])
     @ (match r.r_fingerprint with
        | Some fp -> [ ("fingerprint", fingerprint_to_json fp) ]
        | None -> [])
     @ [ ("benchmarks", Json.List (List.map bench_to_json r.r_benches)) ])

let str_field key j =
  match Json.member key j with Some (Json.Str s) -> Some s | _ -> None

let num_field key j = Option.bind (Json.member key j) Json.number

let int_field key j =
  match Json.member key j with
  | Some (Json.Int i) -> Some i
  | Some (Json.Float f) -> Some (int_of_float f)
  | _ -> None

let fingerprint_of_json j =
  match
    (str_field "ocaml" j, str_field "os" j, int_field "cores" j,
     str_field "jobs" j, str_field "host_hash" j, str_field "git_rev" j)
  with
  | Some ocaml, Some os, Some cores, Some jobs, Some hh, Some rev ->
    Some { f_ocaml = ocaml; f_os = os; f_cores = cores; f_jobs = jobs;
           f_host_hash = hh; f_git_rev = rev }
  | _ -> None

(* Entries missing an id or a median are dropped, not errors — one alien
   entry must not invalidate a whole record. Missing spread fields
   default to a single zero-MAD sample at the median. *)
let bench_of_json j =
  match (str_field "id" j, num_field "median_ns" j) with
  | Some id, Some ns ->
    let f key default = Option.value ~default (num_field key j) in
    Some
      { b_id = id;
        b_stats =
          { s_runs = Option.value ~default:1 (int_field "runs" j);
            s_median_ns = ns;
            s_mad_ns = f "mad_ns" 0.0;
            s_min_ns = f "min_ns" ns;
            s_p90_ns = f "p90_ns" ns;
            s_mean_ns = f "mean_ns" ns };
        b_host = Json.member "host" j }
  | _ -> None

let record_of_json j =
  match str_field "schema" j with
  | Some schema when schema = schema_v2 ->
    let benches =
      match Json.member "benchmarks" j with
      | Some (Json.List bs) -> List.filter_map bench_of_json bs
      | _ -> []
    in
    Ok
      { r_schema = schema;
        r_generated_by =
          Option.value ~default:"" (str_field "generated_by" j);
        r_machine = Option.value ~default:"?" (str_field "machine" j);
        r_unit = Option.value ~default:"ops_per_sec" (str_field "unit" j);
        r_ts = num_field "ts" j;
        r_fingerprint =
          Option.bind (Json.member "fingerprint" j) fingerprint_of_json;
        r_benches = benches }
  | Some other -> Error ("unknown selfbench schema " ^ other)
  | None -> Error "not a selfbench document (no \"schema\" field)"

let read_file path =
  Result.bind (Trace_reader.json_of_file path) record_of_json

let write_file path r =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (Json.to_string (record_to_json r));
      output_char oc '\n')

(* --- history store --- *)

let default_history_dir = Filename.concat "results" "bench_history"

let rec mkdir_p dir =
  if dir = "" || dir = "." || dir = "/" || Sys.file_exists dir then ()
  else begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let history_file ~dir id = Filename.concat dir (id ^ ".jsonl")

let append ~dir r =
  let id =
    match r.r_fingerprint with
    | Some fp -> fingerprint_id fp
    | None -> "unknown"
  in
  let path = history_file ~dir id in
  match mkdir_p dir with
  | exception Unix.Unix_error (e, _, _) ->
    Error (Printf.sprintf "%s: %s" dir (Unix.error_message e))
  | () ->
    let line = Json.to_string (record_to_json r) ^ "\n" in
    (match Unix.openfile path [ Unix.O_WRONLY; Unix.O_APPEND; Unix.O_CREAT ] 0o644 with
     | exception Unix.Unix_error (e, _, _) ->
       Error (Printf.sprintf "%s: %s" path (Unix.error_message e))
     | fd ->
       Fun.protect
         ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
         (fun () ->
           (* One write call: O_APPEND makes it atomic with respect to
              other appenders, so streams never interleave partial lines.
              A short write (full disk) is reported, and the reader will
              skip the torn line rather than dying on it. *)
           let n = Unix.write_substring fd line 0 (String.length line) in
           if n = String.length line then Ok path
           else Error (Printf.sprintf "%s: short write (%d/%d bytes)" path n
                         (String.length line))))

let read_history path =
  match
    Trace_reader.fold_jsonl_file path ~init:([], 0) ~f:(fun (rs, bad) j ->
        match record_of_json j with
        | Ok r -> (r :: rs, bad)
        | Error _ -> (rs, bad + 1))
  with
  | Error _ as e -> e
  | Ok ((rs, bad), skipped) -> Ok (List.rev rs, bad + skipped)

let machines ~dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | names ->
    Array.to_list names
    |> List.filter_map (fun n ->
           if Filename.check_suffix n ".jsonl" then
             Some (Filename.chop_suffix n ".jsonl", Filename.concat dir n)
           else None)
    |> List.sort compare

(* --- trend analysis --- *)

type series_point = {
  sp_record : int;
  sp_ops : float;
  sp_noise : float;
}

let bench_ids records =
  List.fold_left
    (fun acc r ->
      List.fold_left
        (fun acc b -> if List.mem b.b_id acc then acc else b.b_id :: acc)
        acc r.r_benches)
    [] records
  |> List.rev

let series ~bench_id records =
  List.concat
    (List.mapi
       (fun i r ->
         match List.find_opt (fun b -> b.b_id = bench_id) r.r_benches with
         | None -> []
         | Some b ->
           let ops = ops_per_sec b.b_stats in
           [ { sp_record = i; sp_ops = ops;
               sp_noise = ops *. noise b.b_stats } ])
       records)

type change_point = {
  cp_index : int;
  cp_before : float;
  cp_after : float;
  cp_ratio : float;
  cp_sigma : float;
}

(* Sliding median-shift test. At each boundary i (between points i-1 and
   i) the medians of up to [window] points on either side are compared;
   the shift must clear [sensitivity] times a noise floor that is the
   max of (a) 1.4826 x the MAD of the residuals of both windows around
   their own medians (the robust sigma estimate), (b) the median of the
   points' own per-record noise (what --runs N measured), and (c)
   [min_rel] of the left level (so a detector on near-noiseless data
   still never fires below sensitivity x min_rel relative shift).
   Consecutive firing boundaries describe the same step from different
   offsets; they collapse to the best-scoring one, whose index is the
   first record after the shift. *)
let change_points ?(window = 5) ?(sensitivity = 4.0) ?(min_rel = 0.02) pts =
  let n = Array.length pts in
  if n < 2 then []
  else begin
    let slice lo hi = List.init (hi - lo) (fun k -> fst pts.(lo + k)) in
    let noises lo hi = List.init (hi - lo) (fun k -> snd pts.(lo + k)) in
    let candidates =
      List.filter_map
        (fun i ->
          let l_lo = max 0 (i - window) and r_hi = min n (i + window) in
          let left = slice l_lo i and right = slice i r_hi in
          let lm = median left and rm = median right in
          let resid =
            List.map (fun v -> Float.abs (v -. lm)) left
            @ List.map (fun v -> Float.abs (v -. rm)) right
          in
          let spread = 1.4826 *. median resid in
          let pnoise = median (noises l_lo i @ noises i r_hi) in
          let sigma =
            Float.max spread
              (Float.max pnoise (Float.max (min_rel *. Float.abs lm) 1e-300))
          in
          let shift = rm -. lm in
          if Float.abs shift > sensitivity *. sigma then
            Some
              ( i,
                Float.abs shift /. sigma,
                (* the single-step jump at the boundary: the tie-breaker
                   that pins a run of equal-score boundaries to where the
                   level actually moved *)
                Float.abs (fst pts.(i) -. fst pts.(i - 1)),
                { cp_index = i; cp_before = lm; cp_after = rm;
                  cp_ratio = (if lm > 0.0 then rm /. lm else 1.0);
                  cp_sigma = sigma } )
          else None)
        (List.init (n - 1) (fun k -> k + 1))
    in
    (* Collapse runs of consecutive firing boundaries (one real step makes
       every boundary whose windows straddle it fire) down to the best
       boundary: the one with the largest |shift|/sigma, ties broken
       toward the largest single-step jump. The run tracks the last index
       seen (for adjacency) alongside the best candidate so far. *)
    let rec collapse acc current = function
      | [] ->
        List.rev
          (match current with Some (_, _, _, cp) -> cp :: acc | None -> acc)
      | (i, score, jump, cp) :: rest ->
        (match current with
         | Some (j, bs, bj, bcp) when i = j + 1 ->
           let keep =
             if score > bs || (score = bs && jump > bj) then (i, score, jump, cp)
             else (i, bs, bj, bcp)
           in
           collapse acc (Some keep) rest
         | Some (_, _, _, bcp) ->
           collapse (bcp :: acc) (Some (i, score, jump, cp)) rest
         | None -> collapse acc (Some (i, score, jump, cp)) rest)
    in
    collapse [] None candidates
  end

type trend = {
  t_bench : string;
  t_points : series_point list;
  t_changes : change_point list;
}

let trends ?window ?sensitivity ?min_rel records =
  List.map
    (fun id ->
      let points = series ~bench_id:id records in
      let arr =
        Array.of_list (List.map (fun p -> (p.sp_ops, p.sp_noise)) points)
      in
      { t_bench = id; t_points = points;
        t_changes = change_points ?window ?sensitivity ?min_rel arr })
    (bench_ids records)

let regressions trends =
  List.concat_map
    (fun t ->
      List.filter_map
        (fun cp -> if cp.cp_ratio < 1.0 then Some (t, cp) else None)
        t.t_changes)
    trends

let iso8601 ts =
  let tm = Unix.gmtime ts in
  Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (tm.Unix.tm_year + 1900)
    (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min
    tm.Unix.tm_sec

let first_bad records cp trend =
  match List.nth_opt trend.t_points cp.cp_index with
  | None -> Printf.sprintf "record #%d" cp.cp_index
  | Some p ->
    let extras =
      match List.nth_opt records p.sp_record with
      | None -> []
      | Some r ->
        (match r.r_fingerprint with
         | Some fp when fp.f_git_rev <> "unknown" -> [ "git " ^ fp.f_git_rev ]
         | _ -> [])
        @ (match r.r_ts with Some ts -> [ iso8601 ts ] | None -> [])
    in
    (match extras with
     | [] -> Printf.sprintf "record #%d" p.sp_record
     | es -> Printf.sprintf "record #%d (%s)" p.sp_record (String.concat ", " es))

let trend_lines ~machine ~skipped records trends =
  let buf = ref [] in
  let line fmt = Printf.ksprintf (fun s -> buf := s :: !buf) fmt in
  line "machine %s: %d records%s" machine (List.length records)
    (if skipped > 0 then
       Printf.sprintf " (%d corrupt line%s skipped)" skipped
         (if skipped = 1 then "" else "s")
     else "");
  line "%-40s %8s %14s %8s  %s" "benchmark" "records" "last ops/s" "noise"
    "change-points";
  List.iter
    (fun t ->
      let last =
        match List.rev t.t_points with p :: _ -> p.sp_ops | [] -> 0.0
      in
      let last_noise =
        match List.rev t.t_points with
        | p :: _ when p.sp_ops > 0.0 -> p.sp_noise /. p.sp_ops
        | _ -> 0.0
      in
      line "%-40s %8d %14.1f %7.1f%%  %s" t.t_bench (List.length t.t_points)
        last (100.0 *. last_noise)
        (if t.t_changes = [] then "-"
         else String.concat "; "
             (List.map
                (fun cp ->
                  Printf.sprintf "%s at %s: %.1f -> %.1f ops/s (%.2fx)"
                    (if cp.cp_ratio < 1.0 then "REGRESSION" else "improvement")
                    (first_bad records cp t) cp.cp_before cp.cp_after
                    cp.cp_ratio)
                t.t_changes)))
    trends;
  let regs = regressions trends in
  (match regs with
   | [] -> line "no regressions detected"
   | _ ->
     List.iter
       (fun (t, cp) ->
         line
           "::error::bench trend regression: %s dropped to %.2fx (%.1f -> \
            %.1f ops/s, %.1f%% drop) at %s"
           t.t_bench cp.cp_ratio cp.cp_before cp.cp_after
           (100.0 *. (1.0 -. cp.cp_ratio))
           (first_bad records cp t))
       regs;
     line "%d regression%s detected" (List.length regs)
       (if List.length regs = 1 then "" else "s"));
  List.rev !buf

(* --- trend charts --- *)

let trend_chart_of t =
  let points =
    List.map (fun p -> (float_of_int p.sp_record, p.sp_ops)) t.t_points
  in
  let band =
    List.map
      (fun p ->
        ( float_of_int p.sp_record,
          Float.max 0.0 (p.sp_ops -. p.sp_noise),
          p.sp_ops +. p.sp_noise ))
      t.t_points
  in
  let marks =
    List.filter_map
      (fun cp ->
        Option.map
          (fun p -> float_of_int p.sp_record)
          (List.nth_opt t.t_points cp.cp_index))
      t.t_changes
  in
  Report.trend_chart ~y_label:"ops / second" ~x_label:"record #" ~points
    ~band ~marks ()

let change_table records trends =
  let rows =
    List.concat_map
      (fun t ->
        List.map
          (fun cp ->
            [ t.t_bench;
              first_bad records cp t;
              Printf.sprintf "%.1f" cp.cp_before;
              Printf.sprintf "%.1f" cp.cp_after;
              Printf.sprintf "%.2fx" cp.cp_ratio;
              (if cp.cp_ratio < 1.0 then "regression" else "improvement") ])
          t.t_changes)
      trends
  in
  if rows = [] then []
  else
    [ Report.table
        ~header:[ "benchmark"; "first bad"; "before"; "after"; "ratio"; "kind" ]
        ~rows ]

let trend_sections ?(max_charts = 6) ~machine records trends =
  let chartable = List.filter (fun t -> List.length t.t_points >= 2) trends in
  (* change-pointed benchmarks first, then stable ones in id order *)
  let flagged, stable = List.partition (fun t -> t.t_changes <> []) chartable in
  let ordered = flagged @ stable in
  let shown =
    List.filteri (fun i _ -> i < max_charts) ordered
  in
  let dropped = List.length ordered - List.length shown in
  let intro =
    Printf.sprintf
      "Per-benchmark ops/sec across the %d recorded runs of machine %s; \
       the shaded band is ±1 MAD of each record's repetitions, dashed \
       vertical rules mark detected change points.%s"
      (List.length records) machine
      (if dropped > 0 then
         Printf.sprintf " (%d stable benchmark%s not charted.)" dropped
           (if dropped = 1 then "" else "s")
       else "")
  in
  match shown with
  | [] ->
    [ Report.section
        ~title:(Printf.sprintf "Benchmark history — %s" machine)
        ~intro:
          "Fewer than two records in this stream: nothing to trend yet. \
           Run `dune exec bench/main.exe -- record` to grow it."
        [] ]
  | _ ->
    [ Report.section
        ~title:(Printf.sprintf "Benchmark history — %s" machine)
        ~intro
        (List.concat_map
           (fun t ->
             [ Printf.sprintf "<h3>%s</h3>" (Report.html_escape t.t_bench);
               trend_chart_of t ])
           shown
         @ change_table records trends) ]

let trend_page streams =
  Report.page ~title:"ALCOP benchmark trends"
    ~subtitle:
      "Selfbench history per machine fingerprint: medians with ±MAD noise \
       bands and change-point markers (doc/benchmarking.md)."
    (List.concat_map
       (fun (machine, records, trends) ->
         trend_sections ~machine records trends)
       streams)

(* --- selfbench comparison --- *)

type compare_result = {
  cmp_lines : string list;
  cmp_failures : int;
  cmp_only_old : string list;
  cmp_only_new : string list;
}

let host_num name h =
  match Option.bind (Json.member name h) Json.number with
  | Some v -> v
  | None -> 0.0

let host_delta_line old_host new_host =
  match (old_host, new_host) with
  | Some oh, Some nh ->
    Some
      (Printf.sprintf
         "  host: serial %.1f%% -> %.1f%% | eff-par %.2f -> %.2f | idle \
          %.0f%% -> %.0f%% | lock-wait %.1f -> %.1f ms"
         (100.0 *. host_num "serial_fraction" oh)
         (100.0 *. host_num "serial_fraction" nh)
         (host_num "effective_parallelism" oh)
         (host_num "effective_parallelism" nh)
         (100.0 *. host_num "idle_frac" oh)
         (100.0 *. host_num "idle_frac" nh)
         (host_num "lock_wait_ms" oh) (host_num "lock_wait_ms" nh))
  | Some _, None -> Some "  host: OLD carries host data, NEW does not"
  | None, Some _ -> Some "  host: NEW carries host data, OLD does not"
  | None, None -> None

let min_strict_runs = 3

let compare_records ?(strict = false) ?(tolerance = 0.20) ~old_r ~new_r () =
  let lines = ref [] in
  let out fmt = Printf.ksprintf (fun s -> lines := s :: !lines) fmt in
  let failures = ref 0 in
  let complain fmt =
    Printf.ksprintf
      (fun msg ->
        incr failures;
        out "::%s::%s" (if strict then "error" else "warning") msg)
      fmt
  in
  (* One run has no noise estimate, so it cannot tell a regression from
     noise: a strict compare refuses rows measured fewer than 3 times. *)
  if strict then
    List.iter
      (fun (side, r) ->
        List.iter
          (fun b ->
            if b.b_stats.s_runs < min_strict_runs then
              complain
                "selfbench %s row %s has %d run%s; a strict compare needs \
                 >= %d"
                side b.b_id b.b_stats.s_runs
                (if b.b_stats.s_runs = 1 then "" else "s")
                min_strict_runs)
          r.r_benches)
      [ ("OLD", old_r); ("NEW", new_r) ];
  let old_ids = List.map (fun b -> b.b_id) old_r.r_benches in
  let new_ids = List.map (fun b -> b.b_id) new_r.r_benches in
  let only_old = List.filter (fun id -> not (List.mem id new_ids)) old_ids in
  let only_new = List.filter (fun id -> not (List.mem id old_ids)) new_ids in
  out "%-40s %14s %14s %9s" "benchmark" "old ops/s" "new ops/s" "ratio";
  List.iter
    (fun nb ->
      let new_ops = ops_per_sec nb.b_stats in
      match List.find_opt (fun ob -> ob.b_id = nb.b_id) old_r.r_benches with
      | None ->
        out "%-40s %14s %14.1f %9s  (only in NEW)" nb.b_id "-" new_ops "-"
      | Some ob ->
        let old_ops = ops_per_sec ob.b_stats in
        let ratio = if old_ops > 0.0 then new_ops /. old_ops else 1.0 in
        out "%-40s %14.1f %14.1f %8.2fx" nb.b_id old_ops new_ops ratio;
        (match host_delta_line ob.b_host nb.b_host with
         | Some l -> out "%s" l
         | None -> ());
        if ratio < 1.0 -. tolerance then
          complain
            "selfbench regression: %s at %.2fx of baseline (%.1f -> %.1f \
             ops/s, tolerance %.0f%%)"
            nb.b_id ratio old_ops new_ops (100.0 *. tolerance))
    new_r.r_benches;
  List.iter
    (fun ob ->
      if List.mem ob.b_id only_old then begin
        out "%-40s %14.1f %14s %9s  (only in OLD)" ob.b_id
          (ops_per_sec ob.b_stats) "-" "-";
        complain "selfbench benchmark disappeared: %s (only in OLD)" ob.b_id
      end)
    old_r.r_benches;
  { cmp_lines = List.rev !lines; cmp_failures = !failures;
    cmp_only_old = only_old; cmp_only_new = only_new }
