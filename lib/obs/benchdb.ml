(* Selfbench records and their comparison. Two layers:

     1. robust statistics over repeated runs (median/MAD/min/p90 — means
        and standard deviations are hopeless on shared machines where the
        noise is one-sided: interruptions only ever make a run slower);
     2. schema alcop-selfbench-v2 records carrying a machine/environment
        fingerprint, read and written as one whole-file document and
        diffed row by row by `bench compare [--strict]`.

   Kept free of compiler dependencies on purpose: everything here works
   on any record, so tests drive it with synthetic ones. *)

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

(* --- records --- *)

type bench = {
  b_id : string;
  b_stats : stats;
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
    [ ("id", Json.Str b.b_id);
      ("runs", Json.Int st.s_runs);
      ("median_ns", Json.Float st.s_median_ns);
      ("mad_ns", Json.Float st.s_mad_ns);
      ("min_ns", Json.Float st.s_min_ns);
      ("p90_ns", Json.Float st.s_p90_ns);
      ("mean_ns", Json.Float st.s_mean_ns);
      ("noise", Json.Float (noise st)) ]

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
   default to a single zero-MAD sample at the median; unknown members
   (such as the [host] object older records carry) are ignored. *)
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
            s_mean_ns = f "mean_ns" ns } }
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

(* --- selfbench comparison --- *)

type compare_result = {
  cmp_lines : string list;
  cmp_failures : int;
  cmp_only_old : string list;
  cmp_only_new : string list;
}

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
