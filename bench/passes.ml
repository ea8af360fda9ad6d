(* Per-pass cost of a cold compile, over the distinct Fig. 10 keys.

     dune exec bench/main.exe -- passes [OP...] [--rounds N]

   A key is one (operator, schedule point, register cost) that the Fig. 10
   protocol evaluates: every point of every variant space of the Fig. 10
   operators (or only of the named ones), duplicates dropped, in
   enumeration order, so the stage-count siblings of a tiling are
   adjacent. Each round compiles every key twice, untraced, on one
   domain:
   - pass by pass, in the order of [Compiler.compile] (schedule, launch
     check, lower, pipelining analysis, transform, validation of the
     pipelined kernel, trace extraction, timing simulation), reading the
     minor-word counter and a monotonic clock around each pass; schedule
     and lower are [Compiler.schedule_point] and [Compiler.lower_point],
     the slot-aware steps [Compiler.compile] runs;
   - whole, through [Compiler.compile].
   All keys go pass by pass first, then all whole, so both sides meet the
   keys in the same order and the lowering slot in the same state: each
   side lowers a tiling's first sibling and reuses that for the rest.
   The [rest] row is the whole compile minus the passes: the glue between
   them (pass manager, result records, the timing request, the latency
   sum). So the words of the pass rows and [rest] sum exactly to those of
   [Compiler.compile] over the same keys; the last line states the sum.

   One unmeasured round of whole compiles runs first (one-time lazies and
   grow-only scratch). With [--rounds N] the two measurements alternate N
   times; time is the median over rounds, and the words, exact, must be
   the same in every round. The pass-by-pass compile must reach the same
   outcome as [Compiler.compile] for every key (the failing phase, or the
   simulated cycles), and [rest] must lie between 0 and [rest_ceiling]
   words per key; a mismatch, a round whose words differ or a [rest] out
   of range exits 1. *)

open Alcop
module Params = Alcop_perfmodel.Params
module Op_spec = Alcop_sched.Op_spec
module Tiling = Alcop_sched.Tiling
module Schedule = Alcop_sched.Schedule
module Lower = Alcop_sched.Lower
module Analysis = Alcop_pipeline.Analysis
module Timing = Alcop_gpusim.Timing

let names =
  [| "schedule"; "launch"; "lower"; "analysis"; "transform"; "validate";
     "trace"; "timing" |]

let n_passes = Array.length names

(* The [timing] row split by full-wave residency, the request's
   [tbs_per_sm]: 1, 2, 3-4, 5-8, 9-16, 17+. The wave engine's cost per
   step grows with it. *)
let residency_names = [| "r=1"; "r=2"; "r=3-4"; "r=5-8"; "r=9-16"; "r>=17" |]

let n_residencies = Array.length residency_names

let residency_bin tbs_per_sm =
  if tbs_per_sm <= 1 then 0
  else if tbs_per_sm = 2 then 1
  else if tbs_per_sm <= 4 then 2
  else if tbs_per_sm <= 8 then 3
  else if tbs_per_sm <= 16 then 4
  else 5

type key = { spec : Op_spec.t; params : Params.t; extra : int }

let distinct_keys specs =
  let seen = Hashtbl.create 131072 in
  let keys = ref [] in
  List.iter
    (fun (spec : Op_spec.t) ->
      List.iter
        (fun v ->
          Array.iter
            (fun p ->
              let extra = Variants.extra_regs v spec p in
              let id = (spec.Op_spec.name, Params.to_string p, extra) in
              if not (Hashtbl.mem seen id) then begin
                Hashtbl.add seen id ();
                keys := { spec; params = p; extra } :: !keys
              end)
            (Variants.space v spec))
        Variants.all)
    specs;
  Array.of_list (List.rev !keys)

(* Counters of one round. Float arrays hold unboxed floats, so reading
   the counters allocates nothing between the marks. *)
type tally = {
  runs : int array;
  words : float array;
  ns : int array;
  mutable reused : int;
      (** pass-by-pass lowerings that returned the previous key's kernel *)
  mutable last_lowered : Alcop_ir.Kernel.t option;
}

(* Slots: the passes, the whole compile, then the residency bins. *)
let n_slots = n_passes + 1 + n_residencies

let tally () =
  { runs = Array.make n_slots 0;
    words = Array.make n_slots 0.0;
    ns = Array.make n_slots 0; reused = 0; last_lowered = None }

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let t0_ns = ref 0
let w0 = [| 0.0 |]

let start () =
  w0.(0) <- Gc.minor_words ();
  t0_ns := now_ns ()

let add t i ns words =
  t.runs.(i) <- t.runs.(i) + 1;
  t.words.(i) <- t.words.(i) +. words;
  t.ns.(i) <- t.ns.(i) + ns

let mark t i =
  let t1 = now_ns () in
  let w1 = Gc.minor_words () in
  add t i (t1 - !t0_ns) (w1 -. w0.(0))

(* [mark] of pass [i], credited also to slot [j]. *)
let mark2 t i j =
  let t1 = now_ns () in
  let w1 = Gc.minor_words () in
  add t i (t1 - !t0_ns) (w1 -. w0.(0));
  add t j (t1 - !t0_ns) (w1 -. w0.(0))

(* Outcome of one compile: the failing phase (0 schedule, 1 launch,
   2 lower, 3 legality) or the simulated kernel cycles. *)
type outcome = Failed of int | Cycles of float

let p_schedule = 0
let p_launch = 1
let p_lower = 2
let p_analysis = 3
let p_transform = 4
let p_validate = 5
let p_trace = 6
let p_timing = 7
let p_compile = n_passes
let p_residency = n_passes + 1

(* [Compiler.compile] with each pass measured on its own. *)
let decomposed ~hw t k =
  let params = k.params and spec = k.spec in
  start ();
  match Compiler.schedule_point params spec with
  | exception Schedule.Schedule_error _ ->
    mark t p_schedule;
    Failed 0
  | schedule ->
    mark t p_schedule;
    let elem_bytes = Alcop_ir.Dtype.size_bytes spec.Op_spec.dtype in
    start ();
    let occ = Params.launch ~extra_regs_per_thread:k.extra hw elem_bytes params in
    mark t p_launch;
    (match occ with
     | Error _ -> Failed 1
     | Ok occ ->
       start ();
       (match Compiler.lower_point schedule with
        | exception Lower.Lowering_error _ ->
          mark t p_lower;
          Failed 2
        | lowered ->
          mark t p_lower;
          (match t.last_lowered with
           | Some k when k == lowered.Lower.kernel -> t.reused <- t.reused + 1
           | _ -> t.last_lowered <- Some lowered.Lower.kernel);
          let hints = lowered.Lower.hints in
          start ();
          let analysis = Analysis.run ~hw ~hints lowered.Lower.kernel in
          mark t p_analysis;
          (match analysis with
           | Error _ -> Failed 3
           | Ok analysis ->
             start ();
             let kernel =
               Alcop_pipeline.Transform.run analysis lowered.Lower.kernel
             in
             mark t p_transform;
             start ();
             Alcop_ir.Validate.check_exn kernel;
             mark t p_validate;
             let groups = analysis.Analysis.groups in
             start ();
             let program = Alcop_gpusim.Trace.extract_program ~groups kernel in
             mark t p_trace;
             let request =
               Compiler.timing_request ~hw ~occupancy:occ ~groups params spec
                 program
             in
             let bin =
               residency_bin
                 request.Timing.occupancy.Alcop_gpusim.Occupancy.tbs_per_sm
             in
             start ();
             let timing = Timing.run request in
             mark2 t p_timing (p_residency + bin);
             Cycles timing.Timing.total_cycles)))

let whole ~hw t k =
  start ();
  let r =
    Compiler.compile ~hw ~extra_regs_per_thread:k.extra k.params k.spec
  in
  mark t p_compile;
  match r with
  | Ok c -> Cycles c.Compiler.timing.Timing.total_cycles
  | Error (Compiler.Schedule_error _) -> Failed 0
  | Error (Compiler.Launch_failed _) -> Failed 1
  | Error (Compiler.Lowering_failed _) -> Failed 2
  | Error (Compiler.Legality_rejected _) -> Failed 3

(* Ceiling of [rest], in words per key. Measured: 170.8 (MM_BERT_FC1) to
   214.3 (BMM_BERT_SV) per key, 192.4 over all eleven operators. Work
   that [Compiler.compile] moves out of its passes, or a pass it gains
   that [decomposed] does not run, lifts [rest] past it; a pass row that
   measured more than the whole compile makes [rest] negative. *)
let rest_ceiling = 250.0

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let run ~hw ~rounds specs =
  let keys = distinct_keys specs in
  Printf.printf "passes: %d distinct keys of %d operator%s (%s)\n%!"
    (Array.length keys) (List.length specs)
    (if List.length specs = 1 then "" else "s")
    (String.concat " " (List.map (fun (s : Op_spec.t) -> s.Op_spec.name) specs));
  Array.iter (fun k -> ignore (whole ~hw (tally ()) k)) keys;
  let bad = ref 0 in
  let outcomes = Array.make (Array.length keys) (Failed 0) in
  let tallies =
    List.init rounds (fun _ ->
        let t = tally () in
        Array.iteri (fun i k -> outcomes.(i) <- decomposed ~hw t k) keys;
        Array.iteri
          (fun i k -> if whole ~hw t k <> outcomes.(i) then incr bad)
          keys;
        t)
  in
  let first = List.hd tallies in
  (* Each timing run lands in exactly one residency bin. *)
  let split_sums t =
    let sum a = Array.fold_left ( + ) 0 (Array.sub a p_residency n_residencies)
    and sumf a =
      Array.fold_left ( +. ) 0.0 (Array.sub a p_residency n_residencies)
    in
    sum t.runs = t.runs.(p_timing)
    && sum t.ns = t.ns.(p_timing)
    && sumf t.words = t.words.(p_timing)
  in
  let words_differ =
    List.exists (fun t -> t.words <> first.words || t.runs <> first.runs) tallies
  in
  let compiled = first.runs.(p_timing) in
  Printf.printf "%d keys compile; %d reach the pipelining transform\n"
    compiled first.runs.(p_transform);
  Printf.printf "%d of %d lowerings reused the slot's kernel\n" first.reused
    first.runs.(p_lower);
  let per_run t i =
    if t.runs.(i) = 0 then 0.0
    else float_of_int t.ns.(i) /. 1e3 /. float_of_int t.runs.(i)
  in
  let rest_us t =
    let passes = ref 0 in
    for i = 0 to n_passes - 1 do
      passes := !passes + t.ns.(i)
    done;
    float_of_int (t.ns.(p_compile) - !passes) /. 1e3
    /. float_of_int (Array.length keys)
  in
  let words_of i = Float.to_int first.words.(i) in
  let pass_words = ref 0 in
  Printf.printf "%-10s %8s %10s %12s %14s\n" "pass" "runs" "us/run"
    "words/run" "words";
  let row name runs us words =
    Printf.printf "%-10s %8d %10.2f %12.1f %14d\n" name runs us
      (if runs = 0 then 0.0 else float_of_int words /. float_of_int runs)
      words
  in
  for i = 0 to n_passes - 1 do
    pass_words := !pass_words + words_of i;
    row names.(i) first.runs.(i)
      (median (List.map (fun t -> per_run t i) tallies))
      (words_of i)
  done;
  Array.iteri
    (fun j name ->
      let i = p_residency + j in
      row ("  " ^ name) first.runs.(i)
        (median (List.map (fun t -> per_run t i) tallies))
        (words_of i))
    residency_names;
  let total = words_of p_compile in
  row "rest" (Array.length keys) (median (List.map rest_us tallies))
    (total - !pass_words);
  row "compile" first.runs.(p_compile)
    (median (List.map (fun t -> per_run t p_compile) tallies))
    total;
  Printf.printf "words: passes %d + rest %d = compile %d\n" !pass_words
    (total - !pass_words) total;
  Printf.printf "analysis+transform per compiled key: %.1f words\n"
    (float_of_int (words_of p_analysis + words_of p_transform)
     /. float_of_int (max 1 compiled));
  if !bad > 0 then begin
    Printf.printf "FAIL: %d pass-by-pass compiles disagree with Compiler.compile\n"
      !bad;
    exit 1
  end;
  if not (List.for_all split_sums tallies) then begin
    print_endline "FAIL: the residency rows do not sum to the timing row";
    exit 1
  end;
  if words_differ then begin
    print_endline "FAIL: minor words differ between rounds";
    exit 1
  end;
  let rest = total - !pass_words in
  if rest < 0
     || float_of_int rest > rest_ceiling *. float_of_int (Array.length keys)
  then begin
    Printf.printf "FAIL: rest is %d words over %d keys, outside 0..%.0f a key\n"
      rest (Array.length keys) rest_ceiling;
    exit 1
  end
