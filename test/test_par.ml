(* Tests for the domain pool (Alcop_par): result order and identity vs
   sequential for jobs in {1,2,4}, lowest-index exception propagation, a
   QCheck property that Tuner.run through a pool is bit-identical to the
   sequential run, exact telemetry merge (identical event stream and
   counter totals under a deterministic clock), a concurrent-compile
   hammer on a Session (in-flight dedup must reproduce sequential
   hit/miss totals), and the for_hw registry under concurrency. *)

open Alcop_sched
open Alcop_par

let hw = Alcop_hw.Hw_config.default

(* --- map: order, identity with sequential, callback order --- *)

let test_map_matches_sequential () =
  let xs = List.init 100 (fun i -> i) in
  let f x = (x * x) + 7 in
  let expected = List.map f xs in
  List.iter
    (fun jobs ->
      let got = Pool.with_pool ~jobs (fun p -> Pool.map p f xs) in
      Alcotest.(check (list int))
        (Printf.sprintf "map at jobs=%d" jobs)
        expected got)
    [ 1; 2; 4 ]

let test_map_each_in_index_order () =
  let xs = Array.init 50 (fun i -> i) in
  let seen = ref [] in
  let got =
    Pool.with_pool ~jobs:4 (fun p ->
        Pool.map_array p
          ~each:(fun i r -> seen := (i, r) :: !seen)
          (fun x -> x * 2) xs)
  in
  Alcotest.(check (array int)) "results" (Array.map (fun x -> x * 2) xs) got;
  Alcotest.(check (list (pair int int)))
    "each called in index order"
    (List.init 50 (fun i -> (i, i * 2)))
    (List.rev !seen)

(* --- exception propagation: the lowest-indexed failure wins --- *)

exception Boom of int

let test_lowest_index_exception () =
  List.iter
    (fun jobs ->
      match
        Pool.with_pool ~jobs (fun p ->
            Pool.map_array p
              (fun i -> if i >= 3 then raise (Boom i) else i)
              (Array.init 8 Fun.id))
      with
      | (_ : int array) -> Alcotest.fail "expected Boom"
      | exception Boom i ->
        Alcotest.(check int)
          (Printf.sprintf "lowest failing index at jobs=%d" jobs)
          3 i)
    [ 1; 2; 4 ]

(* --- QCheck: Tuner.run through a pool is bit-identical to sequential --- *)

let synth_space =
  let mk tb_m tb_n smem_stages =
    Alcop_perfmodel.Params.make
      ~tiling:
        (Tiling.make ~tb_m ~tb_n ~tb_k:16 ~warp_m:16 ~warp_n:16 ~warp_k:16 ())
      ~smem_stages ~reg_stages:1 ()
  in
  Array.of_list
    (List.concat_map
       (fun tb_m ->
         List.concat_map
           (fun tb_n -> List.map (mk tb_m tb_n) [ 2; 3 ])
           [ 16; 32 ])
       [ 16; 32; 64 ])

(* Pure, deterministic stand-in for the simulator; some points "fail". *)
let synth_cost (p : Alcop_perfmodel.Params.t) =
  let t = p.Alcop_perfmodel.Params.tiling in
  let v =
    (t.Tiling.tb_m * 7) + (t.Tiling.tb_n * 13)
    + (p.Alcop_perfmodel.Params.smem_stages * 31)
  in
  if v mod 5 = 0 then None else Some (float_of_int (1000 + (v mod 97)))

let prop_tuner_pool_bit_identical =
  QCheck.Test.make ~name:"Tuner.run pool-invariant (jobs 1/2/4)" ~count:8
    QCheck.(pair small_nat (int_bound 1000))
    (fun (budget_raw, seed) ->
      let budget = 1 + (budget_raw mod 15) in
      let spec = Op_spec.matmul ~name:"par_prop" ~m:64 ~n:64 ~k:128 () in
      let run pool =
        Alcop_tune.Tuner.run ?pool ~hw ~spec ~space:synth_space
          ~evaluate:synth_cost ~budget ~seed Alcop_tune.Tuner.Analytical_xgb
      in
      let run_grid pool =
        Alcop_tune.Tuner.run ?pool ~hw ~spec ~space:synth_space
          ~evaluate:synth_cost ~budget ~seed Alcop_tune.Tuner.Grid
      in
      let base = run None and base_grid = run_grid None in
      List.for_all
        (fun jobs ->
          Pool.with_pool ~jobs (fun p ->
              run (Some p) = base && run_grid (Some p) = base_grid))
        [ 1; 2; 4 ])

(* --- exact telemetry merge --- *)

let install_fake_clock () =
  let t = ref 0.0 in
  Alcop_obs.Obs.set_clock (fun () ->
      t := !t +. 0.001;
      !t)

(* The same workload, run sequentially and through a 4-worker pool, must
   produce the identical event stream — timestamps included, because the
   replayed op sequence reads the (deterministic) clock exactly as the
   sequential run does — and identical counter/gauge tables. *)
let obs_workload i =
  Alcop_obs.Obs.with_span "par.task" (fun () ->
      Alcop_obs.Obs.count ~n:(i + 1) "par.items";
      Alcop_obs.Obs.gauge "par.last" (float_of_int i);
      Alcop_obs.Obs.observe "par.hist" (float_of_int (i mod 4)));
  i * 3

let run_obs_workload pool =
  Alcop_obs.Obs.reset ();
  install_fake_clock ();
  let sink, events = Alcop_obs.Obs.memory_sink () in
  Alcop_obs.Obs.add_sink sink;
  let xs = List.init 24 Fun.id in
  let results =
    match pool with
    | None -> List.map obs_workload xs
    | Some p -> Pool.map p obs_workload xs
  in
  let evs = events () in
  let counters = Alcop_obs.Obs.counters () in
  let gauges = Alcop_obs.Obs.gauges () in
  Alcop_obs.Obs.reset ();
  (results, evs, counters, gauges)

let test_obs_exact_merge () =
  let seq = run_obs_workload None in
  let par = Pool.with_pool ~jobs:4 (fun p -> run_obs_workload (Some p)) in
  let rs, es, cs, gs = seq and rp, ep, cp, gp = par in
  Alcotest.(check (list int)) "results" rs rp;
  Alcotest.(check int) "event count" (List.length es) (List.length ep);
  Alcotest.(check bool) "event streams identical (timestamps included)" true
    (es = ep);
  Alcotest.(check (list (pair string int))) "counter totals exact" cs cp;
  Alcotest.(check bool) "gauge tables identical" true (gs = gp)

(* --- Session under concurrency --- *)

let hammer_params =
  Alcop_perfmodel.Params.make
    ~tiling:
      (Tiling.make ~tb_m:32 ~tb_n:32 ~tb_k:16 ~warp_m:16 ~warp_n:16
         ~warp_k:16 ())
    ~smem_stages:2 ~reg_stages:1 ()

(* 32 concurrent compiles of the same key: the in-flight dedup must admit
   exactly one miss — every other caller blocks and lands a hit, exactly
   the totals of the sequential call sequence. *)
let test_session_inflight_dedup () =
  let spec = Op_spec.matmul ~name:"par_hammer" ~m:64 ~n:64 ~k:128 () in
  let session = Alcop.Session.create ~hw () in
  let results =
    Pool.with_pool ~jobs:4 (fun p ->
        Pool.map p
          (fun () -> Alcop.Session.evaluate session hammer_params spec)
          (List.init 32 (fun _ -> ())))
  in
  (match results with
   | r0 :: rest ->
     Alcotest.(check bool) "all evaluations agree" true
       (List.for_all (fun r -> r = r0) rest);
     Alcotest.(check bool) "evaluation succeeded" true (r0 <> None)
   | [] -> Alcotest.fail "no results");
  let s = Alcop.Session.stats session in
  Alcotest.(check int) "exactly one miss" 1 s.Alcop.Session.misses;
  Alcotest.(check int) "all others hit" 31 s.Alcop.Session.hits

let test_for_hw_concurrent_is_one_session () =
  let sessions =
    Pool.with_pool ~jobs:4 (fun p ->
        Pool.map p (fun () -> Alcop.Session.for_hw hw)
          (List.init 16 (fun _ -> ())))
  in
  match sessions with
  | s0 :: rest ->
    Alcotest.(check bool) "one physical session for the config" true
      (List.for_all (fun s -> s == s0) rest)
  | [] -> Alcotest.fail "no sessions"

(* --- pool hygiene --- *)

let test_create_rejects_zero_jobs () =
  Alcotest.check_raises "jobs < 1 rejected"
    (Invalid_argument "Pool.create: jobs = 0 (must be >= 1)") (fun () ->
      ignore (Pool.create ~jobs:0 ()))

let test_shutdown_idempotent () =
  let p = Pool.create ~jobs:2 () in
  Pool.shutdown p;
  Pool.shutdown p

let suite =
  [ ( "par",
      [ Alcotest.test_case "map matches sequential (jobs 1/2/4)" `Quick
          test_map_matches_sequential;
        Alcotest.test_case "each runs in index order" `Quick
          test_map_each_in_index_order;
        Alcotest.test_case "lowest-index exception wins" `Quick
          test_lowest_index_exception;
        QCheck_alcotest.to_alcotest prop_tuner_pool_bit_identical;
        Alcotest.test_case "exact telemetry merge" `Quick test_obs_exact_merge;
        Alcotest.test_case "session in-flight dedup under hammer" `Quick
          test_session_inflight_dedup;
        Alcotest.test_case "for_hw concurrent returns one session" `Quick
          test_for_hw_concurrent_is_one_session;
        Alcotest.test_case "create rejects jobs < 1" `Quick
          test_create_rejects_zero_jobs;
        Alcotest.test_case "shutdown is idempotent" `Quick
          test_shutdown_idempotent ] ) ]
