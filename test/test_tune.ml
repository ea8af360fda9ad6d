(* Tests for the tuning stack: space enumeration, regression trees,
   gradient boosting, simulated annealing and the four tuning methods. *)

open Alcop_sched
open Alcop_tune

let hw = Alcop_hw.Hw_config.ampere_a100

let spec = Op_spec.matmul ~name:"tune_test" ~m:512 ~n:128 ~k:1024 ()

(* --- space --- *)

let test_space_nonempty_and_valid () =
  let space = Space.enumerate spec in
  Alcotest.(check bool) "non-empty" true (Array.length space > 100);
  Array.iter
    (fun (p : Alcop_perfmodel.Params.t) ->
      match Tiling.validate p.Alcop_perfmodel.Params.tiling spec with
      | Ok () -> ()
      | Error m -> Alcotest.fail m)
    space

let test_space_restrictions () =
  let full = Space.enumerate spec in
  let no_pipe = Space.enumerate ~restriction:Space.no_pipelining spec in
  let no_ml = Space.enumerate ~restriction:Space.no_multilevel spec in
  Alcotest.(check bool) "no_pipe smaller" true
    (Array.length no_pipe < Array.length full);
  Array.iter
    (fun (p : Alcop_perfmodel.Params.t) ->
      Alcotest.(check int) "stages 1" 1 p.Alcop_perfmodel.Params.smem_stages;
      Alcotest.(check int) "reg 1" 1 p.Alcop_perfmodel.Params.reg_stages)
    no_pipe;
  Array.iter
    (fun (p : Alcop_perfmodel.Params.t) ->
      Alcotest.(check int) "reg 1" 1 p.Alcop_perfmodel.Params.reg_stages)
    no_ml

let test_space_no_duplicates () =
  let space = Space.enumerate spec in
  let keys =
    Array.to_list (Array.map Alcop_perfmodel.Params.to_string space)
  in
  Alcotest.(check int) "unique" (List.length keys)
    (List.length (List.sort_uniq compare keys))

let test_neighbour_stays_in_space () =
  let space = Space.enumerate spec in
  let idx = Space.index space in
  let rng = Random.State.make [| 7 |] in
  for _ = 1 to 200 do
    let i = Random.State.int rng (Array.length space) in
    let j = Space.neighbour idx rng i in
    Alcotest.(check bool) "in range" true (j >= 0 && j < Array.length space)
  done

(* --- regression trees --- *)

let test_tree_fits_step_function () =
  let xs = Array.init 64 (fun i -> [| float_of_int i |]) in
  let ys = Array.map (fun x -> if x.(0) < 32.0 then 1.0 else 5.0) xs in
  let tree = Tree.fit xs ys in
  Alcotest.(check (float 0.01)) "left" 1.0 (Tree.predict tree [| 10.0 |]);
  Alcotest.(check (float 0.01)) "right" 5.0 (Tree.predict tree [| 50.0 |])

let test_tree_constant_target () =
  let xs = Array.init 16 (fun i -> [| float_of_int i |]) in
  let ys = Array.make 16 3.0 in
  let tree = Tree.fit xs ys in
  Alcotest.(check int) "single leaf" 1 (Tree.n_leaves tree);
  Alcotest.(check (float 1e-9)) "value" 3.0 (Tree.predict tree [| 8.0 |])

let test_tree_respects_depth () =
  let rng = Random.State.make [| 3 |] in
  let xs = Array.init 256 (fun _ -> [| Random.State.float rng 1.0; Random.State.float rng 1.0 |]) in
  let ys = Array.map (fun x -> x.(0) *. x.(1)) xs in
  let tree = Tree.fit ~config:{ Tree.default_config with max_depth = 3 } xs ys in
  Alcotest.(check bool) "depth <= 3" true (Tree.depth tree <= 3)

let test_tree_multifeature_split () =
  (* Target depends only on feature 1; the tree must find it. *)
  let xs = Array.init 64 (fun i -> [| float_of_int (i mod 8); float_of_int (i / 8) |]) in
  let ys = Array.map (fun x -> if x.(1) < 4.0 then 0.0 else 10.0) xs in
  let tree = Tree.fit xs ys in
  Alcotest.(check (float 0.01)) "split on f1" 10.0 (Tree.predict tree [| 0.0; 7.0 |])

(* --- gradient boosting --- *)

let test_gbt_reduces_error () =
  let rng = Random.State.make [| 11 |] in
  let xs = Array.init 200 (fun _ -> [| Random.State.float rng 4.0; Random.State.float rng 4.0 |]) in
  let ys = Array.map (fun x -> sin x.(0) +. (0.5 *. x.(1))) xs in
  let mse model =
    let s = ref 0.0 in
    Array.iteri
      (fun i x ->
        let d = Gbt.predict model x -. ys.(i) in
        s := !s +. (d *. d))
      xs;
    !s /. 200.0
  in
  let weak = Gbt.fit ~config:{ Gbt.default_config with n_rounds = 2 } xs ys in
  let strong = Gbt.fit ~config:{ Gbt.default_config with n_rounds = 40 } xs ys in
  Alcotest.(check bool) "boosting reduces error" true (mse strong < mse weak /. 2.0)

let test_gbt_continues_from_prior () =
  let xs = Array.init 64 (fun i -> [| float_of_int i |]) in
  let ys = Array.map (fun x -> x.(0) *. 2.0) xs in
  let prior = Gbt.fit ~config:{ Gbt.default_config with n_rounds = 10 } xs ys in
  let n_prior = Gbt.n_trees prior in
  (* new data shifted by +5: fine-tuning adds trees on residuals *)
  let ys2 = Array.map (fun y -> y +. 5.0) ys in
  let tuned = Gbt.fit ~config:{ Gbt.default_config with n_rounds = 10 } ~init:prior xs ys2 in
  Alcotest.(check bool) "more trees" true (Gbt.n_trees tuned > n_prior);
  let err =
    Float.abs (Gbt.predict tuned [| 30.0 |] -. 65.0)
  in
  Alcotest.(check bool) (Printf.sprintf "fine-tuned err %.2f < 4" err) true (err < 4.0)

let test_gbt_empty_data () =
  let m = Gbt.fit [||] [||] in
  Alcotest.(check (float 1e-9)) "zero" 0.0 (Gbt.predict m [| 1.0 |])

(* Allocation ceiling of one pre-training fit (64 rounds, depth 6) on a
   fixed seeded set of 1024 samples x 12 features. The rank-code fitter
   measured 1.46e5 minor words here (the presorted-slice fitter before it
   1.68e5); the list fitter they replaced, which re-sorted and
   re-partitioned boxed lists per node and threshold, took 6.3e8. The
   ceiling is ~2x the measured value. *)
let alloc_budget_gbt_fit = 300_000.0

let test_gbt_fit_allocation () =
  let rng = Random.State.make [| 0x7EE; 1 |] in
  let xs =
    Array.init 1024 (fun _ ->
        Array.init 12 (fun f ->
            if f mod 3 = 2 then Random.State.float rng 10.0
            else float_of_int (Random.State.int rng (2 + f))))
  in
  let ys =
    Array.map
      (fun x ->
        (x.(0) *. x.(1)) -. Float.log (1.0 +. x.(2))
        +. Random.State.float rng 0.1)
      xs
  in
  let w0 = Gc.minor_words () in
  let m = Gbt.fit ~config:Tuner.pretrain_config xs ys in
  let dw = Gc.minor_words () -. w0 in
  Alcotest.(check int) "all rounds" 64 (Gbt.n_trees m);
  Alcotest.(check bool)
    (Printf.sprintf "Gbt.fit allocates %.0f minor words (budget %.0f)" dw
       alloc_budget_gbt_fit)
    true (dw < alloc_budget_gbt_fit)

(* --- tuners --- *)

(* A synthetic, fast objective: analytical model as ground truth, so the
   tuner tests don't need the simulator. *)
let synthetic_evaluate p = Alcop_perfmodel.Model.predict_cycles hw spec p

let space = lazy (Space.enumerate spec)

let test_exhaustive_finds_min () =
  let space = Lazy.force space in
  let r = Tuner.exhaustive ~space ~evaluate:synthetic_evaluate () in
  let best = Option.get (Tuner.best r) in
  Array.iter
    (fun (t : Tuner.trial) ->
      match t.Tuner.cost with
      | Some c -> Alcotest.(check bool) "best is min" true (best <= c)
      | None -> ())
    r.Tuner.trials

let test_budget_respected () =
  let space = Lazy.force space in
  List.iter
    (fun m ->
      let r =
        Tuner.run ~hw ~spec ~space ~evaluate:synthetic_evaluate ~budget:10
          ~seed:1 m
      in
      Alcotest.(check bool)
        (Tuner.method_to_string m ^ " respects budget")
        true
        (Array.length r.Tuner.trials <= 10))
    [ Tuner.Grid; Tuner.Xgb; Tuner.Analytical_only; Tuner.Analytical_xgb ]

let test_tuners_deterministic () =
  let space = Lazy.force space in
  let run () =
    Tuner.run ~hw ~spec ~space ~evaluate:synthetic_evaluate ~budget:12 ~seed:5
      Tuner.Xgb
  in
  let a = run () and b = run () in
  Alcotest.(check (array int)) "same trial sequence"
    (Array.map (fun (t : Tuner.trial) -> t.Tuner.index) a.Tuner.trials)
    (Array.map (fun (t : Tuner.trial) -> t.Tuner.index) b.Tuner.trials)

let test_analytical_only_hits_optimum_on_own_objective () =
  (* When the measurement IS the analytical model, ranking by it and taking
     the first trial must be optimal. *)
  let space = Lazy.force space in
  let exh = Tuner.exhaustive ~space ~evaluate:synthetic_evaluate () in
  let best = Option.get (Tuner.best exh) in
  let r =
    Tuner.run ~hw ~spec ~space ~evaluate:synthetic_evaluate ~budget:1 ~seed:1
      Tuner.Analytical_only
  in
  Alcotest.(check (float 1e-6)) "first trial optimal" best
    (Option.get (Tuner.best_within r 1))

let test_best_within_monotone () =
  let space = Lazy.force space in
  let r =
    Tuner.run ~hw ~spec ~space ~evaluate:synthetic_evaluate ~budget:30 ~seed:2
      Tuner.Xgb
  in
  let b10 = Tuner.best_within r 10 in
  let b30 = Tuner.best_within r 30 in
  match b10, b30 with
  | Some a, Some b -> Alcotest.(check bool) "monotone improvement" true (b <= a)
  | _ -> Alcotest.fail "expected costs"

(* --- tuning log round-trip (read side goes through the shared
   Trace_reader file/JSON plumbing) --- *)

let test_tuning_log_roundtrip () =
  let space = Lazy.force space in
  let result =
    Tuner.run ~hw ~spec ~space ~evaluate:synthetic_evaluate ~budget:8 ~seed:3
      Tuner.Grid
  in
  let path = Filename.temp_file "alcop_tune" ".json" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  Tuning_log.write_file ~path ~spec_name:spec.Op_spec.name ~method_:Tuner.Grid
    ~seed:3 result;
  match Tuning_log.read_file path with
  | Error e -> Alcotest.fail e
  | Ok r ->
    Alcotest.(check string) "operator" spec.Op_spec.name r.Tuning_log.r_operator;
    Alcotest.(check string) "method"
      (Tuner.method_to_string Tuner.Grid)
      r.Tuning_log.r_method;
    Alcotest.(check int) "seed" 3 r.Tuning_log.r_seed;
    Alcotest.(check int) "space size" result.Tuner.space_size
      r.Tuning_log.r_space_size;
    Alcotest.(check int) "trial count"
      (Array.length result.Tuner.trials)
      (List.length r.Tuning_log.r_trials);
    List.iteri
      (fun i rt ->
        let t = result.Tuner.trials.(i) in
        Alcotest.(check int) "trial index" t.Tuner.index
          rt.Tuning_log.rt_index;
        Alcotest.(check string) "trial params"
          (Alcop_perfmodel.Params.to_string t.Tuner.params)
          (Alcop_perfmodel.Params.to_string rt.Tuning_log.rt_params);
        match t.Tuner.cost, rt.Tuning_log.rt_cost with
        | None, None -> ()
        | Some a, Some b -> Alcotest.(check (float 1e-9)) "trial cost" a b
        | _ -> Alcotest.fail "trial cost presence mismatch")
      r.Tuning_log.r_trials;
    (match Tuner.best result, r.Tuning_log.r_best_cycles with
     | None, None -> ()
     | Some a, Some b -> Alcotest.(check (float 1e-9)) "best cycles" a b
     | _ -> Alcotest.fail "best cycles presence mismatch")

let suite =
  [ ( "tune",
      [ Alcotest.test_case "space non-empty and valid" `Quick
          test_space_nonempty_and_valid;
        Alcotest.test_case "space restrictions" `Quick test_space_restrictions;
        Alcotest.test_case "space no duplicates" `Quick test_space_no_duplicates;
        Alcotest.test_case "neighbour stays in space" `Quick
          test_neighbour_stays_in_space;
        Alcotest.test_case "tree fits step function" `Quick
          test_tree_fits_step_function;
        Alcotest.test_case "tree constant target" `Quick test_tree_constant_target;
        Alcotest.test_case "tree respects depth" `Quick test_tree_respects_depth;
        Alcotest.test_case "tree multifeature split" `Quick
          test_tree_multifeature_split;
        Alcotest.test_case "gbt reduces error" `Quick test_gbt_reduces_error;
        Alcotest.test_case "gbt continues from prior" `Quick
          test_gbt_continues_from_prior;
        Alcotest.test_case "gbt empty data" `Quick test_gbt_empty_data;
        Alcotest.test_case "gbt fit allocation ceiling" `Quick
          test_gbt_fit_allocation;
        Alcotest.test_case "exhaustive finds min" `Slow test_exhaustive_finds_min;
        Alcotest.test_case "budget respected" `Slow test_budget_respected;
        Alcotest.test_case "tuners deterministic" `Slow test_tuners_deterministic;
        Alcotest.test_case "analytical-only optimal on own objective" `Slow
          test_analytical_only_hits_optimum_on_own_objective;
        Alcotest.test_case "best-within monotone" `Slow test_best_within_monotone;
        Alcotest.test_case "tuning log round-trip" `Slow
          test_tuning_log_roundtrip ] ) ]
