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

(* The integer-keyed [Space.neighbour] must make the same moves as the
   frozen string-keyed copy in [Legacy_space]: from equal random states,
   the same start points give the same index sequence. *)
let neighbour_sequences_agree ~seed space =
  let idx = Space.index space and legacy = Legacy_space.index space in
  let rng = Random.State.make [| seed |] in
  let rng_legacy = Random.State.make [| seed |] in
  let starts = Random.State.make [| seed; 1 |] in
  let n = Array.length space in
  let rec go k i =
    k = 0
    || begin
      let j = Space.neighbour idx rng i in
      j = Legacy_space.neighbour legacy rng_legacy i
      && go (k - 1) (if k mod 3 = 0 then Random.State.int starts n else j)
    end
  in
  n = 0 || go 400 (Random.State.int starts n)

let test_neighbour_matches_legacy_fig10 () =
  List.iter
    (fun (spec : Op_spec.t) ->
      let space = Alcop.Variants.space Alcop.Variants.alcop spec in
      Alcotest.(check bool) (spec.Op_spec.name ^ " neighbour sequence") true
        (neighbour_sequences_agree ~seed:(Array.length space) space))
    Alcop_workloads.Suites.fig10

(* Synthetic spaces: knob values on and off the move's option lists,
   split-K 0 (keyed like 1), swizzle and inner fusion off (a move keeps
   swizzle and turns fusion on), and repeated points (the last copy is the
   one a move finds). *)
let gen_synthetic_space =
  let open QCheck.Gen in
  let knob options = frequency [ (4, oneofl options); (1, oneofl [ 8; 48; 512 ]) ] in
  let gen_point =
    let* tb_m = knob [ 16; 32; 64; 128; 256 ] and* tb_n = knob [ 16; 32; 64; 128; 256 ]
    and* tb_k = knob [ 16; 32; 64 ] and* warp_m = knob [ 16; 32; 64; 128 ]
    and* warp_n = knob [ 16; 32; 64; 128 ]
    and* warp_k = knob [ 16; 32 ]
    and* split_k = oneofl [ 0; 1; 1; 2; 4; 3 ]
    and* smem_stages = oneofl [ 1; 2; 3; 4; 5 ] and* reg_stages = oneofl [ 1; 2; 3 ]
    and* swizzle = frequency [ (3, return true); (1, return false) ]
    and* inner_fuse = frequency [ (3, return true); (1, return false) ] in
    let tiling =
      Tiling.make ~split_k ~tb_m ~tb_n ~tb_k ~warp_m ~warp_n ~warp_k ()
    in
    return
      (Alcop_perfmodel.Params.make ~swizzle ~inner_fuse ~tiling ~smem_stages
         ~reg_stages ())
  in
  let* distinct = list_size (int_range 1 80) gen_point in
  let distinct = Array.of_list distinct in
  let* copies = list_size (int_range 0 20) (int_bound (Array.length distinct - 1)) in
  let* seed = int_bound 1_000_000 in
  return (seed, Array.append distinct (Array.of_list (List.map (Array.get distinct) copies)))

let prop_neighbour_synthetic =
  QCheck.Test.make ~count:300 ~name:"neighbour == string-keyed legacy (synthetic spaces)"
    (QCheck.make
       ~print:(fun (seed, space) ->
         Printf.sprintf "seed=%d points=%d" seed (Array.length space))
       gen_synthetic_space)
    (fun (seed, space) -> neighbour_sequences_agree ~seed space)

(* --- bounded top-n --- *)

(* Frozen reference: [Tuner.top_by_model] as it was, a stable sort of the
   (score, index) list built by prepending each index. *)
let sorted_top scores ~exclude n =
  let scored = ref [] in
  Array.iteri (fun i s -> if not (exclude i) then scored := (s, i) :: !scored) scores;
  let sorted = List.sort (fun (a, _) (b, _) -> compare b a) !scored in
  List.filteri (fun j _ -> j < n) (List.map snd sorted)

let prop_top_by_model =
  let gen =
    let open QCheck.Gen in
    let score =
      frequency
        [ (3, oneofl [ 0.0; -0.0; 1.0; -1.0; Float.nan; -.Float.nan; infinity;
                       neg_infinity ]);
          (2, float_range (-3.0) 3.0) ]
    in
    triple (array_size (int_range 0 40) score)
      (array_size (return 40) (frequency [ (3, return false); (1, return true) ]))
      (int_range 0 12)
  in
  QCheck.Test.make ~count:1000 ~name:"top_by_model == sorted list (NaN, ties, exclusions)"
    (QCheck.make
       ~print:(fun (s, _, n) -> Printf.sprintf "scores=%d n=%d" (Array.length s) n)
       gen)
    (fun (scores, excluded, n) ->
      let exclude i = excluded.(i) in
      Tuner.top_by_model scores ~exclude n = sorted_top scores ~exclude n)

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

(* Allocation ceilings of one pre-training fit (64 rounds, depth 6) on a
   fixed seeded set of 1024 samples x 12 features. The rank-code fitter
   measured 1.15e5 minor words here (1.46e5 while [Array.stable_sort]
   built its rank codes; the presorted-slice fitter before it 1.68e5);
   the list fitter they replaced, which re-sorted and re-partitioned boxed
   lists per node and threshold, took 6.3e8. The minor ceiling is ~2x the
   rank-code fitter's first measurement; the row-major histogram fitter
   measured 0.85e5.

   Arrays longer than 256 words skip the minor heap, so the fitter's
   buffers show only as direct major-heap words (major words not promoted
   from the minor heap). The rank-code fitter allocated 3.4e4; the
   histogram fitter 8.9e4, of which its six per-depth histograms over
   this set's ~4.1k codes (four continuous features) are 4.9e4. Buffers
   allocated per node or per round instead of once per fit would take
   millions. Major and promoted words come from [Gc.counters]:
   [Gc.quick_stat]'s major words only move at a collection. *)
let alloc_budget_gbt_fit = 300_000.0
let major_budget_gbt_fit = 150_000.0

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
  let _, promoted0, major0 = Gc.counters () in
  let w0 = Gc.minor_words () in
  let m = Gbt.fit ~config:Tuner.pretrain_config xs ys in
  let dw = Gc.minor_words () -. w0 in
  let _, promoted1, major1 = Gc.counters () in
  let direct = major1 -. promoted1 -. (major0 -. promoted0) in
  Alcotest.(check int) "all rounds" 64 (Gbt.n_trees m);
  Alcotest.(check bool)
    (Printf.sprintf "Gbt.fit allocates %.0f minor words (budget %.0f)" dw
       alloc_budget_gbt_fit)
    true (dw < alloc_budget_gbt_fit);
  Alcotest.(check bool)
    (Printf.sprintf "Gbt.fit allocates %.0f direct major words (budget %.0f)"
       direct major_budget_gbt_fit)
    true (direct < major_budget_gbt_fit)

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

(* A budget of 0 or below measures nothing, under every method. *)
let test_zero_budget () =
  let space = Lazy.force space in
  let calls = ref 0 in
  let evaluate p = incr calls; synthetic_evaluate p in
  List.iter
    (fun budget ->
      List.iter
        (fun m ->
          let r = Tuner.run ~hw ~spec ~space ~evaluate ~budget ~seed:1 m in
          let what = Printf.sprintf "%s budget %d" (Tuner.method_to_string m) budget in
          Alcotest.(check int) (what ^ " trials") 0 (Array.length r.Tuner.trials);
          Alcotest.(check int) (what ^ " space size") (Array.length space)
            r.Tuner.space_size)
        [ Tuner.Grid; Tuner.Xgb; Tuner.Analytical_only; Tuner.Analytical_xgb ])
    [ 0; -1 ];
  Alcotest.(check int) "nothing measured" 0 !calls

(* Allocation ceiling of one ALCOP tuning run as [alcop tune] makes it:
   MM_RN50_FC's space (9,400 points), [Analytical_xgb], budget 20, seed
   2023, measured through a fresh session. It measured 2.1-2.4e6 minor
   words; before the compiled scorer, integer space key and bounded top-n
   it took 9.07e6 (string keys, boxed list folds and sorted tuple lists). *)
let alloc_budget_tune_run = 3_500_000.0

let test_tune_run_allocation () =
  let spec = Alcop_workloads.Suites.mm_rn50_fc in
  let session = Alcop.Session.create ~hw () in
  let evaluate = Alcop.Variants.evaluator ~hw ~session Alcop.Variants.alcop spec in
  let space = Alcop.Variants.space Alcop.Variants.alcop spec in
  let w0 = Gc.minor_words () in
  let r =
    Tuner.run ~hw ~spec ~space ~evaluate ~budget:20 ~seed:2023
      Tuner.Analytical_xgb
  in
  let dw = Gc.minor_words () -. w0 in
  Alcotest.(check int) "all trials" 20 (Array.length r.Tuner.trials);
  Alcotest.(check bool)
    (Printf.sprintf "Tuner.run allocates %.0f minor words (budget %.0f)" dw
       alloc_budget_tune_run)
    true (dw <= alloc_budget_tune_run)

let suite =
  [ ( "tune",
      [ Alcotest.test_case "space non-empty and valid" `Quick
          test_space_nonempty_and_valid;
        Alcotest.test_case "space restrictions" `Quick test_space_restrictions;
        Alcotest.test_case "space no duplicates" `Quick test_space_no_duplicates;
        Alcotest.test_case "neighbour stays in space" `Quick
          test_neighbour_stays_in_space;
        Alcotest.test_case "neighbour == legacy on Fig. 10 spaces" `Slow
          test_neighbour_matches_legacy_fig10;
        QCheck_alcotest.to_alcotest prop_neighbour_synthetic;
        QCheck_alcotest.to_alcotest prop_top_by_model;
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
        Alcotest.test_case "zero budget measures nothing" `Slow test_zero_budget;
        Alcotest.test_case "tune run allocation ceiling" `Slow
          test_tune_run_allocation ] ) ]
