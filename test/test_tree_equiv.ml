(* Equivalence of the presorted, column-major tree fitter with the frozen
   list fitter in [Legacy_tree]: on random datasets and on a real
   pre-training set, [Tree.fit] and [Gbt.fit] (with and without [~init])
   must build the same trees with bit-equal thresholds and leaves. And
   the compiled batch scorer [Gbt.score] must sum every row's score bit
   for bit as [Gbt.predict] does. Together that is what keeps every tuning
   decision unchanged. *)

open Alcop_tune

let bits_equal a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let rec tree_equal (a : Tree.t) (b : Tree.t) =
  match a, b with
  | Leaf x, Leaf y -> bits_equal x y
  | Node a, Node b ->
    a.feature = b.feature
    && bits_equal a.threshold b.threshold
    && tree_equal a.left b.left && tree_equal a.right b.right
  | Leaf _, Node _ | Node _, Leaf _ -> false

let gbt_equal (a : Gbt.t) (b : Gbt.t) =
  bits_equal a.base b.base
  && bits_equal a.learning_rate b.learning_rate
  && List.length a.trees = List.length b.trees
  && List.for_all2 tree_equal a.trees b.trees

(* --- random datasets --- *)

type case = {
  rows : float array array;
  targets : float array;
  targets2 : float array;  (** a second target, to fine-tune from a prior *)
  config : Tree.config;
  rounds : int;
}

(* Values come from a small pool (duplicates, ±0.0, NaNs of both signs,
   ±inf, constants) or are continuous (more distinct values than
   [max_thresholds]). The NaNs and infinities put NaN and infinite
   midpoint thresholds among the candidates, and ±0.0 and NaNs of either
   sign put values with different bits into one group of
   [Float.compare]-equal values. *)
let gen_value pool =
  let open QCheck.Gen in
  frequency
    [ (3, oneofl pool);
      (2, float_range (-100.0) 100.0);
      (1, map float_of_int (int_range (-3) 3)) ]

let gen_case =
  let open QCheck.Gen in
  let pool =
    [ 0.0; -0.0; 1.0; 1.5; -2.0; 7.0; Float.nan; -.Float.nan; infinity;
      neg_infinity ]
  in
  let* n = frequency [ (1, int_range 0 5); (4, int_range 6 60) ] in
  let* n_features = int_range 1 5 in
  let* kinds = array_repeat n_features (int_range 0 3) in
  let column kind =
    match kind with
    | 0 -> map (fun v -> Array.make n v) (oneofl pool)  (* constant *)
    | 1 -> array_repeat n (oneofl pool)  (* few distinct values *)
    | _ -> array_repeat n (gen_value pool)
  in
  let* columns = flatten_a (Array.map column kinds) in
  let rows = Array.init n (fun i -> Array.map (fun c -> c.(i)) columns) in
  let target = array_repeat n (gen_value [ 0.0; -0.0; 2.0; 2.0; -1.0 ]) in
  let* targets = target in
  let* targets2 = target in
  let* max_depth = int_range 1 6 in
  let* min_samples_leaf = int_range 1 4 in
  let* max_thresholds = int_range 1 20 in
  let* rounds = int_range 1 6 in
  return
    { rows; targets; targets2; rounds;
      config = { Tree.max_depth; min_samples_leaf; max_thresholds } }

let print_case c =
  Printf.sprintf "n=%d features=%d depth=%d leaf=%d thresholds=%d rounds=%d"
    (Array.length c.rows)
    (if Array.length c.rows = 0 then 0 else Array.length c.rows.(0))
    c.config.max_depth c.config.min_samples_leaf c.config.max_thresholds
    c.rounds

let arb_case = QCheck.make ~print:print_case gen_case

let gbt_config c =
  { Gbt.default_config with n_rounds = c.rounds; tree = c.config }

let prop_tree =
  QCheck.Test.make ~count:500 ~name:"presorted Tree.fit == legacy (bit-equal)"
    arb_case (fun c ->
      tree_equal
        (Tree.fit ~config:c.config c.rows c.targets)
        (Legacy_tree.fit ~config:c.config c.rows c.targets))

let prop_gbt =
  QCheck.Test.make ~count:200 ~name:"presorted Gbt.fit == legacy (bit-equal)"
    arb_case (fun c ->
      let config = gbt_config c in
      gbt_equal
        (Gbt.fit ~config c.rows c.targets)
        (Legacy_tree.gbt_fit ~config c.rows c.targets))

let prop_gbt_init =
  QCheck.Test.make ~count:200
    ~name:"presorted Gbt.fit ~init == legacy (bit-equal)" arb_case (fun c ->
      let config = gbt_config c in
      let prior = Legacy_tree.gbt_fit ~config c.rows c.targets in
      gbt_equal
        (Gbt.fit ~config ~init:prior c.rows c.targets2)
        (Legacy_tree.gbt_fit ~config ~init:prior c.rows c.targets2))

(* --- the split screen under stress --- *)

(* [Tree.fit_data] scores candidates approximately from per-bin sums and
   rescores exactly only those within a rounding-error margin of the
   best. These cases push on that margin: every target shares a large
   offset (1e6 or 1e12), so the sum of squares the margin scales with
   dwarfs the split scores it separates; feature columns are duplicated,
   so candidates on different features tie exactly and only the
   first-best rule may pick between them; and continuous columns have
   more distinct values than [max_thresholds]. Targets stay finite: with
   ±inf and NaN targets mixed in, the presorted fitter already differs
   from the list fitter in the sign bit of NaN leaves (-nan against nan),
   which is not what this property is about. *)
let gen_stress_case =
  let open QCheck.Gen in
  let* n = int_range 8 80 in
  let* n_base = int_range 1 3 in
  let column =
    frequency
      [ (3, array_repeat n (float_range (-50.0) 50.0));
        (1, array_repeat n (map float_of_int (int_range 0 5))) ]
  in
  let* base = array_repeat n_base column in
  let* copies = list_size (int_range 1 3) (int_range 0 (n_base - 1)) in
  let columns =
    Array.append base (Array.of_list (List.map (fun b -> base.(b)) copies))
  in
  let rows = Array.init n (fun i -> Array.map (fun c -> c.(i)) columns) in
  let* offset = oneofl [ 1e6; -1e6; 1e12; -1e12 ] in
  let* targets =
    array_repeat n
      (map (fun v -> offset +. v)
         (frequency
            [ (2, float_range (-10.0) 10.0);
              (1, map float_of_int (int_range (-2) 2)) ]))
  in
  let* max_depth = int_range 1 6 in
  let* min_samples_leaf = int_range 1 3 in
  let* max_thresholds = int_range 1 8 in
  return
    { rows; targets; targets2 = targets; rounds = 1;
      config = { Tree.max_depth; min_samples_leaf; max_thresholds } }

let prop_tree_stress =
  QCheck.Test.make ~count:500
    ~name:"presorted Tree.fit == legacy under offset targets and tied columns"
    (QCheck.make ~print:print_case gen_stress_case) (fun c ->
      tree_equal
        (Tree.fit ~config:c.config c.rows c.targets)
        (Legacy_tree.fit ~config:c.config c.rows c.targets))

(* --- histogram subtraction under stress --- *)

(* A split scans only its smaller child and subtracts it from the parent
   for the larger one, so the larger child's sums carry both operands'
   rounding, and a code stands for its first sample overall, whose bits
   may differ from the node's first. These cases aim at both: targets
   share a 1e6 offset with a spread of 1e-3, so [Q - S^2/n] and the
   subtracted sums cancel almost every digit; columns are duplicated or
   tied (an affine or negated copy splits the samples the same way), so
   candidates tie exactly; zero-heavy columns mix -0.0 and 0.0 in one
   code; and NaNs carry distinct payloads and signs, quiet and
   signalling, in one code. In most cases only the samples of a 30%
   tier share the offset, so the root splits them off and the other 70%,
   the larger child, gets near-zero targets from a subtracted histogram
   whose error comes from the offset: only the tracked error bound keeps
   the margin wide enough there. Deep trees with large leaves put
   subtracted histograms several levels down. *)
let gen_nan =
  let open QCheck.Gen in
  map3
    (fun sign quiet payload ->
      Int64.float_of_bits
        (List.fold_left Int64.logor 0x7FF0000000000000L
           [ (if sign then Int64.min_int else 0L);
             (if quiet then 0x0008000000000000L else 0L);
             Int64.of_int payload ]))
    bool bool (int_range 1 0xFFFF)

let gen_subtraction_case =
  let open QCheck.Gen in
  let* n = int_range 16 160 in
  let* n_base = int_range 1 4 in
  let column =
    frequency
      [ (2, array_repeat n (float_range (-50.0) 50.0));
        (2, array_repeat n (map float_of_int (int_range 0 5)));
        (2, array_repeat n (oneofl [ 0.0; -0.0; 0.0; -0.0; 1.0; -1.0; 2.5 ]));
        ( 2,
          array_repeat n
            (frequency [ (2, gen_nan); (3, map float_of_int (int_range (-2) 2)) ])
        ) ]
  in
  let* base = array_repeat n_base column in
  let copy =
    let* b = int_range 0 (n_base - 1) in
    oneofl
      [ base.(b);
        Array.map (fun x -> (2.0 *. x) +. 1.0) base.(b);
        Array.map (fun x -> -.x) base.(b) ]
  in
  let* copies = list_size (int_range 1 3) copy in
  let* tier = array_repeat n (map (fun r -> if r < 3 then 1.0 else 0.0) (int_bound 9)) in
  let columns = Array.concat [ [| tier |]; base; Array.of_list copies ] in
  let rows = Array.init n (fun i -> Array.map (fun c -> c.(i)) columns) in
  let* offset = oneofl [ 1e6; -1e6 ] in
  let* tiered = frequency [ (3, return true); (1, return false) ] in
  let target =
    let+ noise =
      array_repeat n
        (frequency
           [ (3, float_range (-5e-4) 5e-4);
             (1, oneofl [ -5e-4; 0.0; 2.5e-4; 5e-4 ]) ])
    in
    Array.mapi
      (fun i v -> (if tiered then offset *. tier.(i) else offset) +. v)
      noise
  in
  let* targets = target in
  let* targets2 = target in
  let* max_depth = int_range 1 8 in
  let* min_samples_leaf = int_range 1 8 in
  let* max_thresholds = int_range 1 20 in
  let* rounds = int_range 1 4 in
  return
    { rows; targets; targets2; rounds;
      config = { Tree.max_depth; min_samples_leaf; max_thresholds } }

let arb_subtraction_case = QCheck.make ~print:print_case gen_subtraction_case

let prop_tree_subtraction =
  QCheck.Test.make ~count:1000 ~name:"subtraction stress: Tree.fit == legacy"
    arb_subtraction_case (fun c ->
      tree_equal
        (Tree.fit ~config:c.config c.rows c.targets)
        (Legacy_tree.fit ~config:c.config c.rows c.targets))

let prop_gbt_subtraction =
  QCheck.Test.make ~count:100 ~name:"subtraction stress: Gbt.fit == legacy"
    arb_subtraction_case (fun c ->
      let config = gbt_config c in
      gbt_equal
        (Gbt.fit ~config c.rows c.targets)
        (Legacy_tree.gbt_fit ~config c.rows c.targets))

let prop_gbt_init_subtraction =
  QCheck.Test.make ~count:100
    ~name:"subtraction stress: Gbt.fit ~init == legacy" arb_subtraction_case
    (fun c ->
      let config = gbt_config c in
      let prior = Legacy_tree.gbt_fit ~config c.rows c.targets in
      gbt_equal
        (Gbt.fit ~config ~init:prior c.rows c.targets2)
        (Legacy_tree.gbt_fit ~config ~init:prior c.rows c.targets2))

(* --- the compiled scorer --- *)

(* The tuner scores a refit model as the prior's scores plus [Gbt.score]
   over only the new trees; that must equal [Gbt.predict] bit for bit. *)
let prop_score_fitted =
  QCheck.Test.make ~count:200
    ~name:"score ~skip onto predict prior == predict (bit-equal)" arb_case
    (fun c ->
      let config = gbt_config c in
      let prior = Gbt.fit ~config c.rows c.targets in
      let m = Gbt.fit ~config ~init:prior c.rows c.targets2 in
      let acc = Array.map (Gbt.predict prior) c.rows in
      Gbt.score ~skip:(Gbt.n_trees prior) m c.rows acc;
      Array.for_all2 (fun a x -> bits_equal a (Gbt.predict m x)) acc c.rows)

(* Ensembles drawn directly rather than fitted: depth-0 trees, mixed and
   unbalanced depths up to 7, NaN and infinite thresholds, and rows from
   the same pool of NaN, ±inf and ±0.0 values. Row counts cover every
   [n mod 4], and [skip] every prefix of the ensemble. Leaves and bases
   take ±inf and ±0.0 but no NaN: the sum of two NaNs keeps the sign of
   whichever operand the compiled code puts first, which OCaml leaves
   unspecified. A fit to finite targets has no NaN leaf, and ±inf ones
   only ever make the one default NaN. *)
type ensemble = {
  model : Gbt.t;
  xs : float array array;
  skip : int;
}

let value_pool =
  [ 0.0; -0.0; 1.0; 1.5; -2.0; 7.0; Float.nan; -.Float.nan; infinity;
    neg_infinity ]

let leaf_pool = [ 0.0; -0.0; 1.0; -2.0; infinity; neg_infinity ]

let gen_tree n_features =
  let open QCheck.Gen in
  let leaf = map (fun v -> Tree.Leaf v) (gen_value leaf_pool) in
  fix
    (fun self depth ->
      if depth = 0 then leaf
      else
        frequency
          [ (1, leaf);
            ( 3,
              map3
                (fun (feature, threshold) left right ->
                  Tree.Node { feature; threshold; left; right })
                (pair (int_bound (n_features - 1)) (gen_value value_pool))
                (self (depth - 1)) (self (depth - 1)) ) ])

let gen_ensemble =
  let open QCheck.Gen in
  let* n_features = int_range 1 5 in
  let* n_trees = int_range 0 8 in
  let* trees = list_repeat n_trees (int_range 0 7 >>= gen_tree n_features) in
  let* base = gen_value leaf_pool in
  let* learning_rate = oneofl [ 0.3; 0.1; 1.0 ] in
  let* n = int_range 0 13 in
  let* xs = array_repeat n (array_repeat n_features (gen_value value_pool)) in
  let* skip = int_range 0 n_trees in
  return { model = { Gbt.base; learning_rate; trees }; xs; skip }

let print_ensemble e =
  Printf.sprintf "rows=%d skip=%d depths=[%s]" (Array.length e.xs) e.skip
    (String.concat ";"
       (List.map (fun t -> string_of_int (Tree.depth t)) e.model.trees))

let prop_score_random =
  QCheck.Test.make ~count:500
    ~name:"score ~skip == predict on random ensembles (bit-equal)"
    (QCheck.make ~print:print_ensemble gen_ensemble) (fun e ->
      let head =
        { e.model with trees = List.filteri (fun j _ -> j < e.skip) e.model.trees }
      in
      let acc = Array.map (Gbt.predict head) e.xs in
      Gbt.score ~skip:e.skip e.model e.xs acc;
      Array.for_all2 (fun a x -> bits_equal a (Gbt.predict e.model x)) acc e.xs)

let test_score_rejects_deep_tree () =
  let rec chain d =
    if d = 0 then Tree.Leaf 1.0
    else
      Tree.Node
        { feature = 0; threshold = 0.0; left = Tree.Leaf 0.0; right = chain (d - 1) }
  in
  let xs = [| [| 1.0 |] |] in
  let score d = Gbt.score { Gbt.base = 0.0; learning_rate = 0.3; trees = [ chain d ] } xs in
  score 16 (Array.make 1 0.0);
  Alcotest.check_raises "depth 17"
    (Invalid_argument "Gbt.score: tree depth 17 exceeds 16") (fun () ->
      score 17 (Array.make 1 0.0))

(* --- a real pre-training set --- *)

(* MM_RN50_FC's ALCOP space, 512 seeded draws, analytical targets: the
   data [Tuner]'s pre-training fits, at a quarter of its sample size. *)
let pretrain_set =
  lazy
    (let hw = Alcop_hw.Hw_config.ampere_a100 in
     let spec = Alcop_workloads.Suites.mm_rn50_fc in
     let space = Alcop.Variants.space Alcop.Variants.alcop spec in
     let rng = Random.State.make [| 7 |] in
     let pairs =
       List.filter_map
         (fun _ ->
           let p = space.(Random.State.int rng (Array.length space)) in
           match Alcop_perfmodel.Model.predict_cycles hw spec p with
           | Some c ->
             Some (Alcop_perfmodel.Features.extract hw spec p, -.Float.log c)
           | None -> None)
         (List.init 512 Fun.id)
     in
     (Array.of_list (List.map fst pairs), Array.of_list (List.map snd pairs)))

let test_real_pretrain_set () =
  let xs, ys = Lazy.force pretrain_set in
  Alcotest.(check bool) "non-trivial set" true (Array.length xs > 256);
  let config = Tuner.pretrain_config in
  let fast = Gbt.fit ~config xs ys and slow = Legacy_tree.gbt_fit ~config xs ys in
  Alcotest.(check int) "rounds" (Gbt.n_trees slow) (Gbt.n_trees fast);
  Alcotest.(check bool) "bit-identical ensemble" true (gbt_equal fast slow)

let suite =
  [ ( "tree-equiv",
      List.map QCheck_alcotest.to_alcotest
        [ prop_tree; prop_gbt; prop_gbt_init; prop_tree_stress;
          prop_tree_subtraction; prop_gbt_subtraction;
          prop_gbt_init_subtraction; prop_score_fitted; prop_score_random ]
      @ [ Alcotest.test_case "score rejects a tree deeper than 16" `Quick
            test_score_rejects_deep_tree;
          Alcotest.test_case "MM_RN50_FC pre-training set == legacy" `Slow
            test_real_pretrain_set ] ) ]
