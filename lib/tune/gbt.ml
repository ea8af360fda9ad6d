(* Gradient-boosted regression trees with squared loss: the learned cost
   model of the ML-based tuner (the paper's XGBoost role). Boosting on
   squared loss fits each tree to the residuals of the current ensemble,
   which also gives the analytical pre-training of Sec. IV-C for free:
   [fit ~init:prior] continues boosting from a prior ensemble, so a model
   pre-trained on analytical predictions is fine-tuned by fitting measured
   residuals. *)

type t = {
  base : float;
  learning_rate : float;
  trees : Tree.t list;  (** in boosting order *)
}

type config = {
  n_rounds : int;
  learning_rate : float;
  tree : Tree.config;
}

let default_config =
  { n_rounds = 40; learning_rate = 0.3; tree = Tree.default_config }

let constant v = { base = v; learning_rate = 0.3; trees = [] }

let predict (t : t) x =
  List.fold_left
    (fun acc tree -> acc +. (t.learning_rate *. Tree.predict tree x))
    t.base t.trees

(* A tree compiled for scoring: the complete binary tree of its depth [d]
   in heap order, node [h]'s children at [2h + 1] (left, [x.(f) <= thr])
   and [2h + 2]. A leaf above the bottom level is copied into every bottom
   slot under it, and the split nodes below it are padding that reads
   feature 0, so every walk takes exactly [d] branch-free steps. Every
   array stays under the minor heap's size limit for [d <= 7]. *)
type compiled = {
  depth : int;
  feature : int array;  (** [2^d - 1] split nodes *)
  threshold : float array;
  leaf : float array;  (** [2^d] bottom slots, left to right *)
  width : int;  (** 1 + the highest feature a split reads; 0 for a leaf *)
}

let max_compiled_depth = 16

let compile (tree : Tree.t) =
  let d = Tree.depth tree in
  if d > max_compiled_depth then
    invalid_arg
      (Printf.sprintf "Gbt.score: tree depth %d exceeds %d" d
         max_compiled_depth);
  let feature = Array.make ((1 lsl d) - 1) 0 in
  let threshold = Array.make ((1 lsl d) - 1) Float.nan in
  let leaf = Array.make (1 lsl d) 0.0 in
  let width = ref 0 in
  let rec fill (t : Tree.t) h level =
    match t with
    | Leaf v ->
      let span = 1 lsl (d - level) in
      Array.fill leaf ((h + 1 - (1 lsl level)) * span) span v
    | Node n ->
      if n.feature < 0 then invalid_arg "Gbt.score: negative feature";
      feature.(h) <- n.feature;
      threshold.(h) <- n.threshold;
      width := max !width (n.feature + 1);
      fill n.left ((2 * h) + 1) (level + 1);
      fill n.right ((2 * h) + 2) (level + 1)
  in
  fill tree 0 0;
  { depth = d; feature; threshold; leaf; width = !width }

(* One walk step from split node [h]: a NaN feature compares false and
   goes right, as in [Tree.predict]. [score] has checked every row's
   length against the trees' widths, and [h] stays below [2^d - 1]. *)
let[@inline] step feature threshold (x : float array) h =
  (2 * h) + 2
  - Bool.to_int
      (Array.unsafe_get x (Array.unsafe_get feature h)
       <= Array.unsafe_get threshold h)

(* Four rows walk each tree in lockstep, so their independent steps
   overlap. Each row's score takes the trees in boosting order, one
   [acc +. lr *. leaf] per tree. In a last group of fewer than four rows
   the last row fills the empty places: each copy reads the same score
   before any is written and writes the same sum back. *)
let score ?(skip = 0) (t : t) (xs : float array array) (acc : float array) =
  let n = Array.length acc in
  if Array.length xs <> n then
    invalid_arg "Gbt.score: rows and scores differ in length";
  let trees =
    Array.of_list (List.filteri (fun j _ -> j >= skip) t.trees)
    |> Array.map compile
  in
  let width = Array.fold_left (fun w c -> max w c.width) 0 trees in
  Array.iter
    (fun x ->
      if Array.length x < width then
        invalid_arg "Gbt.score: a row is shorter than a split's feature")
    xs;
  let lr = t.learning_rate in
  let k = ref 0 in
  while !k < n do
    let r0 = !k and r1 = min (!k + 1) (n - 1) and r2 = min (!k + 2) (n - 1)
    and r3 = min (!k + 3) (n - 1) in
    let x0 = xs.(r0) and x1 = xs.(r1) and x2 = xs.(r2) and x3 = xs.(r3) in
    let a0 = ref acc.(r0) and a1 = ref acc.(r1) and a2 = ref acc.(r2)
    and a3 = ref acc.(r3) in
    for j = 0 to Array.length trees - 1 do
      let { depth; feature; threshold; leaf; _ } = trees.(j) in
      let h0 = ref 0 and h1 = ref 0 and h2 = ref 0 and h3 = ref 0 in
      for _ = 1 to depth do
        h0 := step feature threshold x0 !h0;
        h1 := step feature threshold x1 !h1;
        h2 := step feature threshold x2 !h2;
        h3 := step feature threshold x3 !h3
      done;
      let bottom = (1 lsl depth) - 1 in
      a0 := !a0 +. (lr *. Array.unsafe_get leaf (!h0 - bottom));
      a1 := !a1 +. (lr *. Array.unsafe_get leaf (!h1 - bottom));
      a2 := !a2 +. (lr *. Array.unsafe_get leaf (!h2 - bottom));
      a3 := !a3 +. (lr *. Array.unsafe_get leaf (!h3 - bottom))
    done;
    acc.(r0) <- !a0;
    acc.(r1) <- !a1;
    acc.(r2) <- !a2;
    acc.(r3) <- !a3;
    k := !k + 4
  done

(* The training set is column-stored and ranked once per call
   ([Tree.prepare]); every round refits against the same rank codes, and
   adds its tree's leaf to each sample's running prediction from the node
   ranges the fit partitioned ([Tree.add_fitted]): the leaf [Tree.predict]
   would reach, without walking the tree. *)
let fit ?(config = default_config) ?init (features : float array array)
    (targets : float array) =
  let n = Array.length features in
  if n = 0 then Option.value init ~default:(constant 0.0)
  else begin
    (* When continuing from a prior, the prior's learning rate is kept so
       its trees' contributions stay calibrated; new trees use the same
       rate. *)
    let start =
      match init with
      | Some m -> m
      | None ->
        let mu = Array.fold_left ( +. ) 0.0 targets /. float_of_int n in
        { base = mu; learning_rate = config.learning_rate; trees = [] }
    in
    let data = Tree.prepare features in
    let current = Array.map (predict start) features in
    let residuals = Array.make n 0.0 in
    let rec boost rev_trees round =
      if round = config.n_rounds then rev_trees
      else begin
        (* Stop once every residual is below 1e-9 (a NaN never is). *)
        let converged = ref true in
        for i = 0 to n - 1 do
          let r = targets.(i) -. current.(i) in
          residuals.(i) <- r;
          if not (Float.abs r < 1e-9) then converged := false
        done;
        if !converged then rev_trees
        else begin
          let tree = Tree.fit_data ~config:config.tree data residuals in
          Tree.add_fitted data start.learning_rate current;
          boost (tree :: rev_trees) (round + 1)
        end
      end
    in
    let fresh = boost [] 0 in
    { start with trees = start.trees @ List.rev fresh }
  end

let n_trees t = List.length t.trees
