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

let predict_from (t : t) acc x =
  List.fold_left
    (fun acc tree -> acc +. (t.learning_rate *. Tree.predict tree x))
    acc t.trees

let predict (t : t) x = predict_from t t.base x

(* The training set is column-stored and ranked once per call
   ([Tree.prepare]); every round refits against the same rank codes. *)
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
          Array.iteri
            (fun i x ->
              current.(i) <-
                current.(i) +. (start.learning_rate *. Tree.predict tree x))
            features;
          boost (tree :: rev_trees) (round + 1)
        end
      end
    in
    let fresh = boost [] 0 in
    { start with trees = start.trees @ List.rev fresh }
  end

let n_trees t = List.length t.trees
