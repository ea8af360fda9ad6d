(** Gradient-boosted regression trees with squared loss — the learned cost
    model (the paper's XGBoost role). [fit ~init:prior] continues boosting
    from a prior ensemble: a model pre-trained on analytical predictions is
    fine-tuned by fitting measured residuals (paper Sec. IV-C). *)

type t = {
  base : float;
  learning_rate : float;
  trees : Tree.t list;
}

type config = {
  n_rounds : int;
  learning_rate : float;
  tree : Tree.config;
}

val default_config : config
val constant : float -> t
(** Test-only: the frozen reference fitter in the tests seeds its ensembles
    with it. *)

val predict : t -> float array -> float

val predict_from : t -> float -> float array -> float
(** [predict_from t acc x] folds [t]'s trees onto [acc] in place of
    [t.base], in the same order and arithmetic as {!predict}. For a model
    fit with [~init:prior], [predict_from { m with trees = new_trees }
    (predict prior x) x] equals [predict m x] bit for bit — callers that
    score a space repeatedly cache [predict prior] once. *)

val fit : ?config:config -> ?init:t -> float array array -> float array -> t
(** Column-stores and ranks the training set once ({!Tree.prepare}) and
    fits every round's tree against it. With [~init], the result's trees are
    [init.trees] followed by the new rounds, under [init]'s base and
    learning rate. *)

val n_trees : t -> int
