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
(** Test-only: the tests check fits and {!score} against it; the tuner
    scores whole spaces with {!score}. *)

val score : ?skip:int -> t -> float array array -> float array -> unit
(** [score ~skip t xs acc] adds the trees of [t] after its first [skip]
    (default 0) onto each [acc.(i)], for the row [xs.(i)]: tree by tree in
    boosting order, [acc.(i) <- acc.(i) +. t.learning_rate *. leaf], the
    arithmetic of {!predict}. So from [acc.(i) = t.base] it leaves
    [predict t xs.(i)] bit for bit, and for [t] fit with [~init:prior] it
    leaves [predict t xs.(i)] from [acc.(i) = predict prior xs.(i)] with
    [~skip:(n_trees prior)].

    Each tree is compiled to a complete binary tree of its depth, walked
    without branches four rows at a time. Raises [Invalid_argument] if a
    tree is deeper than 16, a split reads a feature outside a row, or [xs]
    and [acc] differ in length. *)

val fit : ?config:config -> ?init:t -> float array array -> float array -> t
(** Column-stores and ranks the training set once ({!Tree.prepare}) and
    fits every round's tree against it. With [~init], the result's trees are
    [init.trees] followed by the new rounds, under [init]'s base and
    learning rate. *)

val n_trees : t -> int
