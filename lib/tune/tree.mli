(** CART-style regression trees: the weak learners of the gradient-boosted
    cost model. *)

type t =
  | Leaf of float
  | Node of {
      feature : int;
      threshold : float;
      left : t;   (** feature value <= threshold *)
      right : t;
    }

type config = {
  max_depth : int;
  min_samples_leaf : int;
  max_thresholds : int;
}

val default_config : config

type data
(** A training set's feature columns, each feature's sample order sorted
    once, and the fitter's working buffers. Not safe to fit from two
    domains at once. *)

val prepare : float array array -> data
(** Column-store and presort the rows ([rows.(i).(f)]: feature [f] of
    sample [i]; every row as long as the first). *)

val fit_data : ?config:config -> data -> float array -> t
(** Variance-minimizing splits over subsampled midpoint thresholds, fit to
    one target per sample. Every sum runs in ascending sample order and a
    later candidate must score strictly lower to win, so the tree does not
    depend on how the samples were sorted. *)

val fit : ?config:config -> float array array -> float array -> t
(** [fit rows targets = fit_data (prepare rows) targets]. *)

val predict : t -> float array -> float
val depth : t -> int
val n_leaves : t -> int
