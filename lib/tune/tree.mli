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
    one target per sample.

    Each node screens every (feature, threshold) candidate with an
    approximate score from per-bin sums over the feature's sorted slice,
    [(Q_l - S_l^2/n_l) + (Q_r - S_r^2/n_r)], then rescores exactly only
    the candidates within [margin = 64 * (m + max_thresholds) * eps * Q]
    of the lowest approximate score, for a node of [m] samples whose
    squared targets sum to [Q]. The margin exceeds the rounding error of
    both formulas, so a pruned candidate scores strictly above the
    minimum and cannot win or tie. When the margin is not finite (a
    non-finite target, or squares that may overflow) every candidate is
    rescored. Exact scores sum in ascending sample order and a later
    candidate must score strictly lower to win, so the tree does not
    depend on how the samples were sorted, and equals the list fitter's
    bit for bit. *)

val fit : ?config:config -> float array array -> float array -> t
(** [fit rows targets = fit_data (prepare rows) targets]. *)

val predict : t -> float array -> float
val depth : t -> int
val n_leaves : t -> int
