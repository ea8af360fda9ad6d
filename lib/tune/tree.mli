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
(** A training set's feature columns, each sample's rank code per
    feature, and the fitter's working buffers. Not safe to fit from two
    domains at once. *)

val prepare : float array array -> data
(** Column-store the rows ([rows.(i).(f)]: feature [f] of sample [i];
    every row as long as the first) and give each (feature, sample) the
    dense rank of its value among the feature's distinct values under
    [Float.compare] (all NaNs share one code, as do -0.0 and 0.0). *)

val fit_data : ?config:config -> data -> float array -> t
(** Variance-minimizing splits over subsampled midpoint thresholds, fit to
    one target per sample.

    Each node screens every (feature, threshold) candidate with an
    approximate score [(Q_l - S_l^2/n_l) + (Q_r - S_r^2/n_r)] from a
    histogram of the node's targets over the feature's rank codes (per
    code: count, sum, sum of squares, and the first sample, whose value
    stands for the code), summed into bins between thresholds; features
    with one code are skipped. It then rescores exactly only
    the candidates within [margin = 64 * (m + max_thresholds) * eps * Q]
    of the lowest approximate score, for a node of [m] samples whose
    squared targets sum to [Q]. The margin exceeds the rounding error of
    both formulas, so a pruned candidate scores strictly above the
    minimum and cannot win or tie. When the margin is not finite (a
    non-finite target, or squares that may overflow) every candidate is
    rescored. Exact scores sum in ascending sample order and a later
    candidate must score strictly lower to win; the histograms feed only
    the screen, so the tree equals the list fitter's bit for bit. A split
    stable-partitions only the node's range of sample indices. *)

val fit : ?config:config -> float array array -> float array -> t
(** Test-only: the tree tests fit raw rows; the library prepares data once
    for {!fit_data}.
    [fit rows targets = fit_data (prepare rows) targets]. *)

val predict : t -> float array -> float
val depth : t -> int
(** Test-only: tests check tree shape. *)

val n_leaves : t -> int
(** Test-only: tests check tree shape. *)
