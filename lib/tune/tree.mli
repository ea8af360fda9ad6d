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
    [Float.compare] (all NaNs share one code, as do -0.0 and 0.0). The
    codes of the features with more than one value are kept row-major,
    one histogram slot per (sample, feature). *)

val fit_data : ?config:config -> data -> float array -> t
(** Variance-minimizing splits over subsampled midpoint thresholds, fit to
    one target per sample. Raises [Invalid_argument] if there are fewer
    targets than samples.

    Each node screens every (feature, threshold) candidate with an
    approximate score [Q - S_l^2/n_l - S_r^2/n_r] (Q: the node's sum of
    squared targets) from its histogram of per-code count and target sum,
    summed into bins between thresholds; features with one code are
    skipped. One pass over a node's samples fills every feature's
    histogram. Histograms are kept one per depth: a split scans only its
    smaller child, and the larger child's histogram is the parent's minus
    the smaller's. Each histogram carries a bound on its sums' rounding
    error (the scan's, plus both operands' for a subtraction), and the
    node rescores exactly only the candidates within a margin of the
    lowest approximate score that exceeds the error of both formulas, so
    a pruned candidate scores strictly above the minimum and cannot win
    or tie. When the margin or an approximate score is not finite (a
    non-finite target, or squares that may overflow) every candidate is
    rescored. A lone survivor wins, and is rescored only if its score is
    within the margin of the split test's [SSE - 1e-12]. Exact scores sum
    in ascending sample order and a later candidate must score strictly
    lower to win; the histograms feed only the screen, and a code's value
    is its lowest-index sample's, which gives every threshold a split can
    use the list fitter's bits, so the tree equals the list fitter's bit
    for bit. A split stable-partitions only the node's range of sample
    indices. *)

val add_fitted : data -> float -> float array -> unit
(** [add_fitted d scale acc] adds [scale *. v] to [acc.(i)] for every
    sample [i] of [d], where [v] is the leaf of the last tree {!fit_data}
    fit on [d] that sample [i] falls in, i.e. [predict tree rows.(i)], read
    off the node ranges the fit partitioned. *)

val fit : ?config:config -> float array array -> float array -> t
(** Test-only: the tree tests fit raw rows; the library prepares data once
    for {!fit_data}.
    [fit rows targets = fit_data (prepare rows) targets]. *)

val predict : t -> float array -> float
val depth : t -> int
(** Test-only: tests check tree shape. *)

val n_leaves : t -> int
(** Test-only: tests check tree shape. *)
