(** Schedule tuning methods — paper Table II and Sec. V-E.

    [evaluate] plays the role of hardware measurement (here: the timing
    simulator); [None] marks schedules that fail to compile or launch. *)

type method_ =
  | Grid             (** evenly strided sweep, no learning *)
  | Xgb              (** TVM default: boosted trees + simulated annealing *)
  | Analytical_only  (** rank the space by the Table I model *)
  | Analytical_xgb   (** ALCOP: analytical pre-training + the Xgb workflow *)

val method_to_string : method_ -> string

type trial = {
  index : int;
  params : Alcop_perfmodel.Params.t;
  cost : float option;  (** measured cycles; [None] = failed to compile *)
}

type result = {
  trials : trial array;  (** in measurement order *)
  space_size : int;
}

val best_within : result -> int -> float option
(** Best measured cost among the first k trials. *)

val best : result -> float option

val prefix_best_costs : float option array -> float option array
(** Running minimum: element [i] is the best [Some] cost among positions
    [0..i] ([None] until the first success). One O(n) pass — use this
    instead of calling {!best_within} once per budget when sweeping
    budgets (fig12 / fig13). *)

val prefix_best : result -> float option array
(** {!prefix_best_costs} over the result's trial costs, so
    [(prefix_best r).(k - 1) = best_within r k] for [1 <= k <= n]. *)

val pretrain_config : Gbt.config
(** Boosting config of [Analytical_xgb]'s pre-training on analytical
    predictions (paper Sec. IV-C). *)

val pretrain_set :
  hw:Alcop_hw.Hw_config.t ->
  spec:Alcop_sched.Op_spec.t ->
  space:Alcop_perfmodel.Params.t array ->
  feats:float array array ->
  seed:int ->
  float array array * float array
(** The samples [Analytical_xgb] pre-trains on for this seed: up to 2048
    points of the space ([feats.(i)] are the features of [space.(i)])
    with the Table I model's [-log cycles] as targets. The prior is
    [Gbt.fit ~config:pretrain_config] of them. *)

val top_by_model : float array -> exclude:(int -> bool) -> int -> int list
(** Test-only: the tests check its order against a full sort.
    [top_by_model scores ~exclude n] is the [n] best indices [i] of
    [scores] with [not (exclude i)], best first: scores descending under
    [Float.compare] (NaN last), equal scores by descending index. One pass
    keeps the best [n] in order; nothing is sorted. *)

val exhaustive :
  ?pool:Alcop_par.Pool.t ->
  space:Alcop_perfmodel.Params.t array ->
  evaluate:(Alcop_perfmodel.Params.t -> float option) ->
  unit ->
  result

val run :
  ?pool:Alcop_par.Pool.t ->
  hw:Alcop_hw.Hw_config.t ->
  spec:Alcop_sched.Op_spec.t ->
  space:Alcop_perfmodel.Params.t array ->
  evaluate:(Alcop_perfmodel.Params.t -> float option) ->
  budget:int ->
  seed:int ->
  method_ ->
  result
(** Deterministic for a given seed. Each space point is measured at most
    once; the run stops early if the space is exhausted. A [budget] of 0
    or below measures nothing and returns no trials, under every method.

    With [pool], each proposed batch of candidates is measured across the
    worker domains; the trial array, per-trial telemetry and tuning log
    are bit-identical to the sequential run — parallelism only changes
    wall-clock time (doc/parallelism.md spells out the contract). *)
