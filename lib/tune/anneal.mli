(** Simulated-annealing candidate proposal over the schedule space, in the
    role of TVM's sampler (paper Table II). *)

type config = {
  n_chains : int;
  n_steps : int;
  t_start : float;
  t_end : float;
}

val propose :
  ?config:config ->
  Random.State.t ->
  Space.indexed ->
  scores:float array ->
  exclude:(int -> bool) ->
  batch:int ->
  int list
(** Run annealing chains maximizing [scores.(i)], the score of point [i]
    of the indexed space; return up to [batch] distinct non-excluded
    indices, best-scored first, topped up randomly if chains found too
    few. *)
