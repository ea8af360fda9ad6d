(* Simulated-annealing candidate proposal over the schedule space, in the
   role of TVM's sampler (paper Table II, "Sampling: Simulated Annealing").
   Chains walk knob-distance-one neighbours; all visited points are scored
   by the cost model and the best unmeasured ones form the next trial
   batch. *)

type config = {
  n_chains : int;
  n_steps : int;
  t_start : float;
  t_end : float;
}

let default_config = { n_chains = 16; n_steps = 48; t_start = 1.0; t_end = 0.05 }

(* [scores.(i)] is point [i]'s model score, "higher is better" (e.g.
   -log predicted cycles). *)
let propose ?(config = default_config) rng (idx : Space.indexed)
    ~(scores : float array) ~(exclude : int -> bool) ~batch =
  let n = Array.length scores in
  if n = 0 then []
  else begin
    let visited = Hashtbl.create 256 in
    let note i = if not (Hashtbl.mem visited i) then Hashtbl.replace visited i scores.(i) in
    let cooling =
      exp (log (config.t_end /. config.t_start) /. float_of_int config.n_steps)
    in
    for _ = 1 to config.n_chains do
      let current = ref (Random.State.int rng n) in
      note !current;
      let temp = ref config.t_start in
      for _ = 1 to config.n_steps do
        let cand = Space.neighbour idx rng !current in
        note cand;
        let delta = scores.(cand) -. scores.(!current) in
        if delta >= 0.0 || Random.State.float rng 1.0 < exp (delta /. !temp)
        then current := cand;
        temp := !temp *. cooling
      done
    done;
    let scored =
      Hashtbl.fold
        (fun i s acc -> if exclude i then acc else (i, s) :: acc)
        visited []
    in
    let sorted = List.sort (fun (_, a) (_, b) -> compare b a) scored in
    let rec take k = function
      | [] -> []
      | (i, _) :: rest -> if k = 0 then [] else i :: take (k - 1) rest
    in
    let chosen = take batch sorted in
    (* Top up with random unmeasured points if annealing found too few. *)
    let rec top_up acc tries =
      if List.length acc >= batch || tries = 0 then acc
      else begin
        let i = Random.State.int rng n in
        if exclude i || List.mem i acc then top_up acc (tries - 1)
        else top_up (acc @ [ i ]) (tries - 1)
      end
    in
    top_up chosen (8 * batch)
  end
