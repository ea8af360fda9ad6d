(* Schedule tuning methods — paper Table II and Sec. V-E.

   - [Grid]: an evenly strided sweep of the space; no learning.
   - [Xgb]: TVM's default: a gradient-boosted-trees cost model fit to the
     measured trials, with simulated annealing proposing each batch.
   - [Analytical_only]: rank the whole space by the analytical model of
     Table I; measure in rank order.
   - [Analytical_xgb] (ALCOP): pre-train the boosted model on analytical
     predictions over the space, then run the Xgb workflow; new boosting
     rounds fit measured residuals on top of the analytical prior.

   [evaluate] is the "hardware measurement" — in this repository, the
   event-driven timing simulator. [None] means the schedule failed to
   compile or launch (e.g. out of shared memory). *)

type method_ =
  | Grid
  | Xgb
  | Analytical_only
  | Analytical_xgb

let method_to_string = function
  | Grid -> "grid-search"
  | Xgb -> "XGB"
  | Analytical_only -> "analytical-only"
  | Analytical_xgb -> "analytical+XGB"

type trial = {
  index : int;
  params : Alcop_perfmodel.Params.t;
  cost : float option;  (** measured cycles; None = failed to compile *)
}

type result = {
  trials : trial array;  (** in measurement order *)
  space_size : int;
}

(* Running minimum over a cost sequence: [out.(i)] is the best Some cost
   among positions 0..i. One O(n) pass replaces the O(n·k) rescans that
   budget-sweep consumers (fig12's top-k curves, fig13's per-budget
   search-efficiency curves) used to do with repeated [best_within]. *)
let prefix_best_costs (costs : float option array) =
  let n = Array.length costs in
  let out = Array.make n None in
  let best = ref None in
  for i = 0 to n - 1 do
    (match costs.(i) with
     | Some c ->
       (match !best with
        | Some b when b <= c -> ()
        | _ -> best := Some c)
     | None -> ());
    out.(i) <- !best
  done;
  out

let prefix_best (r : result) =
  prefix_best_costs (Array.map (fun t -> t.cost) r.trials)

let best_within (r : result) k =
  let best = ref None in
  let k = min k (Array.length r.trials) in
  for i = 0 to k - 1 do
    match r.trials.(i).cost with
    | Some c ->
      (match !best with
       | Some b when b <= c -> ()
       | _ -> best := Some c)
    | None -> ()
  done;
  !best

let best (r : result) = best_within r (Array.length r.trials)

(* Stall attribution of the trial just measured: the timing simulator
   publishes [timing.stall.<class>] gauges for the representative wave of
   the last launch it timed, so right after [evaluate] those gauges
   describe *this* trial. That holds on compile-cache hits too: the shared
   [Session] re-publishes the [timing.*] gauges captured at the entry's
   cold compile, so the gauges always belong to the point just evaluated. *)
let stall_prefix = "timing.stall."

let last_stall_breakdown () =
  let plen = String.length stall_prefix in
  let entries =
    List.map
      (fun (name, v) ->
        (String.sub name plen (String.length name - plen),
         Alcop_obs.Json.Float v))
      (Alcop_obs.Obs.gauges_with_prefix stall_prefix)
  in
  match entries with
  | [] -> Alcop_obs.Json.Null
  | entries -> Alcop_obs.Json.Obj entries

(* Per-trial telemetry: one point event per measured trial carrying the
   best-so-far cost, the stall breakdown of the losing (or winning)
   schedule, and whether the measurement came out of the compile cache —
   so search-efficiency curves (paper Fig. 13), *why* each rejected
   candidate lost, and how much the shared [Session] saved are all
   reconstructible from the event log alone. Trials are numbered in
   measurement order, starting at 1. *)
let trial_recorder () =
  let best = ref None in
  let ordinal = ref 0 in
  let served_hits () =
    (* In-memory hits plus persistent-store hits: both mean the trial was
       served without running the compiler. *)
    Alcop_obs.Obs.counter_value "session.cache.hit"
    + Alcop_obs.Obs.counter_value "session.store.hit"
  in
  let cache_hits = ref (served_hits ()) in
  fun (t : trial) ->
    if Alcop_obs.Obs.enabled () then begin
      incr ordinal;
      (match t.cost with
       | Some c ->
         (match !best with
          | Some b when b <= c -> ()
          | _ -> best := Some c)
       | None -> ());
      (* The session bumps [session.cache.hit] (or [session.store.hit])
         during [evaluate]; a delta since the previous trial means this
         measurement was served from a cache rather than compiled. *)
      let hits_now = served_hits () in
      let cached = hits_now > !cache_hits in
      cache_hits := hits_now;
      let open Alcop_obs in
      let opt_float = function Some f -> Json.Float f | None -> Json.Null in
      Obs.point "tuner.trial"
        [ ("trial", Json.Int !ordinal);
          ("index", Json.Int t.index);
          ("schedule", Json.Str (Alcop_perfmodel.Params.to_string t.params));
          ("cost_cycles", opt_float t.cost);
          ("best_so_far", opt_float !best);
          ("cached", Json.Bool cached);
          ("stall",
           if t.cost = None then Json.Null else last_stall_breakdown ()) ];
      Obs.count "tuner.trials";
      if t.cost = None then Obs.count "tuner.compile_failures";
      if cached then Obs.count "tuner.trials_cached"
    end

(* Target encoding for the learned model: higher is better, scale-free. *)
let failure_target = -40.0

let target_of_cost = function
  | Some c when c > 0.0 -> -.Float.log c
  | Some _ | None -> failure_target

(* Measure a batch of (already deduplicated) space indices, fanned across
   the pool when one is given. [Pool.map_array] delivers results in index
   order and replays each measurement's telemetry immediately before the
   [each] callback, so [record] fires against exactly the state —
   best-so-far, cache-hit counter, timing.stall gauges — that a
   sequential loop would have seen. Without a pool this is the plain
   sequential loop. *)
let eval_batch ?pool ~(space : Alcop_perfmodel.Params.t array) ~evaluate
    ~record indices =
  match indices with
  | [] -> []
  | _ ->
    let mk i cost = { index = i; params = space.(i); cost } in
    (match pool with
     | Some p ->
       let idx = Array.of_list indices in
       let acc = ref [] in
       let (_ : float option array) =
         Alcop_par.Pool.map_array p
           ~each:(fun j cost ->
             let t = mk idx.(j) cost in
             record t;
             acc := t :: !acc)
           (fun i -> evaluate space.(i))
           idx
       in
       List.rev !acc
     | None ->
       List.map
         (fun i ->
           let t = mk i (evaluate space.(i)) in
           record t;
           t)
         indices)

let exhaustive ?pool ~(space : Alcop_perfmodel.Params.t array) ~evaluate () =
  let record = trial_recorder () in
  let trials =
    eval_batch ?pool ~space ~evaluate ~record
      (List.init (Array.length space) Fun.id)
  in
  { trials = Array.of_list trials; space_size = Array.length space }

let measure_order ?pool ~space ~evaluate order budget =
  let record = trial_recorder () in
  let seen = Hashtbl.create 64 in
  let picked = ref [] in
  let count = ref 0 in
  List.iter
    (fun i ->
      if !count < budget && not (Hashtbl.mem seen i) then begin
        Hashtbl.replace seen i ();
        incr count;
        picked := i :: !picked
      end)
    order;
  let trials =
    eval_batch ?pool ~space ~evaluate ~record (List.rev !picked)
  in
  { trials = Array.of_list trials; space_size = Array.length space }

let grid ~pool ~space ~evaluate ~budget =
  let n = Array.length space in
  let order =
    if budget >= n then List.init n Fun.id
    else List.init budget (fun i -> i * n / budget)
  in
  measure_order ?pool ~space ~evaluate order budget

let analytical_only ~pool ~hw ~spec ~space ~evaluate ~budget =
  let scored =
    Array.to_list
      (Array.mapi
         (fun i p ->
           (i, Alcop_perfmodel.Model.predict_cycles hw spec p))
         space)
  in
  let valid = List.filter_map (fun (i, c) -> Option.map (fun c -> (i, c)) c) scored in
  let order =
    List.map fst (List.sort (fun (_, a) (_, b) -> compare a b) valid)
  in
  measure_order ?pool ~space ~evaluate order budget

(* The shared Xgb workflow; [prior] carries the analytical pre-training.
   Every refit continues from the prior, so its trees are [prior.trees]
   followed by new ones and each point's score is the prior's prediction,
   computed once here, plus the new trees' fold on top. *)
let xgb_loop ~pool ~space ~feats ~evaluate ~budget ~seed ~prior =
  let rng = Random.State.make [| seed; 0xA1C0 |] in
  let idx = Space.index space in
  let scorer =
    match prior with
    | None -> fun (m : Gbt.t) i -> Gbt.predict m feats.(i)
    | Some p ->
      let prior_score = Array.map (Gbt.predict p) feats in
      let n_prior = Gbt.n_trees p in
      fun m ->
        let tail =
          { m with trees = List.filteri (fun j _ -> j >= n_prior) m.trees }
        in
        fun i -> Gbt.predict_from tail prior_score.(i) feats.(i)
  in
  let measured : (int, float option) Hashtbl.t = Hashtbl.create 64 in
  let trials = ref [] in
  let record = trial_recorder () in
  (* Dedup the proposed batch (a prior-less first batch is random draws
     and can repeat; [measured] excludes earlier batches) preserving
     proposal order, then measure the whole batch across the pool. *)
  let measure_batch batch =
    let seen = Hashtbl.create 8 in
    let fresh =
      List.filter
        (fun i ->
          if Hashtbl.mem measured i || Hashtbl.mem seen i then false
          else begin
            Hashtbl.replace seen i ();
            true
          end)
        batch
    in
    List.iter
      (fun t ->
        Hashtbl.replace measured t.index t.cost;
        trials := t :: !trials)
      (eval_batch ?pool ~space ~evaluate ~record fresh)
  in
  let batch_size = max 1 (min 8 budget) in
  (* Exact top-n of the whole space under the current model (exploitation);
     annealing fills the rest of a batch (exploration). *)
  let top_by_model score ~exclude n =
    let scored = ref [] in
    Array.iteri
      (fun i _ -> if not (exclude i) then scored := (score i, i) :: !scored)
      space;
    let sorted = List.sort (fun (a, _) (b, _) -> compare b a) !scored in
    List.filteri (fun j _ -> j < n) (List.map snd sorted)
  in
  let propose_batch m ~exclude n =
    let score = scorer m in
    let exploit = top_by_model score ~exclude (max 1 (n / 2)) in
    let exclude' i = exclude i || List.mem i exploit in
    let explore =
      Anneal.propose rng idx ~score ~exclude:exclude'
        ~batch:(n - List.length exploit)
    in
    exploit @ explore
  in
  let first_batch =
    match prior with
    | Some m ->
      (* With a pre-trained prior the very first batch already follows the
         model instead of being random — the key advantage at tiny trial
         budgets (paper Fig. 13, budget 10). *)
      propose_batch m ~exclude:(fun _ -> false) batch_size
    | None ->
      List.init batch_size (fun _ -> Random.State.int rng (Array.length space))
  in
  measure_batch first_batch;
  let rec loop () =
    if List.length !trials < budget then begin
      (* Refit on all measured data, continuing from the prior if any. *)
      let data = Hashtbl.fold (fun i c acc -> (i, c) :: acc) measured [] in
      let xs = Array.of_list (List.map (fun (i, _) -> feats.(i)) data) in
      let ys = Array.of_list (List.map (fun (_, c) -> target_of_cost c) data) in
      let fitted =
        Gbt.fit
          ~config:{ Gbt.default_config with n_rounds = 24 }
          ?init:prior xs ys
      in
      let remaining = budget - List.length !trials in
      let batch =
        propose_batch fitted ~exclude:(Hashtbl.mem measured)
          (min batch_size remaining)
      in
      match batch with
      | [] -> ()  (* the whole space has been measured *)
      | _ ->
        measure_batch batch;
        loop ()
    end
  in
  loop ();
  { trials = Array.of_list (List.rev !trials); space_size = Array.length space }

let pretrain_config =
  { Gbt.default_config with n_rounds = 64;
    tree = { Tree.default_config with max_depth = 6 } }

(* Pre-training set: analytical predictions over (a sample of) the space. *)
let pretrain_set ~hw ~spec ~space ~feats ~seed =
  let rng = Random.State.make [| seed; 0xF17 |] in
  let n = Array.length space in
  let sample_size = min n 2048 in
  let indices =
    if sample_size = n then List.init n Fun.id
    else List.init sample_size (fun _ -> Random.State.int rng n)
  in
  let pairs =
    List.filter_map
      (fun i ->
        match Alcop_perfmodel.Model.predict_cycles hw spec space.(i) with
        | Some c -> Some (feats.(i), -.Float.log c)
        | None -> None)
      indices
  in
  (Array.of_list (List.map fst pairs), Array.of_list (List.map snd pairs))

let pretrain ~hw ~spec ~space ~feats ~seed =
  let xs, ys = pretrain_set ~hw ~spec ~space ~feats ~seed in
  Gbt.fit ~config:pretrain_config xs ys

let run ?pool ~hw ~spec ~(space : Alcop_perfmodel.Params.t array) ~evaluate
    ~budget ~seed method_ =
  Alcop_obs.Obs.with_span "tuner.run"
    ~fields:
      [ ("op", Alcop_obs.Json.Str spec.Alcop_sched.Op_spec.name);
        ("method", Alcop_obs.Json.Str (method_to_string method_));
        ("budget", Alcop_obs.Json.Int budget);
        ("seed", Alcop_obs.Json.Int seed);
        ("space_size", Alcop_obs.Json.Int (Array.length space)) ]
  @@ fun () ->
  if Array.length space = 0 then { trials = [||]; space_size = 0 }
  else
    match method_ with
    | Grid -> grid ~pool ~space ~evaluate ~budget
    | Analytical_only ->
      analytical_only ~pool ~hw ~spec ~space ~evaluate ~budget
    | Xgb | Analytical_xgb ->
      let feats =
        Array.map (fun p -> Alcop_perfmodel.Features.extract hw spec p) space
      in
      let prior =
        if method_ = Xgb then None
        else
          Some
            (Alcop_obs.Obs.with_span "tuner.pretrain" (fun () ->
                 pretrain ~hw ~spec ~space ~feats ~seed))
      in
      xgb_loop ~pool ~space ~feats ~evaluate ~budget ~seed ~prior
