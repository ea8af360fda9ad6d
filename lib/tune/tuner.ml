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
   describe *this* trial. That holds on memo and store hits too: the
   shared [Session] re-publishes them from the record's kernel timing,
   through the same [Timing.publish_gauges], so the gauges always belong
   to the point just evaluated, whoever computed its record. *)
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

(* The [n] best non-excluded indices of [scores], best first: scores
   descending under [Float.compare] (NaN last), equal scores by
   descending index. That is the order the stable sort of a list built by
   prepending each (score, index) gave, found here in one pass that keeps
   only the best [n]. *)
let top_by_model (scores : float array) ~exclude n =
  let best = Array.make (max 0 n) 0 and len = ref 0 in
  let better i j =
    let c = Float.compare scores.(i) scores.(j) in
    c > 0 || (c = 0 && i > j)
  in
  for i = 0 to Array.length scores - 1 do
    if (not (exclude i)) && (!len < n || (n > 0 && better i best.(n - 1)))
    then begin
      (* Shift the worse entries down one place (the last falls off). *)
      let k = ref (min !len (n - 1)) in
      while !k > 0 && better i best.(!k - 1) do
        best.(!k) <- best.(!k - 1);
        decr k
      done;
      best.(!k) <- i;
      len := min n (!len + 1)
    end
  done;
  List.init !len (Array.get best)

(* The shared Xgb workflow; [prior] carries the analytical pre-training.
   A model is scored once over the whole space into an array that both
   the exact top-n and the annealer read. Every refit continues from the
   prior, so its trees are [prior.trees] followed by new ones: the
   prior's scores are computed once, and a refit adds only its new trees
   onto a copy of them in one reused buffer ([Gbt.score] keeps
   [Gbt.predict]'s arithmetic, so every score is bit-identical). *)
let xgb_loop ~pool ~space ~feats ~evaluate ~budget ~seed ~prior =
  let rng = Random.State.make [| seed; 0xA1C0 |] in
  let idx = Space.index space in
  let n = Array.length space in
  let prior_scores, n_prior =
    match prior with
    | None -> ([||], 0)
    | Some (p : Gbt.t) ->
      let s = Array.make n p.base in
      Gbt.score p feats s;
      (s, Gbt.n_trees p)
  in
  let buffer = lazy (Array.make n 0.0) in
  let scores_of (m : Gbt.t) =
    match prior with
    | Some _ when Gbt.n_trees m = n_prior -> prior_scores
    | Some _ ->
      let s = Lazy.force buffer in
      Array.blit prior_scores 0 s 0 n;
      Gbt.score ~skip:n_prior m feats s;
      s
    | None ->
      let s = Lazy.force buffer in
      Array.fill s 0 n m.base;
      Gbt.score m feats s;
      s
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
  let batch_size = min 8 budget in
  (* Exact top-n of the whole space under the current model (exploitation);
     annealing fills the rest of a batch (exploration). *)
  let propose_batch m ~exclude n =
    let scores = scores_of m in
    let exploit = top_by_model scores ~exclude (max 1 (n / 2)) in
    let exclude' i = exclude i || List.mem i exploit in
    let explore =
      Anneal.propose rng idx ~scores ~exclude:exclude'
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
  if Array.length space = 0 || budget <= 0 then
    { trials = [||]; space_size = Array.length space }
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
