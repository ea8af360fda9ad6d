(* Frozen copy of the list-based regression-tree fitter and the boosting
   loop around it.

   This is [Tree.fit] and [Gbt.fit] exactly as they stood before the
   column-major, sort-once fitter landed: every node re-sorts each feature
   with polymorphic [compare] and [List.partition]s its samples once per
   candidate threshold. It exists only as the reference side of the QCheck
   equivalence properties in [Test_tree_equiv] — the presorted fitter must
   build bit-identical trees. It builds values of the library's [Tree.t]
   and [Gbt.t] so results compare directly. Do not "improve" it; its value
   is that it does not change. *)

open Alcop_tune
open Tree

let mean values idxs =
  if idxs = [] then 0.0
  else begin
    let sum = List.fold_left (fun acc i -> acc +. values.(i)) 0.0 idxs in
    sum /. float_of_int (List.length idxs)
  end

let sse values idxs =
  let mu = mean values idxs in
  List.fold_left
    (fun acc i ->
      let d = values.(i) -. mu in
      acc +. (d *. d))
    0.0 idxs

let candidate_thresholds cfg column idxs =
  let values =
    List.sort_uniq compare (List.map (fun i -> column i) idxs)
  in
  match values with
  | [] | [ _ ] -> []
  | _ ->
    let midpoints =
      let rec mids = function
        | a :: (b :: _ as rest) -> ((a +. b) /. 2.0) :: mids rest
        | [ _ ] | [] -> []
      in
      mids values
    in
    let n = List.length midpoints in
    if n <= cfg.max_thresholds then midpoints
    else begin
      let arr = Array.of_list midpoints in
      List.init cfg.max_thresholds (fun i -> arr.(i * n / cfg.max_thresholds))
    end

let fit ?(config = default_config) (features : float array array)
    (targets : float array) =
  let n_features =
    if Array.length features = 0 then 0 else Array.length features.(0)
  in
  let rec grow idxs depth =
    let node_sse = sse targets idxs in
    if
      depth >= config.max_depth
      || List.length idxs < 2 * config.min_samples_leaf
      || node_sse < 1e-12
    then Leaf (mean targets idxs)
    else begin
      let best = ref None in
      for f = 0 to n_features - 1 do
        let column i = features.(i).(f) in
        List.iter
          (fun thr ->
            let l, r = List.partition (fun i -> column i <= thr) idxs in
            if
              List.length l >= config.min_samples_leaf
              && List.length r >= config.min_samples_leaf
            then begin
              let score = sse targets l +. sse targets r in
              match !best with
              | Some (s, _, _, _, _) when s <= score -> ()
              | _ -> best := Some (score, f, thr, l, r)
            end)
          (candidate_thresholds config column idxs)
      done;
      match !best with
      | Some (score, f, thr, l, r) when score < node_sse -. 1e-12 ->
        Node
          { feature = f; threshold = thr; left = grow l (depth + 1);
            right = grow r (depth + 1) }
      | Some _ | None -> Leaf (mean targets idxs)
    end
  in
  if Array.length features = 0 then Leaf 0.0
  else grow (List.init (Array.length features) Fun.id) 0

let gbt_fit ?(config = Gbt.default_config) ?init
    (features : float array array) (targets : float array) : Gbt.t =
  let n = Array.length features in
  if n = 0 then Option.value init ~default:(Gbt.constant 0.0)
  else begin
    let start =
      match init with
      | Some (m : Gbt.t) -> { m with learning_rate = m.learning_rate }
      | None ->
        let mu = Array.fold_left ( +. ) 0.0 targets /. float_of_int n in
        { Gbt.base = mu; learning_rate = config.Gbt.learning_rate; trees = [] }
    in
    let current = Array.init n (fun i -> Gbt.predict start features.(i)) in
    let rec boost (model : Gbt.t) round =
      if round = config.Gbt.n_rounds then model
      else begin
        let residuals = Array.init n (fun i -> targets.(i) -. current.(i)) in
        let max_abs =
          Array.fold_left (fun a r -> Float.max a (Float.abs r)) 0.0 residuals
        in
        if max_abs < 1e-9 then model
        else begin
          let tree = fit ~config:config.Gbt.tree features residuals in
          Array.iteri
            (fun i x ->
              current.(i) <-
                current.(i) +. (model.learning_rate *. Tree.predict tree x))
            features;
          boost { model with trees = model.trees @ [ tree ] } (round + 1)
        end
      end
    in
    boost start 0
  end
