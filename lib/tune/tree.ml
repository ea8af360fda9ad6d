(* CART-style regression trees: the weak learners of the gradient-boosted
   cost model (our stand-in for XGBoost). Splits minimize weighted variance
   of the target; thresholds are subsampled midpoints of the sorted unique
   feature values.

   The fitter is column-major and sorts each feature once ([prepare]): a
   node owns one range of an ascending sample-index array plus the same
   range of every feature's value order, and a split stable-partitions all
   of them, so children inherit sorted slices without re-sorting. Every
   floating-point sum (node mean and SSE, and each candidate threshold's
   left/right mean and SSE) runs over the node's samples in ascending
   index order, exactly as a fold over the sample list would — so the
   trees are bit-identical to the straightforward list fitter that
   re-sorts and re-partitions per threshold (kept as a test oracle). *)

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
  max_thresholds : int;  (** candidate split thresholds per feature *)
}

let default_config = { max_depth = 5; min_samples_leaf = 2; max_thresholds = 16 }

(* Column store of one training set, plus the fitter's working buffers.
   [orders.(f)] is every sample sorted by feature [f] (stable, under
   [Float.compare]); [fit_data] copies it into [slices.(f)] and partitions
   the copy in place, range by range. *)
type data = {
  columns : float array array;  (** [columns.(f).(i)]: feature f of sample i *)
  orders : int array array;
  idx : int array;  (** node ranges of ascending sample indices *)
  slices : int array array;  (** node ranges of each feature's order *)
  scratch : int array;  (** right half of a stable partition *)
  goes_left : Bytes.t;  (** per sample, during a partition *)
  uniq : float array;  (** distinct values of one node slice *)
}

let prepare (rows : float array array) =
  let n = Array.length rows in
  let n_features = if n = 0 then 0 else Array.length rows.(0) in
  let columns = Array.init n_features (fun f -> Array.init n (fun i -> rows.(i).(f))) in
  let orders =
    Array.map
      (fun col ->
        let o = Array.init n Fun.id in
        Array.stable_sort (fun a b -> Float.compare col.(a) col.(b)) o;
        o)
      columns
  in
  { columns; orders; idx = Array.make n 0;
    slices = Array.map (fun _ -> Array.make n 0) columns;
    scratch = Array.make n 0; goes_left = Bytes.make n '\000';
    uniq = Array.make n 0.0 }

(* Stable in-place partition of [a.(lo..hi-1)] by [goes_left]. *)
let partition d a lo hi =
  let l = ref lo and r = ref 0 in
  for k = lo to hi - 1 do
    let i = a.(k) in
    if Bytes.unsafe_get d.goes_left i <> '\000' then begin
      a.(!l) <- i;
      incr l
    end
    else begin
      d.scratch.(!r) <- i;
      incr r
    end
  done;
  Array.blit d.scratch 0 a !l !r

let fit_data ?(config = default_config) d (targets : float array) =
  let n_features = Array.length d.columns in
  let idx = d.idx in
  let max_t = config.max_thresholds in
  let thr = Array.make max_t 0.0 in
  let sum_l = Array.make max_t 0.0 and sum_r = Array.make max_t 0.0 in
  let cnt_l = Array.make max_t 0 in
  let sse_l = Array.make max_t 0.0 and sse_r = Array.make max_t 0.0 in
  let mean lo hi =
    if hi = lo then 0.0
    else begin
      let sum = ref 0.0 in
      for k = lo to hi - 1 do
        sum := !sum +. targets.(idx.(k))
      done;
      !sum /. float_of_int (hi - lo)
    end
  in
  let sse lo hi =
    let mu = mean lo hi in
    let acc = ref 0.0 in
    for k = lo to hi - 1 do
      let dv = targets.(idx.(k)) -. mu in
      acc := !acc +. (dv *. dv)
    done;
    !acc
  in
  (* Candidate thresholds of feature [f] at node [lo, hi): midpoints of
     the distinct values of its sorted slice, evenly subsampled down to
     [max_thresholds]. Returns how many were written to [thr]. *)
  let thresholds f lo hi =
    let col = d.columns.(f) and slice = d.slices.(f) and uniq = d.uniq in
    let u = ref 0 in
    for k = lo to hi - 1 do
      let v = col.(slice.(k)) in
      if !u = 0 || Float.compare uniq.(!u - 1) v <> 0 then begin
        uniq.(!u) <- v;
        incr u
      end
    done;
    let n_mid = !u - 1 in
    let n_thr = max 0 (min n_mid max_t) in
    for j = 0 to n_thr - 1 do
      let q = if n_mid <= max_t then j else j * n_mid / max_t in
      thr.(j) <- (uniq.(q) +. uniq.(q + 1)) /. 2.0
    done;
    n_thr
  in
  let rec grow lo hi depth =
    let m = hi - lo in
    let node_sse = sse lo hi in
    if
      depth >= config.max_depth
      || m < 2 * config.min_samples_leaf
      || node_sse < 1e-12
    then Leaf (mean lo hi)
    else begin
      let best_score = ref 0.0 and best_f = ref (-1) and best_thr = ref 0.0 in
      for f = 0 to n_features - 1 do
        let col = d.columns.(f) in
        let n_thr = thresholds f lo hi in
        if n_thr > 0 then begin
          (* Pass 1: per-threshold sums and counts of both sides. The
             inner loops index only below [n_thr <= max_thresholds], the
             length of every accumulator. *)
          Array.fill sum_l 0 n_thr 0.0;
          Array.fill sum_r 0 n_thr 0.0;
          Array.fill cnt_l 0 n_thr 0;
          for k = lo to hi - 1 do
            let i = idx.(k) in
            let x = col.(i) and y = targets.(i) in
            for j = 0 to n_thr - 1 do
              if x <= Array.unsafe_get thr j then begin
                Array.unsafe_set sum_l j (Array.unsafe_get sum_l j +. y);
                Array.unsafe_set cnt_l j (Array.unsafe_get cnt_l j + 1)
              end
              else Array.unsafe_set sum_r j (Array.unsafe_get sum_r j +. y)
            done
          done;
          (* Turn sums into means in place; pass 2 sums squared deviations. *)
          for j = 0 to n_thr - 1 do
            let nl = cnt_l.(j) in
            let nr = m - nl in
            sum_l.(j) <- (if nl = 0 then 0.0 else sum_l.(j) /. float_of_int nl);
            sum_r.(j) <- (if nr = 0 then 0.0 else sum_r.(j) /. float_of_int nr)
          done;
          Array.fill sse_l 0 n_thr 0.0;
          Array.fill sse_r 0 n_thr 0.0;
          for k = lo to hi - 1 do
            let i = idx.(k) in
            let x = col.(i) and y = targets.(i) in
            for j = 0 to n_thr - 1 do
              if x <= Array.unsafe_get thr j then begin
                let dv = y -. Array.unsafe_get sum_l j in
                Array.unsafe_set sse_l j (Array.unsafe_get sse_l j +. (dv *. dv))
              end
              else begin
                let dv = y -. Array.unsafe_get sum_r j in
                Array.unsafe_set sse_r j (Array.unsafe_get sse_r j +. (dv *. dv))
              end
            done
          done;
          (* First best wins: a later candidate must score strictly lower. *)
          for j = 0 to n_thr - 1 do
            let nl = cnt_l.(j) in
            if nl >= config.min_samples_leaf
               && m - nl >= config.min_samples_leaf
            then begin
              let score = sse_l.(j) +. sse_r.(j) in
              if !best_f < 0 || not (!best_score <= score) then begin
                best_score := score;
                best_f := f;
                best_thr := thr.(j)
              end
            end
          done
        end
      done;
      if !best_f >= 0 && !best_score < node_sse -. 1e-12 then begin
        let col = d.columns.(!best_f) and t = !best_thr in
        let n_left = ref 0 in
        for k = lo to hi - 1 do
          let i = idx.(k) in
          let left = col.(i) <= t in
          if left then incr n_left;
          Bytes.unsafe_set d.goes_left i (if left then '\001' else '\000')
        done;
        partition d idx lo hi;
        Array.iter (fun s -> partition d s lo hi) d.slices;
        let mid = lo + !n_left in
        let left = grow lo mid (depth + 1) in
        let right = grow mid hi (depth + 1) in
        Node { feature = !best_f; threshold = t; left; right }
      end
      else Leaf (mean lo hi)
    end
  in
  let n = Array.length idx in
  if n = 0 then Leaf 0.0
  else begin
    for i = 0 to n - 1 do
      idx.(i) <- i
    done;
    Array.iteri (fun f o -> Array.blit o 0 d.slices.(f) 0 n) d.orders;
    grow 0 n 0
  end

let fit ?config features targets = fit_data ?config (prepare features) targets

let rec predict t x =
  match t with
  | Leaf v -> v
  | Node { feature; threshold; left; right } ->
    if x.(feature) <= threshold then predict left x else predict right x

let rec depth = function
  | Leaf _ -> 0
  | Node { left; right; _ } -> 1 + max (depth left) (depth right)

let rec n_leaves = function
  | Leaf _ -> 1
  | Node { left; right; _ } -> n_leaves left + n_leaves right
