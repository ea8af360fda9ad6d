(* CART-style regression trees: the weak learners of the gradient-boosted
   cost model (our stand-in for XGBoost). Splits minimize weighted variance
   of the target; thresholds are subsampled midpoints of the sorted unique
   feature values.

   The fitter is column-major and sorts each feature once ([prepare]): a
   node owns one range of an ascending sample-index array plus the same
   range of every feature's value order, and a split stable-partitions all
   of them, so children inherit sorted slices without re-sorting.

   A node picks its split in two steps. The screen walks each feature's
   sorted slice once, drops every sample into the bin between two
   consecutive thresholds, and keeps per-bin count, sum and sum of
   squares; prefix and suffix sums over the bins then give every
   threshold an approximate score [(Q_l - S_l^2/n_l) + (Q_r - S_r^2/n_r)].
   Only the candidates whose approximate score lies within a
   rounding-error margin of the best one ([margin_factor] below) are
   rescored exactly, with the two-pass arithmetic (side means, then
   summed squared deviations) in ascending sample order — exactly as a
   fold over the sample list would — and the first strictly best exact
   score wins. A candidate the margin prunes scores strictly above the
   minimum, so it could neither win nor tie; when the targets are not
   finite the margin bounds nothing and every candidate is rescored. So
   the trees are bit-identical to the straightforward list fitter that
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
   the copy in place, range by range. The candidate table holds one
   node's screened splits; it is sized on the first fit and reused by
   every later fit of the same data. *)
type data = {
  columns : float array array;  (** [columns.(f).(i)]: feature f of sample i *)
  orders : int array array;
  idx : int array;  (** node ranges of ascending sample indices *)
  slices : int array array;  (** node ranges of each feature's order *)
  scratch : int array;  (** right half of a stable partition *)
  goes_left : Bytes.t;  (** per sample, during a partition *)
  uniq : float array;  (** distinct values of one node slice *)
  mutable cand_f : int array;  (** feature of each screened candidate *)
  mutable cand_thr : float array;  (** its threshold *)
  mutable cand_score : float array;  (** its approximate score *)
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
    uniq = Array.make n 0.0;
    cand_f = [||]; cand_thr = [||]; cand_score = [||] }

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

(* Rounding-error margin of the screen, in units of [epsilon_float]
   times the node's sum of squared targets Q: a node of m samples with
   at most T = [max_thresholds] thresholds per feature prunes with
   [margin = 64 * (m + T) * epsilon_float * Q] (T = 16 by default).

   Write SSE for the real-arithmetic score of a split (the sum of both
   sides' squared deviations from their means) and g_k = k*eps/(1-k*eps).
   - Exact two-pass score: each side's sum is within g_n * sum |y| of the
     true sum, so n * (mean error)^2 <= g_(n+1)^2 * Q. Every squared
     deviation carries 3 roundings and the sum of n non-negative terms
     g_(n-1) more, so each side is within g_(n+2) * Q_side + 2 g^2 Q of
     its SSE, and the final add costs eps * score: |exact - SSE| <=
     (m + 3) * eps * Q to first order.
   - Screened score: a sample reaches its side's S and Q through one
     square, at most n_side in-bin additions and T prefix (or suffix)
     additions, so |S^ - S| <= g_(n+T+1) * sum |y| and |Q^ - Q| <=
     g_(n+T+1) * Q. As |S| * sum |y| / n <= Q (Cauchy-Schwarz), S^2/n is
     within (2 g_(n+T+1) + 2 eps) * Q, and the subtraction and the final
     add cost eps each: |approx - SSE| <= (3(m + T) + 7) * eps * Q to
     first order.
   Together |approx - exact| <= 4 * (m + T + 3) * eps * Q; the factor 64
   leaves ample room for the second-order terms, the rounding of the
   comparison itself, Q's own rounding and underflow (absolute errors
   near 1e-320, far below the margin of a node that splits, whose Q
   exceeds its SSE >= 1e-12). So a candidate with [approx - margin >
   min (approx + margin)] has an exact score strictly above the node's
   minimum. When 64 * (m + T) * Q is not finite — a non-finite target,
   or squares that may overflow — the bound says nothing and every
   candidate is rescored. *)
let margin_factor = 64.0

let fit_data ?(config = default_config) d (targets : float array) =
  let n_features = Array.length d.columns in
  let idx = d.idx in
  let max_t = config.max_thresholds in
  let min_leaf = config.min_samples_leaf in
  if Array.length d.cand_f < n_features * max_t then begin
    let n = n_features * max_t in
    d.cand_f <- Array.make n 0;
    d.cand_thr <- Array.make n 0.0;
    d.cand_score <- Array.make n 0.0
  end;
  (* Per-bin count, sum and sum of squares of one feature's screen (bin
     [j] holds the samples left of threshold [j] and right of [j - 1]),
     and the suffix sums of the bins right of each threshold. *)
  let thr = Array.make max_t 0.0 in
  let bin_n = Array.make (max_t + 1) 0 in
  let bin_s = Array.make (max_t + 1) 0.0 in
  let bin_q = Array.make (max_t + 1) 0.0 in
  let right_s = Array.make (max_t + 1) 0.0 in
  let right_q = Array.make (max_t + 1) 0.0 in
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
     [max_thresholds]. Returns how many were written to [thr]. Under
     [Float.compare] a NaN sorts first, so the thresholds are a (possibly
     empty) run of NaNs followed by a non-decreasing run of numbers: a
     midpoint is NaN only next to a NaN or between -inf and +inf, which
     leaves no third value. *)
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
  (* Screen feature [f] with its [n_thr] thresholds: append every
     threshold that leaves [min_samples_leaf] samples on both sides to
     the candidate table at [n_cand] with its approximate score, and
     return the new table length. A sample is left of threshold [j] iff
     [x <= thr.(j)]; by the shape of the thresholds that holds exactly
     for [j] at or after the sample's bin, which a pointer finds while
     the sorted slice ascends. A NaN value is right of every threshold,
     in the last bin. *)
  let screen f lo hi n_thr n_cand =
    let col = d.columns.(f) and slice = d.slices.(f) in
    Array.fill bin_n 0 (n_thr + 1) 0;
    Array.fill bin_s 0 (n_thr + 1) 0.0;
    Array.fill bin_q 0 (n_thr + 1) 0.0;
    let p = ref 0 in
    for k = lo to hi - 1 do
      let i = Array.unsafe_get slice k in
      let x = Array.unsafe_get col i and y = Array.unsafe_get targets i in
      let b =
        if Float.is_nan x then n_thr
        else begin
          while !p < n_thr && not (x <= Array.unsafe_get thr !p) do
            incr p
          done;
          !p
        end
      in
      Array.unsafe_set bin_n b (Array.unsafe_get bin_n b + 1);
      Array.unsafe_set bin_s b (Array.unsafe_get bin_s b +. y);
      Array.unsafe_set bin_q b (Array.unsafe_get bin_q b +. (y *. y))
    done;
    right_s.(n_thr) <- bin_s.(n_thr);
    right_q.(n_thr) <- bin_q.(n_thr);
    for j = n_thr - 1 downto 1 do
      right_s.(j) <- bin_s.(j) +. right_s.(j + 1);
      right_q.(j) <- bin_q.(j) +. right_q.(j + 1)
    done;
    let m = hi - lo in
    let nl = ref 0 and sl = ref 0.0 and ql = ref 0.0 and c = ref n_cand in
    for j = 0 to n_thr - 1 do
      nl := !nl + bin_n.(j);
      sl := !sl +. bin_s.(j);
      ql := !ql +. bin_q.(j);
      let nr = m - !nl in
      if !nl >= min_leaf && nr >= min_leaf then begin
        let sr = right_s.(j + 1) in
        let left =
          if !nl = 0 then 0.0 else !ql -. (!sl *. !sl /. float_of_int !nl)
        in
        let right =
          if nr = 0 then 0.0
          else right_q.(j + 1) -. (sr *. sr /. float_of_int nr)
        in
        d.cand_f.(!c) <- f;
        d.cand_thr.(!c) <- thr.(j);
        d.cand_score.(!c) <- left +. right;
        incr c
      end
    done;
    !c
  in
  (* Overwrite candidate [c]'s approximate score with the exact score of
     splitting [lo, hi) at [x <= t] on its feature: both sides' sums, then
     their squared deviations from the means, each summed in ascending
     sample order. *)
  let rescore c lo hi =
    let col = d.columns.(d.cand_f.(c)) and t = d.cand_thr.(c) in
    let sum_l = ref 0.0 and sum_r = ref 0.0 and nl = ref 0 in
    for k = lo to hi - 1 do
      let i = idx.(k) in
      let y = targets.(i) in
      if col.(i) <= t then begin
        sum_l := !sum_l +. y;
        incr nl
      end
      else sum_r := !sum_r +. y
    done;
    let nr = hi - lo - !nl in
    let mu_l = if !nl = 0 then 0.0 else !sum_l /. float_of_int !nl in
    let mu_r = if nr = 0 then 0.0 else !sum_r /. float_of_int nr in
    let sse_l = ref 0.0 and sse_r = ref 0.0 in
    for k = lo to hi - 1 do
      let i = idx.(k) in
      if col.(i) <= t then begin
        let dv = targets.(i) -. mu_l in
        sse_l := !sse_l +. (dv *. dv)
      end
      else begin
        let dv = targets.(i) -. mu_r in
        sse_r := !sse_r +. (dv *. dv)
      end
    done;
    d.cand_score.(c) <- !sse_l +. !sse_r
  in
  let rec grow lo hi depth =
    let m = hi - lo in
    let node_sse = sse lo hi in
    if
      depth >= config.max_depth
      || m < 2 * min_leaf
      || node_sse < 1e-12
    then Leaf (mean lo hi)
    else begin
      let n_cand = ref 0 in
      for f = 0 to n_features - 1 do
        let n_thr = thresholds f lo hi in
        if n_thr > 0 then n_cand := screen f lo hi n_thr !n_cand
      done;
      let q = ref 0.0 in
      for k = lo to hi - 1 do
        let y = targets.(idx.(k)) in
        q := !q +. (y *. y)
      done;
      let bound = margin_factor *. float_of_int (m + max_t) *. !q in
      let margin = epsilon_float *. bound in
      let cutoff =
        if Float.is_finite bound then begin
          let lowest = ref infinity in
          for c = 0 to !n_cand - 1 do
            if d.cand_score.(c) < !lowest then lowest := d.cand_score.(c)
          done;
          !lowest +. margin
        end
        else infinity
      in
      (* First best wins: a later candidate must score strictly lower. *)
      let best_score = ref 0.0 and best_f = ref (-1) and best_thr = ref 0.0 in
      for c = 0 to !n_cand - 1 do
        if not (d.cand_score.(c) -. margin > cutoff) then begin
          rescore c lo hi;
          let score = d.cand_score.(c) in
          if !best_f < 0 || not (!best_score <= score) then begin
            best_score := score;
            best_f := d.cand_f.(c);
            best_thr := d.cand_thr.(c)
          end
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
