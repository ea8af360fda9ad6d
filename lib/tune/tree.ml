(* CART-style regression trees: the weak learners of the gradient-boosted
   cost model (our stand-in for XGBoost). Splits minimize weighted variance
   of the target; thresholds are subsampled midpoints of the sorted unique
   feature values.

   The fitter is column-major and ranks each feature once ([prepare]):
   every sample gets, per feature, the dense rank code of its value among
   the feature's distinct values. A node owns one range of an ascending
   sample-index array, and a split stable-partitions only that range.

   A node picks its split in two steps. The screen makes one pass per
   feature over the node's range and keeps per-code count, sum and sum
   of squares of the targets; a walk over the codes present, in
   ascending order, gives the node's distinct values, the thresholds
   between them, and per-bin sums (a bin holds the codes between two
   consecutive thresholds). Prefix and suffix sums over the bins then
   give every threshold an approximate score
   [(Q_l - S_l^2/n_l) + (Q_r - S_r^2/n_r)]. Only the candidates whose
   approximate score lies within a rounding-error margin of the best one
   ([margin_factor] below) are rescored exactly, with the two-pass
   arithmetic (side means, then summed squared deviations) in ascending
   sample order — exactly as a fold over the sample list would — and the
   first strictly best exact score wins. A candidate the margin prunes
   scores strictly above the minimum, so it could neither win nor tie;
   when the targets are not finite the margin bounds nothing and every
   candidate is rescored. So the trees are bit-identical to the
   straightforward list fitter that re-sorts and re-partitions per
   threshold (kept as a test oracle). *)

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
   [codes.(f).(i)] ranks sample [i]'s value of feature [f] among the
   feature's distinct values under [Float.compare] (all NaNs share code
   0 when present; -0.0 and 0.0 share one code). The per-code buffers
   hold one feature's histogram at one node; the candidate table holds
   one node's screened splits and is sized on the first fit and reused
   by every later fit of the same data. *)
type data = {
  columns : float array array;  (** [columns.(f).(i)]: feature f of sample i *)
  codes : int array array;  (** [codes.(f).(i)]: rank code of that value *)
  n_codes : int array;  (** distinct values of each feature *)
  idx : int array;  (** node ranges of ascending sample indices *)
  scratch : int array;  (** right half of a stable partition *)
  code_n : int array;  (** per code: samples of the node *)
  code_s : float array;  (** their target sum *)
  code_q : float array;  (** their sum of squared targets *)
  code_first : int array;  (** the lowest sample index with the code *)
  present : int array;  (** the codes present at the node, ascending *)
  mutable cand_f : int array;  (** feature of each screened candidate *)
  mutable cand_thr : float array;  (** its threshold *)
  mutable cand_score : float array;  (** its approximate score *)
}

(* Stable sort of the sample indices [o] by their [col] values under
   [Float.compare]: a bottom-up merge sort that merges back and forth
   between [o] and [buf] (as long as [o]), so unlike [Array.stable_sort]
   it allocates nothing. *)
let sort_by_value (col : float array) o buf =
  let n = Array.length o in
  let src = ref o and dst = ref buf in
  let width = ref 1 in
  while !width < n do
    let s = !src and d = !dst in
    let lo = ref 0 in
    while !lo < n do
      let mid = min (!lo + !width) n and hi = min (!lo + (2 * !width)) n in
      let i = ref !lo and j = ref mid in
      for k = !lo to hi - 1 do
        if !i < mid && (!j >= hi || Float.compare col.(s.(!i)) col.(s.(!j)) <= 0)
        then begin
          d.(k) <- s.(!i);
          incr i
        end
        else begin
          d.(k) <- s.(!j);
          incr j
        end
      done;
      lo := hi
    done;
    src := d;
    dst := s;
    width := 2 * !width
  done;
  if !src != o then Array.blit !src 0 o 0 n

let prepare (rows : float array array) =
  let n = Array.length rows in
  let n_features = if n = 0 then 0 else Array.length rows.(0) in
  let columns = Array.init n_features (fun f -> Array.init n (fun i -> rows.(i).(f))) in
  (* [fit_data] writes both index buffers before it reads them; until then
     they sort one column at a time. *)
  let idx = Array.make n 0 and scratch = Array.make n 0 in
  let codes =
    Array.map
      (fun col ->
        for i = 0 to n - 1 do
          idx.(i) <- i
        done;
        sort_by_value col idx scratch;
        let code = Array.make n 0 in
        for k = 1 to n - 1 do
          code.(idx.(k)) <-
            code.(idx.(k - 1))
            + Bool.to_int (Float.compare col.(idx.(k - 1)) col.(idx.(k)) <> 0)
        done;
        code)
      columns
  in
  let n_codes = Array.map (Array.fold_left (fun m c -> max m (c + 1)) 0) codes in
  let max_codes = Array.fold_left max 0 n_codes in
  { columns; codes; n_codes; idx; scratch;
    code_n = Array.make max_codes 0; code_s = Array.make max_codes 0.0;
    code_q = Array.make max_codes 0.0; code_first = Array.make max_codes 0;
    present = Array.make max_codes 0;
    cand_f = [||]; cand_thr = [||]; cand_score = [||] }

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
     square, at most n_c additions within its code (n_c <= n, the side's
     samples), at most u code-into-bin additions (u <= m, the codes
     present) and at most T prefix (or suffix) additions, so
     |S^ - S| <= g_(2m+T+1) * sum |y| and |Q^ - Q| <= g_(2m+T+1) * Q.
     As |S| * sum |y| / n <= Q (Cauchy-Schwarz), S^2/n is within
     (2 g_(2m+T+1) + 2 eps) * Q, and the subtraction and the final add
     cost eps each: |approx - SSE| <= (6m + 3T + 7) * eps * Q to first
     order.
   Together |approx - exact| <= (7m + 3T + 10) * eps * Q, at most a
   quarter of the margin for every m >= 1 and T >= 1; the factor 64
   leaves ample room for the second-order terms, the rounding
   of the comparison itself, Q's own rounding and underflow (absolute
   errors near 1e-320, far below the margin of a node that splits, whose
   Q exceeds its SSE >= 1e-12). So a candidate with [approx - margin >
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
     [j] holds the codes left of threshold [j] and right of [j - 1]),
     and the suffix sums of the bins right of each threshold. *)
  let thr = Array.make max_t 0.0 in
  let bin_n = Array.make (max_t + 1) 0 in
  let bin_s = Array.make (max_t + 1) 0.0 in
  let bin_q = Array.make (max_t + 1) 0.0 in
  let right_s = Array.make (max_t + 1) 0.0 in
  let right_q = Array.make (max_t + 1) 0.0 in
  let code_n = d.code_n and code_s = d.code_s and code_q = d.code_q in
  let code_first = d.code_first and present = d.present in
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
  (* Screen feature [f] at node [lo, hi): append every threshold that
     leaves [min_samples_leaf] samples on both sides to the candidate
     table at [n_cand] with its approximate score, and return the new
     table length.

     The thresholds are the midpoints of the node's distinct values,
     evenly subsampled down to [max_thresholds]. A code present at the
     node stands for the value of its lowest-indexed sample there, which
     is the value a stable sort of the node's samples would put first;
     that keeps NaN payloads and the sign of zero exact. Under
     [Float.compare] a NaN ranks first, so the thresholds are a
     (possibly empty) run of NaNs followed by a non-decreasing run of
     numbers: a midpoint is NaN only next to a NaN or between -inf and
     +inf, which leaves no third value. A sample is left of threshold
     [j] iff [x <= thr.(j)]; by the shape of the thresholds that holds
     exactly for [j] at or after the bin of its code, which a pointer
     finds while the present codes ascend. A NaN value is right of
     every threshold, in the last bin. *)
  let screen f lo hi n_cand =
    let col = d.columns.(f) and code = d.codes.(f) in
    for k = lo to hi - 1 do
      let i = Array.unsafe_get idx k in
      let c = Array.unsafe_get code i and y = Array.unsafe_get targets i in
      let cn = Array.unsafe_get code_n c in
      if cn = 0 then Array.unsafe_set code_first c i;
      Array.unsafe_set code_n c (cn + 1);
      Array.unsafe_set code_s c (Array.unsafe_get code_s c +. y);
      Array.unsafe_set code_q c (Array.unsafe_get code_q c +. (y *. y))
    done;
    let u = ref 0 in
    for c = 0 to d.n_codes.(f) - 1 do
      Array.unsafe_set present !u c;
      u := !u + Bool.to_int (Array.unsafe_get code_n c > 0)
    done;
    let u = !u in
    let n_mid = u - 1 in
    let n_thr = max 0 (min n_mid max_t) in
    for j = 0 to n_thr - 1 do
      let q = if n_mid <= max_t then j else j * n_mid / max_t in
      thr.(j) <-
        (col.(code_first.(present.(q))) +. col.(code_first.(present.(q + 1))))
        /. 2.0
    done;
    (* Merge the codes into bins, leaving the per-code buffers zeroed for
       the next screen. *)
    Array.fill bin_n 0 (n_thr + 1) 0;
    Array.fill bin_s 0 (n_thr + 1) 0.0;
    Array.fill bin_q 0 (n_thr + 1) 0.0;
    let p = ref 0 in
    for q = 0 to u - 1 do
      let c = present.(q) in
      let x = col.(code_first.(c)) in
      let b =
        if Float.is_nan x then n_thr
        else begin
          while !p < n_thr && not (x <= Array.unsafe_get thr !p) do
            incr p
          done;
          !p
        end
      in
      bin_n.(b) <- bin_n.(b) + code_n.(c);
      bin_s.(b) <- bin_s.(b) +. code_s.(c);
      bin_q.(b) <- bin_q.(b) +. code_q.(c);
      code_n.(c) <- 0;
      code_s.(c) <- 0.0;
      code_q.(c) <- 0.0
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
        if d.n_codes.(f) > 1 then n_cand := screen f lo hi !n_cand
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
        (* Stable partition of the node's range, the left side in place
           and the right side through [scratch]: every sample is written
           to both, and only its side's cursor advances. *)
        let col = d.columns.(!best_f) and t = !best_thr in
        let scratch = d.scratch in
        let l = ref lo and r = ref 0 in
        for k = lo to hi - 1 do
          let i = Array.unsafe_get idx k in
          let left = Bool.to_int (Array.unsafe_get col i <= t) in
          Array.unsafe_set idx !l i;
          Array.unsafe_set scratch !r i;
          l := !l + left;
          r := !r + 1 - left
        done;
        let mid = !l in
        Array.blit scratch 0 idx mid !r;
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
