(* CART-style regression trees: the weak learners of the gradient-boosted
   cost model (our stand-in for XGBoost). Splits minimize weighted variance
   of the target; thresholds are subsampled midpoints of the sorted unique
   feature values.

   [prepare] ranks each feature once: every sample gets, per feature, the
   dense rank code of its value among the feature's distinct values. The
   codes of the features with more than one value are stored row-major as
   histogram slots (a feature's codes plus that feature's offset), so one
   pass over a node's samples reads one target per sample and fills the
   histogram of every feature. A node owns one range of an ascending
   sample-index array, and a split stable-partitions only that range.

   A node picks its split in two steps. The screen walks each feature's
   slots of the node's histogram (per code: count and target sum) in
   ascending code order; that gives the node's distinct values, the
   thresholds between them, and per-bin sums (a bin holds the codes
   between two consecutive thresholds). Prefix and suffix sums over the
   bins then give every threshold an approximate score
   [Q - S_l^2/n_l - S_r^2/n_r], with Q the node's sum of squared targets.
   Only the candidates whose approximate score lies within a
   rounding-error margin of the best one ([margin_factor] below) are
   rescored exactly, with the two-pass arithmetic (side means, then summed
   squared deviations) in ascending sample order — exactly as a fold over
   the sample list would — and the first strictly best exact score wins.
   A candidate the margin prunes scores strictly above the minimum, so it
   could neither win nor tie; when the margin is not finite it bounds
   nothing and every candidate is rescored. A lone survivor wins, so its
   exact score is needed only when the split test is within its margin.

   Histograms are kept one per depth. A split scans only its smaller
   child; the larger child's counts and sums are the parent's minus the
   smaller child's, computed in place, and the two trade levels before the
   larger child grows. Subtracted sums carry the error of both operands,
   so each histogram carries an absolute error bound that the margin
   grows with. Counts stay exact, and the histograms never decide a
   threshold's value: a code stands for its first sample overall (see
   [screen] for why that gives the list fitter's thresholds). So the
   trees are bit-identical to the straightforward list fitter that
   re-sorts and re-partitions per threshold (kept as a test oracle).

   Each leaf writes its value over its samples, so the boosting loop adds
   a fitted tree to its running predictions ([add_fitted]) without
   walking it: the partition made the comparisons [predict] would. *)

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

(* One training set, plus the fitter's working buffers. Feature [f] ranks
   its values under [Float.compare] (all NaNs share code 0 when present;
   -0.0 and 0.0 share one code). The [j]th feature with more than one code
   is [active.(j)]; its codes are the slots [offset.(j)] to
   [offset.(j + 1) - 1], and [slots.(i * n_active + j)] is sample [i]'s.
   [hist_n.(k)]/[hist_s.(k)] hold the histogram of the node at depth [k]
   being fit and [hist_err.(k)] its error bound; the candidate table holds
   one node's screened splits. Both are sized on the first fit that needs
   them and reused by every later fit of the same data. *)
type data = {
  columns : float array array;  (** [columns.(f).(i)]: feature f of sample i *)
  active : int array;  (** the features with more than one code, ascending *)
  offset : int array;  (** first slot of each active feature, then the total *)
  slots : int array;  (** row-major; longer than used if a feature is constant *)
  value : float array;  (** per slot: the value of the code's lowest sample index *)
  idx : int array;  (** node ranges of ascending sample indices *)
  scratch : int array;  (** right half of a stable partition *)
  fitted : float array;  (** per sample: its leaf in the last fit tree *)
  present : int array;  (** one feature's slots present at a node, ascending *)
  mutable hist_n : int array array;  (** per depth, per slot: samples of the node *)
  mutable hist_s : float array array;  (** their target sum *)
  mutable hist_err : float array;  (** per depth: a bound on its sums' error *)
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
     they sort one column at a time. The slots are first written at stride
     [n_features], the [j]th active feature in column [j] (a constant
     feature's column is overwritten by the next feature), and compacted
     to stride [n_active] at the end. *)
  let idx = Array.make n 0 and scratch = Array.make n 0 in
  let slots = Array.make (n * n_features) 0 in
  let active = ref [] and n_active = ref 0 and n_slots = ref 0 in
  let values = ref [] in
  Array.iteri
    (fun f col ->
      for i = 0 to n - 1 do
        idx.(i) <- i
      done;
      sort_by_value col idx scratch;
      let j = !n_active and off = !n_slots in
      let code = ref 0 in
      for k = 0 to n - 1 do
        if k > 0 && Float.compare col.(idx.(k - 1)) col.(idx.(k)) <> 0 then incr code;
        slots.((idx.(k) * n_features) + j) <- off + !code
      done;
      let n_codes = !code + 1 in
      if n > 0 && n_codes > 1 then begin
        (* A stable sort puts each code's lowest sample index first, so
           walking back writes its value last. *)
        let value = Array.make n_codes 0.0 in
        for k = n - 1 downto 0 do
          value.(slots.((idx.(k) * n_features) + j) - off) <- col.(idx.(k))
        done;
        active := f :: !active;
        values := value :: !values;
        incr n_active;
        n_slots := off + n_codes
      end)
    columns;
  let n_active = !n_active in
  for i = 0 to n - 1 do
    for j = 0 to n_active - 1 do
      slots.((i * n_active) + j) <- slots.((i * n_features) + j)
    done
  done;
  let values = List.rev !values in
  let offset = Array.make (n_active + 1) 0 in
  List.iteri (fun j a -> offset.(j + 1) <- offset.(j) + Array.length a) values;
  let max_codes = List.fold_left (fun m a -> max m (Array.length a)) 0 values in
  { columns; active = Array.of_list (List.rev !active); offset; slots;
    value = Array.concat values; idx; scratch;
    fitted = Array.make n 0.0; present = Array.make max_codes 0;
    hist_n = [||]; hist_s = [||]; hist_err = [||];
    cand_f = [||]; cand_thr = [||]; cand_score = [||] }

(* Rounding-error margin of the screen. A node of m samples with at most
   T = [max_thresholds] thresholds per feature, sum of squared targets Q,
   sum of absolute targets A and largest absolute target Y, screened from
   a histogram whose per-code sums are off by E in total (for every
   feature; see below), prunes with
     [margin = 64 * (m + T) * eps * Q + 64 * (Y + d) * d],
     [d = E + (m + T) * eps * (A + E)]   (T = 16 by default).

   Write SSE for the real-arithmetic score of a split (the sum of both
   sides' squared deviations from their means), S and n for a side's
   target sum and size, and g_k = k*eps/(1-k*eps).
   - Exact two-pass score: each side's sum is within g_n * sum |y| of the
     true sum, so n * (mean error)^2 <= g_(n+1)^2 * Q. Every squared
     deviation carries 3 roundings and the sum of n non-negative terms
     g_(n-1) more, so each side is within g_(n+2) * Q_side + 2 g^2 Q of
     its SSE, and the final add costs eps * score: |exact - SSE| <=
     (m + 3) * eps * Q to first order.
   - Histogram error E, a bound on sum_c |S^_c - S_c| over one feature's
     codes (each feature's codes partition the node's samples). A scanned
     histogram adds each code's targets in order from zero: E <= g_m * A.
     A subtracted one, S^_c = S^(parent)_c - S^(sibling)_c, carries both
     operands' errors and one rounding: E <= E_parent + E_sibling + eps *
     A / (1 - eps). With each level the fitter records [m_s * eps *
     A_parent] for the scanned smaller child of [m_s] samples and
     [E_parent + (m_s + 1) * eps * A_parent] for the subtracted larger one
     (A_child <= A_parent).
   - Screened score: a side's sum adds its codes' sums into bins and the
     bins into a prefix (or suffix) through at most u + T <= m + T
     additions, so |S^ - S| <= E + g_(m+T) * (A + E) = d. Then
     |S^^2/n - S^2/n| <= (2|S| d + d^2)/n <= 2 Y d + d^2, as |S|/n <= Y;
     the square and the division cost g_2 * Q_side (S^2/n <= Q_side by
     Cauchy-Schwarz), Q^ (summed in ascending order) g_m * Q, and the two
     subtractions eps * Q each: |approx - SSE| <= (m + 6) * eps * Q +
     4 Y d + 2 d^2 to first order.
   Together |approx - exact| <= (2m + 9) * eps * Q + 4 Y d + 2 d^2, at
   most a quarter of the margin for every m >= 1 and T >= 1; the factor 64
   leaves ample room for the second-order terms, the rounding of the
   bounds and of the comparison itself, and underflow (absolute errors
   near 1e-320, far below the margin of a node that splits, whose Q
   exceeds its SSE >= 1e-12). So a candidate with [approx - margin > min
   (approx + margin)] has an exact score strictly above the node's
   minimum. The bound says nothing when [64 * (m + T) * Q] or the margin
   is not finite — a non-finite target, squares that may overflow (S^2 <=
   m * Q), or a histogram subtracted from one that held a non-finite
   target — or when an approximate score is not finite (an ancestor's sum
   overflowed; overflow is sticky through additions); then every candidate
   is rescored. *)
let margin_factor = 64.0

let fit_data ?(config = default_config) d (targets : float array) =
  let n = Array.length d.idx in
  if Array.length targets < n then
    invalid_arg "Tree.fit_data: fewer targets than samples";
  let na = Array.length d.active in
  let idx = d.idx and slots = d.slots and fitted = d.fitted in
  let n_slots = d.offset.(na) in
  let max_t = config.max_thresholds in
  let min_leaf = config.min_samples_leaf in
  let max_depth = config.max_depth in
  if Array.length d.cand_f < na * max_t then begin
    let c = na * max_t in
    d.cand_f <- Array.make c 0;
    d.cand_thr <- Array.make c 0.0;
    d.cand_score <- Array.make c 0.0
  end;
  (* Per-bin count and sum of one feature's screen (bin [j] holds the
     codes left of threshold [j] and right of [j - 1]), the suffix sums of
     the bins right of each threshold, and the node's sum of squared
     targets (an array, so the screen reads it unboxed). *)
  let thr = Array.make max_t 0.0 in
  let bin_n = Array.make (max_t + 1) 0 in
  let bin_s = Array.make (max_t + 1) 0.0 in
  let right_s = Array.make (max_t + 1) 0.0 in
  let node_q = Array.make 1 0.0 in
  let present = d.present and value = d.value in
  (* The histogram of a node at depth [k], allocated on first use. *)
  let level k =
    let extra = k + 1 - Array.length d.hist_n in
    if extra > 0 then begin
      let more a make = Array.append a (Array.init extra (fun _ -> make ())) in
      d.hist_n <- more d.hist_n (fun () -> Array.make n_slots 0);
      d.hist_s <- more d.hist_s (fun () -> Array.make n_slots 0.0);
      d.hist_err <- Array.append d.hist_err (Array.make extra 0.0)
    end
  in
  (* Histogram of [lo, hi) into level [k]: one pass over the samples, each
     adding its target to one slot per active feature. *)
  let scan k lo hi =
    level k;
    let hn = d.hist_n.(k) and hs = d.hist_s.(k) in
    Array.fill hn 0 n_slots 0;
    Array.fill hs 0 n_slots 0.0;
    for p = lo to hi - 1 do
      let i = Array.unsafe_get idx p in
      let y = Array.unsafe_get targets i in
      let base = i * na in
      for j = 0 to na - 1 do
        let s = Array.unsafe_get slots (base + j) in
        Array.unsafe_set hn s (Array.unsafe_get hn s + 1);
        Array.unsafe_set hs s (Array.unsafe_get hs s +. y)
      done
    done
  in
  (* Level [k] minus level [k + 1], in place at level [k]. *)
  let subtract k =
    let pn = d.hist_n.(k) and ps = d.hist_s.(k) in
    let cn = d.hist_n.(k + 1) and cs = d.hist_s.(k + 1) in
    for s = 0 to n_slots - 1 do
      Array.unsafe_set pn s (Array.unsafe_get pn s - Array.unsafe_get cn s);
      Array.unsafe_set ps s (Array.unsafe_get ps s -. Array.unsafe_get cs s)
    done
  in
  let swap k =
    let hn = d.hist_n.(k) and hs = d.hist_s.(k) and e = d.hist_err.(k) in
    d.hist_n.(k) <- d.hist_n.(k + 1);
    d.hist_s.(k) <- d.hist_s.(k + 1);
    d.hist_err.(k) <- d.hist_err.(k + 1);
    d.hist_n.(k + 1) <- hn;
    d.hist_s.(k + 1) <- hs;
    d.hist_err.(k + 1) <- e
  in
  (* Screen active feature [j] at node [lo, hi) from its histogram at level
     [k]: append every threshold that leaves [min_samples_leaf] samples on
     both sides to the candidate table at [n_cand] with its approximate
     score, and return the new table length.

     The thresholds are the midpoints of the node's distinct values,
     evenly subsampled down to [max_thresholds]. The list fitter takes a
     code's value from the node's first sample of it; [value] holds the
     code's first sample overall. The two differ only in bits, and only
     for -0.0 against 0.0 or for NaN payloads. A signed zero's neighbour
     code is nonzero, and [x + 0.0 = x + -0.0] for every nonzero [x], so
     the midpoint is the same. A NaN's midpoint is a NaN threshold, which
     no sample is left of: a split there has an empty left side, so it
     fails [min_samples_leaf >= 1] or scores exactly the node's SSE,
     which never passes the split test. So any differing threshold never
     splits a node.

     Under [Float.compare] a NaN ranks first, so the thresholds are a
     (possibly empty) run of NaNs followed by a non-decreasing run of
     numbers: a midpoint is NaN only next to a NaN or between -inf and
     +inf, which leaves no third value. A sample is left of threshold [t]
     iff [x <= thr.(t)]; by the shape of the thresholds that holds exactly
     for [t] at or after the bin of its code, which a pointer finds while
     the present codes ascend. All of a code's values compare alike, so
     any of them places it. A NaN value is right of every threshold, in
     the last bin. *)
  let screen k j lo hi n_cand =
    let hn = d.hist_n.(k) and hs = d.hist_s.(k) in
    let f = d.active.(j) in
    let u = ref 0 in
    for s = d.offset.(j) to d.offset.(j + 1) - 1 do
      Array.unsafe_set present !u s;
      u := !u + Bool.to_int (Array.unsafe_get hn s > 0)
    done;
    let u = !u in
    let n_mid = u - 1 in
    let n_thr = max 0 (min n_mid max_t) in
    for t = 0 to n_thr - 1 do
      let q = if n_mid <= max_t then t else t * n_mid / max_t in
      thr.(t) <- (value.(present.(q)) +. value.(present.(q + 1))) /. 2.0
    done;
    Array.fill bin_n 0 (n_thr + 1) 0;
    Array.fill bin_s 0 (n_thr + 1) 0.0;
    let p = ref 0 in
    for q = 0 to u - 1 do
      let s = present.(q) in
      let x = value.(s) in
      let b =
        if Float.is_nan x then n_thr
        else begin
          while !p < n_thr && not (x <= Array.unsafe_get thr !p) do
            incr p
          done;
          !p
        end
      in
      bin_n.(b) <- bin_n.(b) + hn.(s);
      bin_s.(b) <- bin_s.(b) +. hs.(s)
    done;
    right_s.(n_thr) <- bin_s.(n_thr);
    for t = n_thr - 1 downto 1 do
      right_s.(t) <- bin_s.(t) +. right_s.(t + 1)
    done;
    let m = hi - lo in
    let q = node_q.(0) in
    let nl = ref 0 and sl = ref 0.0 and c = ref n_cand in
    for t = 0 to n_thr - 1 do
      nl := !nl + bin_n.(t);
      sl := !sl +. bin_s.(t);
      let nr = m - !nl in
      if !nl >= min_leaf && nr >= min_leaf then begin
        let sr = right_s.(t + 1) in
        let left = if !nl = 0 then 0.0 else !sl *. !sl /. float_of_int !nl in
        let right = if nr = 0 then 0.0 else sr *. sr /. float_of_int nr in
        d.cand_f.(!c) <- f;
        d.cand_thr.(!c) <- thr.(t);
        d.cand_score.(!c) <- q -. left -. right;
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
  let leaf lo hi v =
    for k = lo to hi - 1 do
      fitted.(idx.(k)) <- v
    done;
    Leaf v
  in
  (* A node that may split ([depth < max_depth], [m >= 2 * min_samples_leaf])
     finds its histogram at level [depth]. *)
  let rec grow lo hi depth =
    let m = hi - lo in
    let sum = ref 0.0 and q = ref 0.0 and a = ref 0.0 and ymax = ref 0.0 in
    for k = lo to hi - 1 do
      let y = targets.(idx.(k)) in
      sum := !sum +. y;
      q := !q +. (y *. y);
      a := !a +. Float.abs y;
      if Float.abs y > !ymax then ymax := Float.abs y
    done;
    let mu = if m = 0 then 0.0 else !sum /. float_of_int m in
    if depth >= max_depth || m < 2 * min_leaf then leaf lo hi mu
    else begin
      let node_sse = ref 0.0 in
      for k = lo to hi - 1 do
        let dv = targets.(idx.(k)) -. mu in
        node_sse := !node_sse +. (dv *. dv)
      done;
      let node_sse = !node_sse in
      if node_sse < 1e-12 then leaf lo hi mu
      else begin
        let err = d.hist_err.(depth) in
        node_q.(0) <- !q;
        let n_cand = ref 0 in
        for j = 0 to na - 1 do
          n_cand := screen depth j lo hi !n_cand
        done;
        let a = !a in
        let delta =
          err +. (float_of_int (m + max_t) *. epsilon_float *. (a +. err))
        in
        let bound = margin_factor *. float_of_int (m + max_t) *. !q in
        let margin =
          (epsilon_float *. bound) +. (margin_factor *. (!ymax +. delta) *. delta)
        in
        let cutoff =
          if Float.is_finite bound && Float.is_finite margin then begin
            let lowest = ref infinity and finite = ref true in
            for c = 0 to !n_cand - 1 do
              let s = d.cand_score.(c) in
              if s < !lowest then lowest := s;
              if not (Float.is_finite s) then finite := false
            done;
            if !finite then !lowest +. margin else infinity
          end
          else infinity
        in
        (* First best wins: a later candidate must score strictly lower. *)
        let best_score = ref 0.0 and best_f = ref (-1) and best_thr = ref 0.0 in
        let survivors = ref 0 and lone = ref 0 in
        for c = 0 to !n_cand - 1 do
          if not (d.cand_score.(c) -. margin > cutoff) then begin
            incr survivors;
            lone := c
          end
        done;
        let gain = node_sse -. 1e-12 in
        (* A lone survivor wins; its exact score only decides whether it
           beats [gain], which the margin settles unless the two are within
           it (the approximate score is within a quarter margin of the
           exact one). *)
        let settled =
          !survivors = 1 && cutoff < infinity
          && (d.cand_score.(!lone) +. margin < gain
              || d.cand_score.(!lone) -. margin >= gain)
        in
        if settled then begin
          let c = !lone in
          if d.cand_score.(c) +. margin < gain then begin
            best_score := neg_infinity;
            best_f := d.cand_f.(c);
            best_thr := d.cand_thr.(c)
          end
        end
        else
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
        if !best_f >= 0 && !best_score < gain then begin
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
          (* The smaller child is scanned into the next level; the larger
             one's histogram is this node's minus it, made in place and
             moved to the next level once the smaller child's subtree,
             which uses only deeper levels, is done. *)
          let small_left = mid - lo <= hi - mid in
          let m_s = min (mid - lo) (hi - mid) and next = depth + 1 in
          (* The smaller child splits only if the larger one may. *)
          let large_splits =
            next < max_depth && max (mid - lo) (hi - mid) >= 2 * min_leaf
          in
          if large_splits then begin
            if small_left then scan next lo mid else scan next mid hi;
            d.hist_err.(next) <- float_of_int m_s *. epsilon_float *. a;
            subtract depth;
            d.hist_err.(depth) <-
              err +. (float_of_int (m_s + 1) *. epsilon_float *. a)
          end;
          let small = if small_left then grow lo mid next else grow mid hi next in
          if large_splits then swap depth;
          let large = if small_left then grow mid hi next else grow lo mid next in
          let feature = !best_f in
          if small_left then Node { feature; threshold = t; left = small; right = large }
          else Node { feature; threshold = t; left = large; right = small }
        end
        else leaf lo hi mu
      end
    end
  in
  if n = 0 then Leaf 0.0
  else begin
    for i = 0 to n - 1 do
      idx.(i) <- i
    done;
    let a = ref 0.0 in
    for i = 0 to n - 1 do
      a := !a +. Float.abs targets.(i)
    done;
    if max_depth > 0 && n >= 2 * min_leaf then begin
      scan 0 0 n;
      d.hist_err.(0) <- float_of_int n *. epsilon_float *. !a
    end;
    grow 0 n 0
  end

let fit ?config features targets = fit_data ?config (prepare features) targets

let add_fitted d scale (acc : float array) =
  let fitted = d.fitted in
  for i = 0 to Array.length fitted - 1 do
    acc.(i) <- acc.(i) +. (scale *. fitted.(i))
  done

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
