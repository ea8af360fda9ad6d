(* The schedule search space: valid (tiling, stage-count) combinations for
   an operator. Tile candidates are divisors of the problem dimensions
   (like TVM's split-factor enumeration), warp tiles are MMA-granule
   aligned, and resource-impossible points are kept out of the space while
   resource-*tight* points stay in (they may fail to launch — the paper's
   "compile fail" markers in Fig. 12 come from exactly those). *)

open Alcop_sched

type restriction = {
  smem_stage_options : int list;
  reg_stage_options : int list;
}

let full = { smem_stage_options = [ 1; 2; 3; 4 ]; reg_stage_options = [ 1; 2 ] }

(* Ablations of Sec. V-A. *)
let no_multilevel = { full with reg_stage_options = [ 1 ] }
let no_multilevel_no_multistage =
  { smem_stage_options = [ 1; 2 ]; reg_stage_options = [ 1 ] }
let no_pipelining = { smem_stage_options = [ 1 ]; reg_stage_options = [ 1 ] }

let divisors_in candidates n = List.filter (fun d -> n mod d = 0) candidates

let tb_candidates = [ 16; 32; 64; 128; 256 ]
let tbk_candidates = [ 16; 32; 64 ]
let warp_candidates = [ 16; 32; 64; 128 ]
let warpk_candidates = [ 16; 32 ]
let split_candidates = [ 1; 2; 4 ]

(* Split-K only makes sense when the plain grid is too small to occupy the
   device; enumerating it everywhere would bloat the space with pointless
   points. *)
let split_options (spec : Op_spec.t) ~tb_m ~tb_n ~tb_k =
  let grid = spec.Op_spec.batch * (spec.Op_spec.m / tb_m) * (spec.Op_spec.n / tb_n) in
  let k_iters = spec.Op_spec.k / tb_k in
  List.filter
    (fun s -> s = 1 || (grid < 216 && k_iters mod s = 0 && k_iters / s >= 2))
    split_candidates

let enumerate ?(restriction = full) (spec : Op_spec.t) =
  let tb_ms = divisors_in tb_candidates spec.Op_spec.m in
  let tb_ns = divisors_in tb_candidates spec.Op_spec.n in
  let tb_ks = divisors_in tbk_candidates spec.Op_spec.k in
  let points = ref [] in
  List.iter
    (fun tb_m ->
      List.iter
        (fun tb_n ->
          List.iter
            (fun tb_k ->
              let warp_ms = divisors_in warp_candidates tb_m in
              let warp_ns = divisors_in warp_candidates tb_n in
              let warp_ks = divisors_in warpk_candidates tb_k in
              List.iter
                (fun warp_m ->
                  List.iter
                    (fun warp_n ->
                      List.iter
                        (fun warp_k ->
                          List.iter
                            (fun split_k ->
                              let tiling =
                                Tiling.make ~split_k ~tb_m ~tb_n ~tb_k ~warp_m
                                  ~warp_n ~warp_k ()
                              in
                              let warps = Tiling.warps tiling in
                              if
                                warps >= 1 && warps <= 16
                                && Tiling.validate tiling spec = Ok ()
                              then
                                List.iter
                                  (fun smem_stages ->
                                    List.iter
                                      (fun reg_stages ->
                                        points :=
                                          Alcop_perfmodel.Params.make ~tiling
                                            ~smem_stages ~reg_stages ()
                                          :: !points)
                                      restriction.reg_stage_options)
                                  restriction.smem_stage_options)
                            (split_options spec ~tb_m ~tb_n ~tb_k))
                        warp_ks)
                    warp_ns)
                warp_ms)
            tb_ks)
        tb_ns)
    tb_ms;
  Array.of_list (List.rev !points)

(* Neighbour structure for simulated annealing: points at knob distance
   one. A point's key is a mixed-radix integer over the positions of its
   knob values among the distinct values each knob takes in the space,
   then [swizzle] and [inner_fuse]. Split-K counts as [max 1 split_k], so
   two points share a key exactly when they print the same. *)
type indexed = {
  points : Alcop_perfmodel.Params.t array;
  values : int array array;  (** per knob: its distinct values, ascending *)
  sorted : int array;  (** [key * n + i] per point [i], ascending *)
}

let n_knobs = 9

let knob (p : Alcop_perfmodel.Params.t) axis =
  let t = p.Alcop_perfmodel.Params.tiling in
  match axis with
  | 0 -> t.Tiling.tb_m
  | 1 -> t.Tiling.tb_n
  | 2 -> t.Tiling.tb_k
  | 3 -> t.Tiling.warp_m
  | 4 -> t.Tiling.warp_n
  | 5 -> t.Tiling.warp_k
  | 6 -> p.Alcop_perfmodel.Params.smem_stages
  | 7 -> p.Alcop_perfmodel.Params.reg_stages
  | _ -> max 1 t.Tiling.split_k

let position values v =
  let rec go j =
    if j = Array.length values then -1
    else if values.(j) = v then j
    else go (j + 1)
  in
  go 0

(* The key of [p] with knob [axis] set to [v] ([axis = -1]: none) and
   [inner_fuse] set to [fuse]; -1 if some knob value is not in the
   space. *)
let key_with values (p : Alcop_perfmodel.Params.t) ~axis ~v ~fuse =
  let rec go a key =
    if a = n_knobs then
      (((key * 2) + Bool.to_int p.Alcop_perfmodel.Params.swizzle) * 2)
      + Bool.to_int fuse
    else
      let j = position values.(a) (if a = axis then v else knob p a) in
      if j < 0 then -1 else go (a + 1) ((key * Array.length values.(a)) + j)
  in
  go 0 0

let index points =
  let n = Array.length points in
  let values =
    Array.init n_knobs (fun a ->
        Array.fold_left
          (fun acc p ->
            let v = knob p a in
            if List.mem v acc then acc else v :: acc)
          [] points
        |> List.sort compare |> Array.of_list)
  in
  (* [key * n + i] must not overflow. *)
  let bound =
    Array.fold_left
      (fun b v ->
        let r = max 1 (Array.length v) in
        if b >= max_int / r then max_int else b * r)
      (4 * max 1 n) values
  in
  if bound = max_int then
    invalid_arg "Space.index: too many distinct knob values";
  let sorted =
    Array.mapi
      (fun i p ->
        let fuse = p.Alcop_perfmodel.Params.inner_fuse in
        (key_with values p ~axis:(-1) ~v:0 ~fuse * n) + i)
      points
  in
  Array.sort Int.compare sorted;
  { points; values; sorted }

(* The point with [key], or -1. Of points sharing a key the last one
   wins, as a [Hashtbl.replace] of each point in order would leave it. *)
let find idx key =
  let n = Array.length idx.points in
  (* The last position whose entry is below [(key + 1) * n]. *)
  let lo = ref (-1) and hi = ref n in
  while !hi - !lo > 1 do
    let mid = (!lo + !hi) / 2 in
    if idx.sorted.(mid) < (key + 1) * n then lo := mid else hi := mid
  done;
  if !lo >= 0 && idx.sorted.(!lo) >= key * n then idx.sorted.(!lo) - (key * n)
  else -1

let axis_options =
  Array.map Array.of_list
    [| tb_candidates; tb_candidates; tbk_candidates; warp_candidates;
       warp_candidates; warpk_candidates; full.smem_stage_options;
       full.reg_stage_options; split_candidates |]

(* A random knob-neighbour of [i] that exists in the space; falls back to a
   uniformly random point when no neighbour move is found quickly. A move
   keeps [swizzle] and turns [inner_fuse] on. The comparison with the
   current value reads the raw split-K, the key its [max 1]. *)
let neighbour (idx : indexed) rng i =
  let p = idx.points.(i) in
  let split_k = p.Alcop_perfmodel.Params.tiling.Tiling.split_k in
  let rec attempt tries =
    if tries = 0 then Random.State.int rng (Array.length idx.points)
    else begin
      let axis = Random.State.int rng n_knobs in
      let options = axis_options.(axis) in
      let v = options.(Random.State.int rng (Array.length options)) in
      if v = (if axis = n_knobs - 1 then split_k else knob p axis) then
        attempt (tries - 1)
      else
        let key = key_with idx.values p ~axis ~v ~fuse:true in
        let j = if key < 0 then -1 else find idx key in
        if j < 0 then attempt (tries - 1) else j
    end
  in
  attempt 12
