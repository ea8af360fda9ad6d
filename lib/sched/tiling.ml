(* Tiling parameters: the threadblock tile and the warp tile (paper Fig. 7's
   TB_tile and Warp_tile parameters). Together with the pipeline stage counts these
   are the schedule parameters the auto-tuner searches. *)

type t = {
  tb_m : int;
  tb_n : int;
  tb_k : int;
  warp_m : int;
  warp_n : int;
  warp_k : int;
  split_k : int;
      (** reduction split: the K loop is partitioned across [split_k]
          threadblocks writing partial outputs, reduced by a second kernel;
          1 = off. Restores inter-threadblock parallelism on small-output
          long-reduction shapes. *)
}

let make ?(split_k = 1) ~tb_m ~tb_n ~tb_k ~warp_m ~warp_n ~warp_k () =
  { tb_m; tb_n; tb_k; warp_m; warp_n; warp_k; split_k }

(* Tensor-core fragment granularity: warp tiles are built from 16x16x16 MMA
   instructions. *)
let mma_granule = 16

let validate t (spec : Op_spec.t) =
  let err fmt = Format.kasprintf (fun m -> Error m) fmt in
  let divides a b = b mod a = 0 in
  if
    t.tb_m < 1 || t.tb_n < 1 || t.tb_k < 1 || t.warp_m < 1 || t.warp_n < 1
    || t.warp_k < 1
  then
    err "tile dimensions must be positive (tb %dx%dx%d, warp %dx%dx%d)"
      t.tb_m t.tb_n t.tb_k t.warp_m t.warp_n t.warp_k
  else if not (divides t.tb_m spec.Op_spec.m) then
    err "tb_m=%d does not divide M=%d" t.tb_m spec.Op_spec.m
  else if not (divides t.tb_n spec.Op_spec.n) then
    err "tb_n=%d does not divide N=%d" t.tb_n spec.Op_spec.n
  else if not (divides t.tb_k spec.Op_spec.k) then
    err "tb_k=%d does not divide K=%d" t.tb_k spec.Op_spec.k
  else if not (divides t.warp_m t.tb_m) then
    err "warp_m=%d does not divide tb_m=%d" t.warp_m t.tb_m
  else if not (divides t.warp_n t.tb_n) then
    err "warp_n=%d does not divide tb_n=%d" t.warp_n t.tb_n
  else if not (divides t.warp_k t.tb_k) then
    err "warp_k=%d does not divide tb_k=%d" t.warp_k t.tb_k
  else if not (divides mma_granule t.warp_m) then
    err "warp_m=%d is not a multiple of the %dx%dx%d MMA granule" t.warp_m
      mma_granule mma_granule mma_granule
  else if not (divides mma_granule t.warp_n) then
    err "warp_n=%d is not a multiple of the MMA granule" t.warp_n
  else if not (divides mma_granule t.warp_k) then
    err "warp_k=%d is not a multiple of the MMA granule" t.warp_k
  else if t.split_k < 1 then err "split_k=%d must be at least 1" t.split_k
  else if not (divides t.split_k (spec.Op_spec.k / t.tb_k)) then
    err "split_k=%d does not divide the %d K iterations" t.split_k
      (spec.Op_spec.k / t.tb_k)
  else Ok ()

let warps_m t = t.tb_m / t.warp_m
let warps_n t = t.tb_n / t.warp_n
let warps t = warps_m t * warps_n t

let threadblocks t (spec : Op_spec.t) =
  spec.Op_spec.batch * (spec.Op_spec.m / t.tb_m) * (spec.Op_spec.n / t.tb_n)
  * t.split_k

(* Sequential K iterations of one threadblock: its share of the split. *)
let k_iters t (spec : Op_spec.t) = spec.Op_spec.k / t.tb_k / t.split_k
let ki_iters t = t.tb_k / t.warp_k

(* Shared-memory bytes for the A and B tiles of one pipeline stage. *)
let smem_tile_bytes t elem_bytes = (t.tb_m + t.tb_n) * t.tb_k * elem_bytes

(* Per-thread register estimate: the C accumulator dominates; A and B
   fragments (per register pipeline stage) add on top. fp32 accumulation,
   32 threads per warp, 4 bytes per register. The fragment product
   saturates at [max_int], so an absurd stage count reads as too many
   registers instead of wrapping. *)
let registers_per_thread t ~reg_stages =
  let acc = t.warp_m * t.warp_n / 32 in
  let frag = (t.warp_m + t.warp_n) * t.warp_k in
  let frags =
    (if frag > 0 && reg_stages > max_int / frag then max_int
     else reg_stages * frag)
    / 32 / 2
  in
  acc + frags + 24 (* index arithmetic, pointers, misc *)

(* The bytes of [Printf.sprintf "tb(%dx%dx%d)/warp(%dx%dx%d)%s"] with an
   optional "/split%d", built without [Printf]: the timing jitter hashes
   this text on every compile. *)
let to_string t =
  let i = string_of_int in
  String.concat ""
    [ "tb("; i t.tb_m; "x"; i t.tb_n; "x"; i t.tb_k; ")/warp("; i t.warp_m;
      "x"; i t.warp_n; "x"; i t.warp_k;
      (if t.split_k > 1 then ")/split" ^ i t.split_k else ")") ]
