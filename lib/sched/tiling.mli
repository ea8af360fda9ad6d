(** Tiling parameters: the threadblock tile and the warp tile (paper
    Fig. 7's TB_tile and Warp_tile parameters). *)

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
          1 = off *)
}

val make :
  ?split_k:int ->
  tb_m:int -> tb_n:int -> tb_k:int -> warp_m:int -> warp_n:int -> warp_k:int ->
  unit -> t

val validate : t -> Op_spec.t -> (unit, string) result
(** Divisibility of the problem by the threadblock tile, of the threadblock
    tile by the warp tile, and MMA-granule alignment of the warp tile. *)

val warps_m : t -> int
val warps_n : t -> int
val warps : t -> int
val threadblocks : t -> Op_spec.t -> int
val k_iters : t -> Op_spec.t -> int
(** Sequential K iterations of one threadblock (its share of the split). *)

val ki_iters : t -> int

val smem_tile_bytes : t -> int -> int
(** [smem_tile_bytes t elem_bytes]: A+B tile bytes of one pipeline stage. *)

val registers_per_thread : t -> reg_stages:int -> int

val to_string : t -> string
