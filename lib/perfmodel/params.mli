(** The schedule parameters both analytical models consume; the tuner's
    search space is the cross product of these. *)

type t = {
  tiling : Alcop_sched.Tiling.t;
  smem_stages : int;  (** 1 = no shared-memory pipelining *)
  reg_stages : int;   (** 1 = no register pipelining *)
  swizzle : bool;
  inner_fuse : bool;  (** inner-pipeline fusion (paper Fig. 3d vs 3c) *)
}

val make :
  ?swizzle:bool -> ?inner_fuse:bool -> tiling:Alcop_sched.Tiling.t ->
  smem_stages:int -> reg_stages:int -> unit -> t
(** @raise Invalid_argument if a stage count is below 1. *)

val smem_bytes_per_tb : t -> int -> int
(** Shared memory one threadblock allocates: tile bytes times stages,
    saturating at [max_int] instead of wrapping. *)

val regs_per_thread : t -> int

val launch :
  ?extra_regs_per_thread:int ->
  Alcop_hw.Hw_config.t ->
  int ->
  t ->
  (Alcop_gpusim.Occupancy.t, Alcop_gpusim.Occupancy.failure) result
(** [launch hw elem_bytes t]: the occupancy verdict on one threadblock's
    launch footprint — {!smem_bytes_per_tb}, [Tiling.warps] and
    {!regs_per_thread} + [extra_regs_per_thread], all read off the params.
    Both products saturate at [max_int], so an absurd stage count is an
    [Error] on the exhausted resource, never a wrapped figure that passes.
    The warp tile must be positive ([Tiling.warps] divides by it). *)

val to_string : t -> string

val key : string -> t -> int
(** Stable integer key for deterministic perturbation, per operator. *)
