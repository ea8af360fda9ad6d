(* The schedule parameters both analytical models consume: the tuner's
   search space is exactly the cross product of these. *)

type t = {
  tiling : Alcop_sched.Tiling.t;
  smem_stages : int;  (** 1 = no shared-memory pipelining *)
  reg_stages : int;   (** 1 = no register pipelining *)
  swizzle : bool;
  inner_fuse : bool;  (** inner-pipeline fusion (paper Fig. 3d vs 3c) *)
}

let make ?(swizzle = true) ?(inner_fuse = true) ~tiling ~smem_stages ~reg_stages
    () =
  if smem_stages < 1 || reg_stages < 1 then
    invalid_arg "Params.make: stage counts must be >= 1";
  { tiling; smem_stages; reg_stages; swizzle; inner_fuse }

(* Saturates at [max_int]: an absurd stage count must read as too much
   shared memory, not wrap to a small or negative footprint. *)
let smem_bytes_per_tb t elem_bytes =
  let tile = Alcop_sched.Tiling.smem_tile_bytes t.tiling elem_bytes in
  let stages = max 1 t.smem_stages in
  if tile > 0 && stages > max_int / tile then max_int else tile * stages

let regs_per_thread t =
  Alcop_sched.Tiling.registers_per_thread t.tiling ~reg_stages:t.reg_stages

(* Paper Sec. IV-A: stages trade against occupancy through this one
   footprint, which the compiler and every model ask for. *)
let launch ?(extra_regs_per_thread = 0) hw elem_bytes t =
  Alcop_gpusim.Occupancy.compute hw
    ~smem_per_tb:(smem_bytes_per_tb t elem_bytes)
    ~warps_per_tb:(Alcop_sched.Tiling.warps t.tiling)
    ~regs_per_thread:(regs_per_thread t + extra_regs_per_thread)

(* Built without [Printf]: the same bytes as
   [Printf.sprintf "%s smem_stages=%d reg_stages=%d%s%s"], which [key]
   hashes on every compile. *)
let to_string t =
  String.concat ""
    [ Alcop_sched.Tiling.to_string t.tiling; " smem_stages=";
      string_of_int t.smem_stages; " reg_stages="; string_of_int t.reg_stages;
      (if t.swizzle then "" else " noswizzle");
      (if t.inner_fuse then "" else " nofuse") ]

(* A stable integer key for hashing / deterministic perturbation: the
   timing jitter, so every simulated cycle count depends on these bytes. *)
let key spec_name t = Hashtbl.hash (spec_name, to_string t)
