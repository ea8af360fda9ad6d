(* The compilers compared in the paper's evaluation (Sec. V-A):

   - TVM:             no pipelining (plain tiled tensor-core schedule);
   - TVM DB:          manually inserted double-buffering, without cp.async —
                      the prefetched tile occupies registers in flight;
   - ALCOP -ML -MS:   ALCOP restricted to two-stage, single-level pipelines;
   - ALCOP -ML:       ALCOP restricted to single-level (shared memory only);
   - ALCOP:           full multi-stage, multi-level pipelining.

   All variants search the same tiling space (the paper exhaustively
   searches the schedule space of each compiler and reports its best). *)

open Alcop_sched

type t = {
  name : string;
  restriction : Alcop_tune.Space.restriction;
  cp_async : bool;
}

let tvm =
  { name = "TVM"; restriction = Alcop_tune.Space.no_pipelining; cp_async = false }

let tvm_db =
  { name = "TVM DB";
    restriction = Alcop_tune.Space.no_multilevel_no_multistage;
    cp_async = false }

let alcop_no_ml_ms =
  { name = "ALCOP w/o ML&MS";
    restriction = Alcop_tune.Space.no_multilevel_no_multistage;
    cp_async = true }

let alcop_no_ml =
  { name = "ALCOP w/o ML";
    restriction = Alcop_tune.Space.no_multilevel;
    cp_async = true }

let alcop =
  { name = "ALCOP"; restriction = Alcop_tune.Space.full; cp_async = true }

let all = [ tvm; tvm_db; alcop_no_ml_ms; alcop_no_ml; alcop ]

(* Register cost of prefetching without cp.async: the tile of one pipeline
   stage in flight lives in registers between its global load and its
   shared-memory store. *)
let extra_regs (v : t) (spec : Op_spec.t) (p : Alcop_perfmodel.Params.t) =
  if v.cp_async || p.Alcop_perfmodel.Params.smem_stages < 2 then 0
  else begin
    let tiling = p.Alcop_perfmodel.Params.tiling in
    let elem_bytes = Alcop_ir.Dtype.size_bytes spec.Op_spec.dtype in
    let tile_bytes = Tiling.smem_tile_bytes tiling elem_bytes in
    let threads = Tiling.warps tiling * 32 in
    (tile_bytes / threads / 4) + 2
  end

let space (v : t) (spec : Op_spec.t) =
  Alcop_tune.Space.enumerate ~restriction:v.restriction spec

(* All variants evaluate through the shared per-hardware [Session]: their
   schedule spaces are nested subsets of each other (Space restrictions),
   so in a five-variant sweep most points after the first variant are cache
   hits. The extra-register term is part of the fingerprint, which keeps
   cp.async and register-prefetch compilations distinct. *)
let evaluator ?(hw = Alcop_hw.Hw_config.default) ?session (v : t)
    (spec : Op_spec.t) =
  let session =
    match session with Some s -> s | None -> Session.for_hw hw
  in
  Session.evaluator session ~extra_regs:(extra_regs v spec) spec

(* Best simulated latency of a compiler variant on one operator under
   exhaustive schedule search; [None] if nothing in the space launches. *)
let best_latency ?(hw = Alcop_hw.Hw_config.default) (v : t) (spec : Op_spec.t) =
  let space = space v spec in
  let evaluate = evaluator ~hw v spec in
  let result = Alcop_tune.Tuner.exhaustive ~space ~evaluate () in
  Alcop_tune.Tuner.best result

(* Like [best_latency] but also returns the winning schedule point. *)
let best_point ?(hw = Alcop_hw.Hw_config.default) (v : t) (spec : Op_spec.t) =
  let space = space v spec in
  let evaluate = evaluator ~hw v spec in
  let result = Alcop_tune.Tuner.exhaustive ~space ~evaluate () in
  Array.fold_left
    (fun acc (t : Alcop_tune.Tuner.trial) ->
      match t.Alcop_tune.Tuner.cost, acc with
      | Some c, Some (_, best) when c >= best -> acc
      | Some c, _ -> Some (t.Alcop_tune.Tuner.params, c)
      | None, _ -> acc)
    None result.Alcop_tune.Tuner.trials
