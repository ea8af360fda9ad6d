(* The end-to-end ALCOP compilation pipeline (paper Fig. 4):

     schedule -> launch check -> lowering -> pipelining pass -> trace
       -> timing simulation

   [compile] produces everything downstream consumers need: the pipelined
   kernel (for inspection and functional execution), the pipeline groups
   (for the interpreter's async semantics), the event trace, and the
   simulated kernel latency. A schedule whose resource demands exceed the
   hardware fails to compile before it is lowered — the tuner sees those
   as failed trials. *)

open Alcop_ir
open Alcop_sched

module Obs = Alcop_obs.Obs

type compiled = {
  schedule : Schedule.t;
  params : Alcop_perfmodel.Params.t;
  lowered : Lower.lowered;
  kernel : Kernel.t;  (** pipelined *)
  groups : Alcop_pipeline.Analysis.group list;
  program : Alcop_gpusim.Trace.program;  (** packed event trace *)
  timing_request : Alcop_gpusim.Timing.request;
      (** the exact launch the simulator timed — replayable by [Profile] *)
  timing : Alcop_gpusim.Timing.kernel_timing;
  latency_cycles : float;
      (** kernel plus materialization of non-inlined element-wise stages *)
}

(* Structured failure: each compile phase keeps its own error payload
   instead of collapsing into a string, so the observability layer and the
   CLI can report *what* failed — and a legality rejection carries the full
   per-buffer rule-by-rule verdict. *)
type error =
  | Schedule_error of Schedule.error
  | Lowering_failed of string
  | Legality_rejected of {
      rejection : Alcop_pipeline.Analysis.rejection;
      verdicts : Alcop_pipeline.Analysis.buffer_verdict list;
    }
  | Launch_failed of Alcop_gpusim.Occupancy.failure

let error_kind = function
  | Schedule_error _ -> "schedule"
  | Lowering_failed _ -> "lowering"
  | Legality_rejected _ -> "legality"
  | Launch_failed _ -> "launch"

let pp_error fmt = function
  | Schedule_error e -> Schedule.pp_error fmt e
  | Lowering_failed m -> Format.pp_print_string fmt m
  | Legality_rejected { rejection; _ } ->
    Alcop_pipeline.Analysis.pp_rejection fmt rejection
  | Launch_failed f ->
    Format.fprintf fmt "launch failure: %a" Alcop_gpusim.Occupancy.pp_failure f

let error_to_string e = Format.asprintf "%a" pp_error e

(* Cost of materializing a non-inlined element-wise producer as its own
   kernel: one read and one write of the tensor over DRAM, plus a launch. *)
let materialize_cycles (hw : Alcop_hw.Hw_config.t) (lowered : Lower.lowered) =
  List.fold_left
    (fun acc (name, _src, _op) ->
      match Kernel.find_param lowered.Lower.kernel name with
      | Some b ->
        let bytes = 2 * Alcop_ir.Buffer.size_bytes b in
        acc
        +. Alcop_gpusim.Timing.launch_overhead_cycles
        +. (float_of_int bytes /. hw.Alcop_hw.Hw_config.dram_bytes_per_cycle)
      | None -> acc)
    0.0 lowered.Lower.materialize

(* The launch the timing simulator runs for one pipelined kernel. Only
   synchronized groups draw on the scope-based barriers. *)
let timing_request ~hw ~occupancy ~groups
    (params : Alcop_perfmodel.Params.t) (spec : Op_spec.t) program =
  let tiling = params.Alcop_perfmodel.Params.tiling in
  { Alcop_gpusim.Timing.hw; program;
    total_tbs = Tiling.threadblocks tiling spec;
    warps_per_tb = Tiling.warps tiling; occupancy;
    grid_m = spec.Op_spec.m / tiling.Tiling.tb_m;
    grid_n = spec.Op_spec.n / tiling.Tiling.tb_n;
    grid_z = spec.Op_spec.batch * tiling.Tiling.split_k;
    tb_m = tiling.Tiling.tb_m; tb_n = tiling.Tiling.tb_n;
    tb_k = tiling.Tiling.tb_k;
    elem_bytes = Dtype.size_bytes spec.Op_spec.dtype;
    swizzle = params.Alcop_perfmodel.Params.swizzle;
    jitter_key = Alcop_perfmodel.Params.key spec.Op_spec.name params;
    barrier_groups =
      List.filter_map
        (fun (g : Alcop_pipeline.Analysis.group) ->
          if g.Alcop_pipeline.Analysis.synchronized then
            Some g.Alcop_pipeline.Analysis.id
          else None)
        groups }

(* The lowering slot: one entry per domain, holding the stage-free prefix
   of the last tiling compiled there. [Space.enumerate] puts the stage
   loops innermost, so the stage-count siblings of one tiling arrive back
   to back, and each reuses the [Schedule.tiled_gemm] base and, when its
   per-point step inlined nothing, the lowered kernel: [Lower.run] reads
   only the operator, the tiling and the dataflow graph. Inlining is why
   the graph belongs to the key: which element-wise producer it can fuse
   depends on the pipelined levels (Fig. 5, case 1 vs case 2), so a
   sibling's graph may differ from the base's. *)
type prefix = {
  p_spec : Op_spec.t;
  p_tiling : Tiling.t;
  p_base : Schedule.t;
  mutable p_lowered : Lower.lowered option;
      (** [Lower.run] of a schedule whose graph is [p_base]'s *)
}

let slot : prefix option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let schedule_point (params : Alcop_perfmodel.Params.t) (spec : Op_spec.t) =
  let tiling = params.Alcop_perfmodel.Params.tiling in
  let slot = Domain.DLS.get slot in
  let base =
    match !slot with
    | Some p when p.p_tiling = tiling && p.p_spec = spec -> p.p_base
    | _ ->
      let base = Schedule.tiled_gemm spec tiling in
      slot :=
        Some { p_spec = spec; p_tiling = tiling; p_base = base;
               p_lowered = None };
      base
  in
  Schedule.set_swizzle
    (Schedule.pipeline_gemm ~smem_stages:params.Alcop_perfmodel.Params.smem_stages
       ~reg_stages:params.Alcop_perfmodel.Params.reg_stages
       ~inner_fuse:params.Alcop_perfmodel.Params.inner_fuse base)
    params.Alcop_perfmodel.Params.swizzle

let lower_point (schedule : Schedule.t) =
  match !(Domain.DLS.get slot) with
  | Some p when schedule.Schedule.graph == p.p_base.Schedule.graph ->
    (match p.p_lowered with
     | Some l ->
       { l with Lower.hints = schedule.Schedule.pipeline_hints; schedule }
     | None ->
       let l = Lower.run schedule in
       p.p_lowered <- Some l;
       l)
  | _ -> Lower.run schedule

(* [extra_regs_per_thread] models compilers that prefetch without cp.async
   (pre-Ampere double buffering): the in-flight tile occupies registers.

   Each phase is one named pass run through [Passman.run]: the pass manager
   owns the obs span, the per-pass wall-time gauge and the --dump-ir-after
   hook, so this function reads as the plain pipeline of paper Fig. 4. *)
let run_passes ~hw ~extra_regs_per_thread
    (params : Alcop_perfmodel.Params.t) (spec : Op_spec.t) =
  let ( let* ) = Result.bind in
  let tiling = params.Alcop_perfmodel.Params.tiling in
  let compiled =
    let* schedule =
      match
        Passman.run ~name:"schedule" (fun () -> schedule_point params spec)
      with
      | exception Schedule.Schedule_error e -> Error (Schedule_error e)
      | schedule -> Ok schedule
    in
    let elem_bytes = Dtype.size_bytes spec.Op_spec.dtype in
    (* The launch footprint needs only the params, so an unlaunchable
       point stops here, before lowering builds its kernel. It runs after
       [schedule] because [Tiling.warps] needs a validated warp tile. *)
    let* occ =
      Alcop_perfmodel.Params.launch ~extra_regs_per_thread hw elem_bytes params
      |> Result.map_error (fun f -> Launch_failed f)
    in
    let* lowered =
      match
        Passman.run ~name:"lower"
          ~ir_of:(fun (l : Lower.lowered) -> Some l.Lower.kernel)
          (fun () -> lower_point schedule)
      with
      | exception Lower.Lowering_error m -> Error (Lowering_failed m)
      | lowered -> Ok lowered
    in
    let* result =
      Passman.run ~name:"pipeline"
        ~ir_of:(function
          | Ok (r : Alcop_pipeline.Pass.result) ->
            Some r.Alcop_pipeline.Pass.kernel
          | Error _ -> None)
        (fun () ->
          Alcop_pipeline.Pass.run ~hw ~hints:lowered.Lower.hints
            lowered.Lower.kernel)
      |> Result.map_error (fun rejection ->
             (* The structured payload re-runs the rule checks buffer by
                buffer — error path only, so the hot path stays
                single-pass. *)
             let verdicts =
               Alcop_pipeline.Analysis.verdicts ~hw ~hints:lowered.Lower.hints
                 lowered.Lower.kernel
             in
             Legality_rejected { rejection; verdicts })
    in
    let kernel = result.Alcop_pipeline.Pass.kernel in
    let groups = Alcop_pipeline.Pass.groups result in
    let program =
      Passman.run ~name:"trace" (fun () ->
          Alcop_gpusim.Trace.extract_program ~groups kernel)
    in
    let request =
      timing_request ~hw ~occupancy:occ ~groups params spec program
    in
    let timing =
      Passman.run ~name:"timing" (fun () -> Alcop_gpusim.Timing.run request)
    in
    let latency_cycles =
      timing.Alcop_gpusim.Timing.total_cycles
      +. materialize_cycles hw lowered
      +. Alcop_perfmodel.Reduce_cost.cycles hw spec
           ~split_k:tiling.Tiling.split_k
    in
    Ok
      { schedule; params; lowered; kernel; groups; program;
        timing_request = request; timing; latency_cycles }
  in
  (* Outcome telemetry is built only when Obs records: formatting a
     failure's message costs more than a launch failure's whole compile. *)
  if Obs.enabled () then begin
    match compiled with
    | Ok c ->
      Obs.count "compile.ok";
      Obs.add_field "latency_cycles" (Alcop_obs.Json.Float c.latency_cycles)
    | Error err ->
      Obs.count "compile.fail";
      Obs.count ("compile.fail." ^ error_kind err);
      Obs.point "compile.error"
        [ ("op", Alcop_obs.Json.Str spec.Op_spec.name);
          ("kind", Alcop_obs.Json.Str (error_kind err));
          ("message", Alcop_obs.Json.Str (error_to_string err)) ]
  end;
  compiled

(* The [compile] span's field list and thunk are built only when Obs
   records. *)
let compile ?(hw = Alcop_hw.Hw_config.default) ?(extra_regs_per_thread = 0)
    params (spec : Op_spec.t) =
  if not (Obs.enabled ()) then
    run_passes ~hw ~extra_regs_per_thread params spec
  else
    Obs.with_span "compile"
      ~fields:[ ("op", Alcop_obs.Json.Str spec.Op_spec.name) ]
      (fun () -> run_passes ~hw ~extra_regs_per_thread params spec)

let profile ?hw params (spec : Op_spec.t) =
  Result.map
    (fun c ->
      Alcop_gpusim.Profile.run ~op:spec.Op_spec.name
        ~schedule:(Alcop_perfmodel.Params.to_string params) c.timing_request)
    (compile ?hw params spec)

(* Functional verification: run the pipelined kernel in the strict
   interpreter on deterministic inputs and compare against the host
   reference. Intended for small shapes (tests, examples). *)
let verify ?(atol = 1e-6) (c : compiled) =
  let spec = c.schedule.Schedule.spec in
  let a, b = Alcop_gpusim.Reference.inputs_for spec in
  let expected = Alcop_gpusim.Reference.gemm spec ~a ~b in
  (* Materialize non-inlined element-wise producers. *)
  let tensor_of name =
    if String.equal name "A" then a
    else if String.equal name "B" then b
    else invalid_arg ("verify: unknown source tensor " ^ name)
  in
  let inputs =
    List.map
      (fun (bf : Buffer.t) ->
        let name = bf.Buffer.name in
        match
          List.find_opt
            (fun (n, _, _) -> String.equal n name)
            c.lowered.Lower.materialize
        with
        | Some (_, src, op) ->
          (name, Alcop_gpusim.Tensor.map (Alcop_gpusim.Elemwise_ops.find_exn op)
                   (tensor_of src))
        | None -> (name, tensor_of name))
      c.kernel.Kernel.inputs
  in
  let outputs = Alcop_gpusim.Interp.run ~groups:c.groups c.kernel ~inputs in
  (* Split-K: chain the partial outputs through the reduction kernel. *)
  let outputs =
    match c.lowered.Lower.reduce with
    | None -> outputs
    | Some reduce -> Alcop_gpusim.Interp.run reduce ~inputs:outputs
  in
  let actual =
    match outputs with
    | [ (_, t) ] -> t
    | _ -> invalid_arg "verify: expected exactly one kernel output"
  in
  let diff = Alcop_gpusim.Tensor.max_abs_diff actual expected in
  if diff <= atol then Ok diff else Error diff
