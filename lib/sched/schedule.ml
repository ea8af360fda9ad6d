(* The schedule: a dataflow graph plus the transformation state the paper's
   Sec. II manipulates: tiling, pipelining hints, inlining decisions and the
   shared-memory swizzle flag, together with a log of applied primitives
   used to enforce the ordering rules of Sec. II-B:

   - cache-read and tiling must precede pipelining;
   - inlining must follow pipelining (Fig. 5): inlining an element-wise
     stage into a not-yet-pipelined cache read makes that cache read's copy
     synchronous (rule 1 then refuses to pipeline it, case 1); inlining
     after pipelining instead retargets the cache read past the element-wise
     stage and fuses the op into the downstream synchronous copy (case 2). *)

open Alcop_ir

type action =
  | Did_cache_read of string
  | Did_tile
  | Did_pipeline of string
  | Did_inline of string

type error = {
  primitive : string;
  reason : string;
}

exception Schedule_error of error

let fail primitive fmt =
  Format.kasprintf (fun reason -> raise (Schedule_error { primitive; reason })) fmt

let pp_error fmt e = Format.fprintf fmt "%s: %s" e.primitive e.reason

type t = {
  spec : Op_spec.t;
  graph : Dataflow.t;
  tiling : Tiling.t option;
  pipeline_hints : Alcop_pipeline.Hints.t;
  swizzle : bool;
  log : action list;  (** most recent first *)
}

let create spec =
  { spec; graph = Dataflow.of_spec spec; tiling = None;
    pipeline_hints = Alcop_pipeline.Hints.empty; swizzle = true; log = [] }

let log_action t a = { t with log = a :: t.log }

let pipelined t name = Alcop_pipeline.Hints.mem t.pipeline_hints name

let cache_read t stage scope =
  if
    List.exists
      (function Did_pipeline _ -> true | _ -> false)
      t.log
  then
    fail "cache_read"
      "cache-reading must be applied before pipelining (paper Sec. II-B)";
  let graph, name = Dataflow.cache_read t.graph stage scope in
  (log_action { t with graph } (Did_cache_read name), name)

let tile t tiling =
  if t.tiling <> None then fail "tile" "the schedule is already tiled";
  (match Tiling.validate tiling t.spec with
   | Ok () -> ()
   | Error reason -> fail "tile" "%s" reason);
  log_action { t with tiling = Some tiling } Did_tile

let set_swizzle t swizzle = { t with swizzle }

(* Surface legality of pipelining a buffer stage (full rules 2 and 3 run on
   the lowered loop nest inside the pipelining pass; what can be decided on
   the dataflow graph is decided here). *)
let pipeline ?(inner_fuse = true) t stage ~stages =
  if t.tiling = None then
    fail "pipeline"
      "pipelining must follow tiling: rule 2 inspects the for-loop sketch \
       after tiling (paper Sec. II-B)";
  let s =
    match Dataflow.find t.graph stage with
    | Some s -> s
    | None -> fail "pipeline" "unknown stage %s" stage
  in
  (match s.Dataflow.kind with
   | Dataflow.Cache_read { fused = None; _ } -> ()
   | Dataflow.Cache_read { fused = Some op; _ } ->
     fail "pipeline"
       "rule 1: %s is produced by a copy fused with %s, which is not an \
        asynchronous memory copy" stage op
   | Dataflow.Placeholder | Dataflow.Elemwise _ | Dataflow.Gemm _ ->
     fail "pipeline"
       "rule 1: %s is not produced by a memory copy (it is a %s stage)"
       stage
       (Dataflow.kind_to_string s.Dataflow.kind));
  let hint =
    Alcop_pipeline.Hints.make ~inner_fuse ~buffer:stage ~stages ()
  in
  let pipeline_hints =
    try Alcop_pipeline.Hints.add t.pipeline_hints hint with
    | Invalid_argument m -> fail "pipeline" "%s" m
  in
  log_action { t with pipeline_hints } (Did_pipeline stage)

(* Inlining of an element-wise stage (paper Fig. 5). *)
let inline t stage =
  let s =
    match Dataflow.find t.graph stage with
    | Some s -> s
    | None -> fail "inline" "unknown stage %s" stage
  in
  let op =
    match s.Dataflow.kind with
    | Dataflow.Elemwise { op; _ } -> op
    | Dataflow.Placeholder | Dataflow.Cache_read _ | Dataflow.Gemm _ ->
      fail "inline" "%s is not an element-wise stage" stage
  in
  let consumers = Dataflow.consumers t.graph stage in
  let cache_consumer =
    match consumers with
    | [ c ] ->
      (match c.Dataflow.kind with
       | Dataflow.Cache_read _ -> c
       | Dataflow.Placeholder | Dataflow.Elemwise _ | Dataflow.Gemm _ ->
         fail "inline" "consumer of %s is not a cache read" stage)
    | [] -> fail "inline" "%s has no consumer" stage
    | _ -> fail "inline" "%s has multiple consumers" stage
  in
  let graph =
    if pipelined t cache_consumer.Dataflow.name then begin
      (* Case 2: the consumer is pipelined; keep its copy asynchronous by
         fusing the op into the next (synchronous) copy down the chain. *)
      let downstream =
        List.find_opt
          (fun (c : Dataflow.stage) ->
            match c.Dataflow.kind with
            | Dataflow.Cache_read _ -> true
            | _ -> false)
          (Dataflow.consumers t.graph cache_consumer.Dataflow.name)
      in
      match downstream with
      | None ->
        fail "inline"
          "cannot inline %s: its consumer %s is pipelined and no downstream \
           synchronous copy exists to carry the fused op" stage
          cache_consumer.Dataflow.name
      | Some d ->
        if pipelined t d.Dataflow.name then
          fail "inline"
            "cannot inline %s: every copy downstream of pipelined %s is \
             itself pipelined" stage cache_consumer.Dataflow.name
        else
          Dataflow.remove_elemwise
            (Dataflow.set_fused t.graph d.Dataflow.name op)
            stage
    end
    else
      (* Case 1: fuse into the consumer's own copy, which makes that copy
         synchronous; a later pipeline() on it will fail rule 1. *)
      Dataflow.remove_elemwise
        (Dataflow.set_fused t.graph cache_consumer.Dataflow.name op)
        stage
  in
  log_action { t with graph } (Did_inline stage)

(* Automatic pipelining (paper Sec. II, "the pass marks the buffer
   variables within such load-and-use loops as pipelined buffers"): walk
   every cache-read stage, decide the stage count from its memory level,
   and attach the pipelining primitive wherever the legality rules allow —
   recording why the others were skipped. Rule 1's hardware side (does this
   scope have asynchronous copies on this machine?) is decided here, so the
   same schedule request degrades gracefully on pre-Ampere hardware. *)

type auto_decision =
  | Pipelined of int
  | Skipped of string

let auto_pipeline ?(inner_fuse = true) ~(hw : Alcop_hw.Hw_config.t)
    ~smem_stages ~reg_stages t =
  let decide (t, report) (s : Dataflow.stage) =
    let name = s.Dataflow.name in
    match s.Dataflow.kind with
    | Dataflow.Cache_read { scope; _ } ->
      let stages =
        match scope with
        | Buffer.Shared -> smem_stages
        | Buffer.Register -> reg_stages
        | Buffer.Global -> 1
      in
      if stages < 2 then
        (t, (name, Skipped "pipelining disabled at this level") :: report)
      else if not (Alcop_hw.Hw_config.scope_is_async hw scope) then
        ( t,
          (name,
           Skipped
             (Printf.sprintf
                "rule 1: no asynchronous copy into %s scope on %s"
                (Buffer.scope_to_string scope) hw.Alcop_hw.Hw_config.name))
          :: report )
      else begin
        match pipeline ~inner_fuse t name ~stages with
        | t -> (t, (name, Pipelined stages) :: report)
        | exception Schedule_error e ->
          (t, (name, Skipped e.reason) :: report)
      end
    | Dataflow.Placeholder | Dataflow.Elemwise _ | Dataflow.Gemm _ ->
      (t, report)
  in
  let t, report =
    List.fold_left decide (t, []) (Dataflow.cache_stages t.graph)
  in
  (t, List.rev report)

(* The canonical GPU GEMM schedule used throughout the evaluation, in two
   steps. [tiled_gemm] is the stage-free base: two-level cache reads on
   both inputs, then tiling. [pipeline_gemm] is the per-point step:
   pipelining at the requested levels, then inlining. The paper's
   [pipeline(stage=k)] annotates an otherwise fixed, tiled loop nest
   (Sec. II), so one base serves every stage count of a tiling.
   [smem_stages = 1] or [reg_stages = 1] disables pipelining at that level
   (used by the ablation compilers). *)
let tiled_gemm spec tiling =
  let t = create spec in
  let t, a_sh = cache_read t (match spec.Op_spec.a_op with
                              | Some _ -> "A_f" | None -> "A") Buffer.Shared in
  let t, _ = cache_read t a_sh Buffer.Register in
  let t, b_sh = cache_read t (match spec.Op_spec.b_op with
                              | Some _ -> "B_f" | None -> "B") Buffer.Shared in
  let t, _ = cache_read t b_sh Buffer.Register in
  tile t tiling

let pipeline_gemm ?(smem_stages = 3) ?(reg_stages = 2) ?(inner_fuse = true)
    ?(inline_elemwise = true) t =
  let spec = t.spec in
  (* The stages [tiled_gemm]'s cache reads created: [Dataflow.cache_read]
     names the chain A -> A_sh -> A_reg, or A_f -> A_f_sh -> A_f_reg
     behind an element-wise producer. *)
  let a_sh, a_reg =
    if spec.Op_spec.a_op = None then ("A_sh", "A_reg")
    else ("A_f_sh", "A_f_reg")
  in
  let b_sh, b_reg =
    if spec.Op_spec.b_op = None then ("B_sh", "B_reg")
    else ("B_f_sh", "B_f_reg")
  in
  let t =
    if smem_stages >= 2 then
      let t = pipeline t a_sh ~stages:smem_stages in
      pipeline t b_sh ~stages:smem_stages
    else t
  in
  let t =
    if reg_stages >= 2 then
      let t = pipeline ~inner_fuse t a_reg ~stages:reg_stages in
      pipeline ~inner_fuse t b_reg ~stages:reg_stages
    else t
  in
  let t =
    if inline_elemwise then begin
      (* Best effort: when every downstream copy is pipelined there is no
         synchronous fusion point (Fig. 5), so the producer stays
         materialized instead. *)
      let try_inline t stage =
        match inline t stage with
        | t -> t
        | exception Schedule_error _ -> t
      in
      let t = if spec.Op_spec.a_op <> None then try_inline t "A_f" else t in
      if spec.Op_spec.b_op <> None then try_inline t "B_f" else t
    end
    else t
  in
  t

let default_gemm ?smem_stages ?reg_stages ?inner_fuse ?inline_elemwise spec
    tiling =
  pipeline_gemm ?smem_stages ?reg_stages ?inner_fuse ?inline_elemwise
    (tiled_gemm spec tiling)
