(* Trace extraction tests: byte/FLOP accounting and synthesized
   register-pipeline commit/wait structure. *)

open Alcop_sched
open Alcop_gpusim

let hw = Alcop_hw.Hw_config.ampere_a100

let spec = Op_spec.matmul ~name:"trace_test" ~m:128 ~n:128 ~k:256 ()

let tiling =
  Tiling.make ~tb_m:64 ~tb_n:64 ~tb_k:32 ~warp_m:32 ~warp_n:32 ~warp_k:16 ()

(* The packed program and the pipeline groups it was extracted with. *)
let build_program ?(smem_stages = 3) ?(reg_stages = 2) () =
  let sched = Schedule.default_gemm ~smem_stages ~reg_stages spec tiling in
  let l = Lower.run sched in
  match Alcop_pipeline.Pass.run ~hw ~hints:l.Lower.hints l.Lower.kernel with
  | Ok r ->
    let groups = Alcop_pipeline.Pass.groups r in
    (Trace.extract_program ~groups r.Alcop_pipeline.Pass.kernel, groups)
  | Error rej ->
    Alcotest.failf "rejection: %a" Alcop_pipeline.Analysis.pp_rejection rej

(* The boxed event view, for tests that match on events. *)
let build ?smem_stages ?reg_stages () =
  let p, groups = build_program ?smem_stages ?reg_stages () in
  (Boxed_trace.decode p, groups)

let program_stats ?smem_stages ?reg_stages () =
  Trace.stats_of_program (fst (build_program ?smem_stages ?reg_stages ()))

(* One threadblock computes tb_m x tb_n x K. *)
let expected_flops = 2 * 64 * 64 * 256

(* Global bytes: (tb_m + tb_n) * tb_k * 2B per ko iteration, 8 iterations,
   plus pipelining prologue/wrap extras. *)
let steady_global_bytes = (64 + 64) * 32 * 2 * 8

let test_flops_exact () =
  let stats = program_stats () in
  Alcotest.(check int) "flops" expected_flops stats.Trace.flops

let test_global_bytes () =
  let stats = program_stats () in
  (* steady loads + 2 extra prologue-equivalent iterations (stages-1) *)
  let expected = steady_global_bytes * (8 + 2) / 8 in
  Alcotest.(check int) "global bytes" expected stats.Trace.global_load_bytes

let test_store_bytes () =
  let stats = program_stats () in
  Alcotest.(check int) "output tile" (64 * 64 * 2) stats.Trace.store_bytes

let test_unpipelined_trace_shape () =
  let p, _ = build_program ~smem_stages:1 ~reg_stages:1 () in
  let stats = Trace.stats_of_program p in
  Alcotest.(check int) "flops" expected_flops stats.Trace.flops;
  Alcotest.(check int) "global bytes" steady_global_bytes
    stats.Trace.global_load_bytes;
  (* barriers survive: 2 per ko iteration *)
  let barriers =
    Array.fold_left
      (fun n e -> match e with Boxed_trace.Barrier -> n + 1 | _ -> n)
      0 (Boxed_trace.decode p)
  in
  Alcotest.(check int) "barriers" 16 barriers

let count trace pred = Array.fold_left (fun n e -> if pred e then n + 1 else n) 0 trace

let test_smem_pipeline_sync_events () =
  let trace, _ = build ~reg_stages:1 () in
  (* acquires: 2 prologue iterations + 8 steady = 10; waits = 8 steady
     (wait sits before the inner loop each iteration); commits = 10. *)
  Alcotest.(check int) "acquires" 10
    (count trace (function Boxed_trace.Acquire _ -> true | _ -> false));
  Alcotest.(check int) "commits" 10
    (count trace (function Boxed_trace.Commit _ -> true | _ -> false));
  Alcotest.(check int) "waits" 8
    (count trace (function Boxed_trace.Wait_oldest _ -> true | _ -> false))

(* Register pipeline synthesis: per ki iteration one commit and one wait on
   the register group, plus one commit per prologue chunk. *)
let test_register_pipeline_synthesis () =
  let trace, groups = build () in
  let reg_gid =
    (List.find
       (fun (g : Alcop_pipeline.Analysis.group) ->
         not g.Alcop_pipeline.Analysis.synchronized)
       groups)
      .Alcop_pipeline.Analysis.id
  in
  let commits =
    count trace (function Boxed_trace.Commit { group = g; _ } -> String.equal g reg_gid | _ -> false)
  in
  let waits =
    count trace
      (function Boxed_trace.Wait_oldest { group = g; _ } -> String.equal g reg_gid | _ -> false)
  in
  (* hoisted prologue: 1 chunk; steady: 8 ko x 2 ki = 16 -> 17 commits.
     waits: one per compute = 16. *)
  Alcotest.(check int) "reg commits" 17 commits;
  Alcotest.(check int) "reg waits" 16 waits;
  (* every wait retires a batch that was committed at least one iteration
     earlier: check by replay that the queue never underflows. *)
  let depth = ref 0 in
  Array.iter
    (fun e ->
      match e with
      | Boxed_trace.Commit { group = g; _ } when String.equal g reg_gid -> incr depth
      | Boxed_trace.Wait_oldest { group = g; _ } when String.equal g reg_gid ->
        decr depth;
        if !depth < 0 then Alcotest.fail "register wait underflow"
      | _ -> ())
    trace

let test_wait_follows_commit_order () =
  (* For the shared group the same no-underflow property must hold. *)
  let trace, groups = build () in
  let gid =
    (List.find
       (fun (g : Alcop_pipeline.Analysis.group) ->
         g.Alcop_pipeline.Analysis.synchronized)
       groups)
      .Alcop_pipeline.Analysis.id
  in
  let depth = ref 0 in
  Array.iter
    (fun e ->
      match e with
      | Boxed_trace.Commit { group = g; _ } when String.equal g gid -> incr depth
      | Boxed_trace.Wait_oldest { group = g; _ } when String.equal g gid ->
        decr depth;
        if !depth < 0 then Alcotest.fail "shared wait underflow"
      | _ -> ())
    trace

let test_warp_aggregation () =
  (* Register loads are per warp; with 4 warps the trace bytes must scale. *)
  let stats = program_stats ~smem_stages:1 ~reg_stages:1 () in
  (* per ki: (warp_m + warp_n) * warp_k * 2B * 4 warps; 2 ki x 8 ko *)
  let expected = (32 + 32) * 16 * 2 * 4 * 2 * 8 in
  Alcotest.(check int) "shared bytes" expected stats.Trace.shared_load_bytes

(* Failure modes of extraction on hand-built kernels. An unknown buffer is
   found while the body is resolved, so it raises even where no
   threadblock reaches it; an unbound variable and a malformed mma raise
   only when the walk reaches them. *)
module Ir = Alcop_ir

let buf name scope shape =
  Ir.Buffer.make ~name ~scope ~dtype:Ir.Dtype.F16 ~shape

let a_glob = buf "A" Ir.Buffer.Global [ 64; 64 ]
let c_glob = buf "C" Ir.Buffer.Global [ 64; 64 ]
let a_sh = buf "A_sh" Ir.Buffer.Shared [ 64; 64 ]

let kernel body =
  Ir.Kernel.make ~name:"hand" ~inputs:[ a_glob ] ~outputs:[ c_glob ]
    ~body:(Ir.Stmt.alloc a_sh body)

let load_a () =
  Ir.Stmt.copy ~dst:(Ir.Stmt.full_region a_sh) ~src:(Ir.Stmt.full_region a_glob)
    ()

let never body =
  Ir.Stmt.If
    { cond = { lhs = Ir.Expr.zero; cmp = Ir.Stmt.Eq; rhs = Ir.Expr.one };
      then_ = body }

let extract body = Trace.extract_program ~groups:[] (kernel body)

let check_raises what msg body =
  Alcotest.check_raises what (Invalid_argument msg) (fun () ->
      ignore (extract body))

let ghost_copy =
  Ir.Stmt.copy ~dst:(Ir.Stmt.full_region a_sh)
    ~src:(Ir.Stmt.region "ghost" [ Ir.Stmt.slice Ir.Expr.zero 64 ])
    ()

let test_unknown_buffer () =
  check_raises "reached" "Trace: unknown buffer ghost" ghost_copy;
  check_raises "never reached" "Trace: unknown buffer ghost" (never ghost_copy);
  (* the destination is looked up before the source *)
  check_raises "destination first" "Trace: unknown buffer nowhere"
    (Ir.Stmt.copy
       ~dst:(Ir.Stmt.region "nowhere" [ Ir.Stmt.slice Ir.Expr.zero 64 ])
       ~src:(Ir.Stmt.region "ghost" [ Ir.Stmt.slice Ir.Expr.zero 64 ])
       ())

let test_unbound_extent () =
  let loop extent = Ir.Stmt.for_ "i" extent (load_a ()) in
  check_raises "reached" "Expr.eval: unbound variable n"
    (loop (Ir.Expr.var "n"));
  check_raises "inside an expression" "Expr.eval: unbound variable n"
    (loop (Ir.Expr.Add (Ir.Expr.const 1, Ir.Expr.var "n")));
  check_raises "in a condition" "Expr.eval: unbound variable n"
    (Ir.Stmt.If
       { cond = { lhs = Ir.Expr.var "n"; cmp = Ir.Stmt.Lt; rhs = Ir.Expr.one };
         then_ = load_a () });
  (* A loop's own variable is not in scope in its extent. *)
  check_raises "own variable" "Expr.eval: unbound variable i"
    (loop (Ir.Expr.var "i"));
  let p = extract (Ir.Stmt.seq [ load_a (); never (loop (Ir.Expr.var "n")) ]) in
  Alcotest.(check int) "unreached: the load only" 1 (Trace.length p);
  (* both operands unbound: the right one is evaluated first *)
  check_raises "right operand first" "Expr.eval: unbound variable y"
    (loop (Ir.Expr.Add (Ir.Expr.var "x", Ir.Expr.var "y")));
  check_raises "condition: left operand first" "Expr.eval: unbound variable p"
    (Ir.Stmt.If
       { cond = { lhs = Ir.Expr.var "p"; cmp = Ir.Stmt.Eq; rhs = Ir.Expr.var "q" };
         then_ = load_a () });
  check_raises "min: right operand first" "Expr.eval: unbound variable y"
    (loop (Ir.Expr.Min (Ir.Expr.var "x", Ir.Expr.var "y")));
  check_raises "division by zero" "Expr: division by zero"
    (loop (Ir.Expr.Div (Ir.Expr.const 4, Ir.Expr.Sub (Ir.Expr.one, Ir.Expr.one))))

let test_malformed_mma () =
  let c = buf "C_reg" Ir.Buffer.Register [ 2; 2; 2 ] in
  let r b = Ir.Stmt.full_region b in
  let mma = Ir.Stmt.Mma { c = r c; a = r c; b = r c } in
  let body s = Ir.Stmt.alloc c (Ir.Stmt.seq [ load_a (); s ]) in
  let p = extract (body (never mma)) in
  Alcotest.(check int) "unreached: the load only" 1 (Trace.length p);
  check_raises "reached" "Trace: malformed mma operands" (body mma)

let suite =
  [ ( "trace",
      [ Alcotest.test_case "flops exact" `Quick test_flops_exact;
        Alcotest.test_case "global bytes" `Quick test_global_bytes;
        Alcotest.test_case "store bytes" `Quick test_store_bytes;
        Alcotest.test_case "unpipelined trace" `Quick test_unpipelined_trace_shape;
        Alcotest.test_case "smem sync events" `Quick test_smem_pipeline_sync_events;
        Alcotest.test_case "register pipeline synthesis" `Quick
          test_register_pipeline_synthesis;
        Alcotest.test_case "wait follows commit" `Quick test_wait_follows_commit_order;
        Alcotest.test_case "warp aggregation" `Quick test_warp_aggregation;
        Alcotest.test_case "unknown buffer raises" `Quick test_unknown_buffer;
        Alcotest.test_case "unbound variable raises when evaluated" `Quick
          test_unbound_extent;
        Alcotest.test_case "malformed mma raises when reached" `Quick
          test_malformed_mma ] ) ]
