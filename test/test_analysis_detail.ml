(* White-box tests of the pipelining pass's analysis internals and of the
   transformation helpers exposed for testing: group ordering, producer
   reconstruction, prologue naming, and behaviour on synthetic loop nests
   outside the canonical GEMM shape. *)

open Alcop_ir
open Alcop_sched

let hw = Alcop_hw.Hw_config.ampere_a100

let canonical () =
  let spec = Op_spec.matmul ~name:"adetail" ~m:128 ~n:128 ~k:256 () in
  let tiling =
    Tiling.make ~tb_m:64 ~tb_n:64 ~tb_k:32 ~warp_m:32 ~warp_n:32 ~warp_k:16 ()
  in
  let l =
    Lower.run (Schedule.default_gemm ~smem_stages:3 ~reg_stages:2 spec tiling)
  in
  match Alcop_pipeline.Analysis.run ~hw ~hints:l.Lower.hints l.Lower.kernel with
  | Ok a -> (l, a)
  | Error _ -> Alcotest.fail "canonical kernel rejected"

let test_group_ordering_outermost_first () =
  let _, a = canonical () in
  match a.Alcop_pipeline.Analysis.groups with
  | [ outer; inner ] ->
    Alcotest.(check bool) "outer shallower" true
      (outer.Alcop_pipeline.Analysis.loop_depth
       < inner.Alcop_pipeline.Analysis.loop_depth);
    Alcotest.(check string) "outer is ko" "ko"
      outer.Alcop_pipeline.Analysis.loop_var
  | gs -> Alcotest.failf "expected 2 groups, got %d" (List.length gs)

let test_producer_reconstruction () =
  let _, a = canonical () in
  let inner =
    List.find
      (fun (g : Alcop_pipeline.Analysis.group) ->
        Buffer.scope_equal g.Alcop_pipeline.Analysis.scope Buffer.Register)
      a.Alcop_pipeline.Analysis.groups
  in
  List.iter
    (fun (m : Alcop_pipeline.Analysis.buffer_info) ->
      (* step 2: A_reg's producer is A_sh, B_reg's is B_sh *)
      let expected =
        if String.equal m.Alcop_pipeline.Analysis.buffer.Buffer.name "A_reg"
        then "A_sh"
        else "B_sh"
      in
      Alcotest.(check string) "producer" expected
        m.Alcop_pipeline.Analysis.producer)
    inner.Alcop_pipeline.Analysis.members

let test_group_lookup_helpers () =
  let _, a = canonical () in
  Alcotest.(check bool) "A_sh pipelined" true
    (Alcop_pipeline.Analysis.group_of_buffer a "A_sh" <> None);
  Alcotest.(check bool) "C_reg not pipelined" false
    (Alcop_pipeline.Analysis.group_of_buffer a "C_reg" <> None);
  (match Alcop_pipeline.Analysis.group_of_buffer a "B_reg" with
   | Some g ->
     Alcotest.(check string) "group id" "pipe.register.ki"
       g.Alcop_pipeline.Analysis.id
   | None -> Alcotest.fail "B_reg must belong to a group");
  Alcotest.(check bool) "find_group" true
    (Alcop_pipeline.Analysis.find_group a "pipe.shared.ko" <> None)

let test_prologue_var_naming () =
  Alcotest.(check string) "derived" "ko_pro"
    (Alcop_pipeline.Transform.prologue_var_of "ko")

(* A deeper nest: the pipeline loop is found across an intermediate
   buffer-indexing loop (the paper's step 3 skips loops whose variable
   indexes into the buffer). *)
let test_pipeline_loop_skips_indexing_loops () =
  let a = Buffer.make ~name:"A" ~scope:Buffer.Global ~dtype:Dtype.F16 ~shape:[ 8; 4; 16 ] in
  let c = Buffer.make ~name:"C" ~scope:Buffer.Global ~dtype:Dtype.F16 ~shape:[ 8; 4; 16 ] in
  let sh = Buffer.make ~name:"S" ~scope:Buffer.Shared ~dtype:Dtype.F16 ~shape:[ 4; 16 ] in
  (* S is partitioned along p (indexes S) inside the reuse loop t *)
  let body =
    Stmt.alloc sh
      (Stmt.for_ "t" (Expr.const 8)
         (Stmt.seq
            [ Stmt.for_ "p" (Expr.const 4)
                (Stmt.copy
                   ~dst:(Stmt.region "S" [ Stmt.point_slice (Expr.var "p");
                                           Stmt.slice Expr.zero 16 ])
                   ~src:(Stmt.region "A" [ Stmt.point_slice (Expr.var "t");
                                           Stmt.point_slice (Expr.var "p");
                                           Stmt.slice Expr.zero 16 ])
                   ());
              Stmt.Sync Stmt.Barrier;
              Stmt.copy
                ~dst:(Stmt.region "C" [ Stmt.point_slice (Expr.var "t");
                                        Stmt.slice Expr.zero 4;
                                        Stmt.slice Expr.zero 16 ])
                ~src:(Stmt.full_region sh) ();
              Stmt.Sync Stmt.Barrier ]))
  in
  let kernel = Kernel.make ~name:"nest" ~inputs:[ a ] ~outputs:[ c ] ~body in
  let hints = [ Alcop_pipeline.Hints.make ~buffer:"S" ~stages:2 () ] in
  match Alcop_pipeline.Analysis.run ~hw ~hints kernel with
  | Ok analysis ->
    (match analysis.Alcop_pipeline.Analysis.groups with
     | [ g ] ->
       Alcotest.(check string) "pipeline loop is t, not p" "t"
         g.Alcop_pipeline.Analysis.loop_var
     | _ -> Alcotest.fail "expected one group")
  | Error r ->
    Alcotest.failf "unexpected rejection: %a" Alcop_pipeline.Analysis.pp_rejection r

(* ... and the transformed version of that nest still runs correctly. *)
let test_partitioned_buffer_pipeline_executes () =
  let a = Buffer.make ~name:"A" ~scope:Buffer.Global ~dtype:Dtype.F16 ~shape:[ 8; 4; 16 ] in
  let c = Buffer.make ~name:"C" ~scope:Buffer.Global ~dtype:Dtype.F16 ~shape:[ 8; 4; 16 ] in
  let sh = Buffer.make ~name:"S" ~scope:Buffer.Shared ~dtype:Dtype.F16 ~shape:[ 4; 16 ] in
  let body =
    Stmt.alloc sh
      (Stmt.for_ "t" (Expr.const 8)
         (Stmt.seq
            [ Stmt.copy
                ~dst:(Stmt.full_region sh)
                ~src:(Stmt.region "A" [ Stmt.point_slice (Expr.var "t");
                                        Stmt.slice Expr.zero 4;
                                        Stmt.slice Expr.zero 16 ])
                ();
              Stmt.Sync Stmt.Barrier;
              Stmt.copy
                ~dst:(Stmt.region "C" [ Stmt.point_slice (Expr.var "t");
                                        Stmt.slice Expr.zero 4;
                                        Stmt.slice Expr.zero 16 ])
                ~src:(Stmt.full_region sh) ();
              Stmt.Sync Stmt.Barrier ]))
  in
  let kernel = Kernel.make ~name:"copy_through" ~inputs:[ a ] ~outputs:[ c ] ~body in
  let hints = [ Alcop_pipeline.Hints.make ~buffer:"S" ~stages:3 () ] in
  match Alcop_pipeline.Pass.run ~hw ~hints kernel with
  | Error r ->
    Alcotest.failf "rejected: %a" Alcop_pipeline.Analysis.pp_rejection r
  | Ok result ->
    let t = Alcop_gpusim.Tensor.random ~seed:3 [ 8; 4; 16 ] in
    let out =
      Alcop_gpusim.Interp.run
        ~groups:(Alcop_pipeline.Pass.groups result)
        result.Alcop_pipeline.Pass.kernel
        ~inputs:[ ("A", t) ]
    in
    let got = snd (List.hd out) in
    Alcotest.(check bool) "copy-through pipeline is the identity" true
      (Alcop_gpusim.Tensor.allclose got t)

let suite =
  [ ( "analysis-detail",
      [ Alcotest.test_case "group ordering" `Quick
          test_group_ordering_outermost_first;
        Alcotest.test_case "producer reconstruction" `Quick
          test_producer_reconstruction;
        Alcotest.test_case "group lookup helpers" `Quick
          test_group_lookup_helpers;
        Alcotest.test_case "prologue naming" `Quick test_prologue_var_naming;
        Alcotest.test_case "pipeline loop skips indexing loops" `Quick
          test_pipeline_loop_skips_indexing_loops;
        Alcotest.test_case "partitioned-buffer pipeline executes" `Quick
          test_partitioned_buffer_pipeline_executes ] ) ]
