(* Tests for the pipelining pass: legality analysis (paper Sec. II-A rules
   1-3) and the five-step program transformation (Sec. III-B). *)

open Alcop_ir
open Alcop_sched

let hw = Alcop_hw.Hw_config.ampere_a100

let spec = Op_spec.matmul ~name:"pipe_test" ~m:128 ~n:128 ~k:256 ()

let tiling =
  Tiling.make ~tb_m:64 ~tb_n:64 ~tb_k:32 ~warp_m:32 ~warp_n:32 ~warp_k:16 ()

let lowered ?(smem_stages = 3) ?(reg_stages = 2) ?(inner_fuse = true) () =
  Lower.run
    (Schedule.default_gemm ~smem_stages ~reg_stages ~inner_fuse spec tiling)

let transformed ?smem_stages ?reg_stages ?inner_fuse () =
  let l = lowered ?smem_stages ?reg_stages ?inner_fuse () in
  match Alcop_pipeline.Pass.run ~hw ~hints:l.Lower.hints l.Lower.kernel with
  | Ok r -> (l, r)
  | Error rej ->
    Alcotest.failf "unexpected rejection: %a" Alcop_pipeline.Analysis.pp_rejection rej

(* --- analysis --- *)

let test_groups_found () =
  let _, r = transformed () in
  let groups = Alcop_pipeline.Pass.groups r in
  Alcotest.(check int) "two groups" 2 (List.length groups);
  let smem =
    List.find
      (fun (g : Alcop_pipeline.Analysis.group) ->
        Buffer.scope_equal g.Alcop_pipeline.Analysis.scope Buffer.Shared)
      groups
  in
  let reg =
    List.find
      (fun (g : Alcop_pipeline.Analysis.group) ->
        Buffer.scope_equal g.Alcop_pipeline.Analysis.scope Buffer.Register)
      groups
  in
  Alcotest.(check string) "smem loop" "ko" smem.Alcop_pipeline.Analysis.loop_var;
  Alcotest.(check string) "reg loop" "ki" reg.Alcop_pipeline.Analysis.loop_var;
  Alcotest.(check int) "smem stages" 3 smem.Alcop_pipeline.Analysis.stages;
  Alcotest.(check int) "reg stages" 2 reg.Alcop_pipeline.Analysis.stages;
  Alcotest.(check bool) "smem synchronized" true
    smem.Alcop_pipeline.Analysis.synchronized;
  Alcotest.(check bool) "reg not synchronized" false
    reg.Alcop_pipeline.Analysis.synchronized;
  Alcotest.(check bool) "reg fused into smem" true
    reg.Alcop_pipeline.Analysis.fused;
  Alcotest.(check (option string)) "outer link"
    (Some smem.Alcop_pipeline.Analysis.id)
    reg.Alcop_pipeline.Analysis.outer;
  Alcotest.(check (list string)) "smem members" [ "A_sh"; "B_sh" ]
    (List.sort compare (Alcop_pipeline.Analysis.member_names smem))

let test_rule1_no_async_hardware () =
  (* Volta has no asynchronous shared-memory copy: rule 1 rejects. *)
  let l = lowered () in
  match
    Alcop_pipeline.Pass.run ~hw:Alcop_hw.Hw_config.volta_v100
      ~hints:l.Lower.hints l.Lower.kernel
  with
  | Error rej -> Alcotest.(check int) "rule" 1 rej.Alcop_pipeline.Analysis.rule
  | Ok _ -> Alcotest.fail "must reject shared-memory pipelining on Volta"

let test_rule1_fused_copy () =
  (* Hand-inject a fused op on the producing copy: the buffer is no longer
     produced by a pure asynchronous copy. *)
  let l = lowered () in
  let body =
    Stmt.map
      (function
        | Stmt.Copy ({ dst; _ } as c) when String.equal dst.Stmt.buffer "A_sh" ->
          Stmt.Copy { c with fused = Some "relu" }
        | s -> s)
      l.Lower.kernel.Kernel.body
  in
  let kernel = Kernel.map_body (fun _ -> body) l.Lower.kernel in
  match Alcop_pipeline.Pass.run ~hw ~hints:l.Lower.hints kernel with
  | Error rej ->
    Alcotest.(check int) "rule" 1 rej.Alcop_pipeline.Analysis.rule;
    Alcotest.(check string) "buffer" "A_sh" rej.Alcop_pipeline.Analysis.buffer
  | Ok _ -> Alcotest.fail "fused copy must violate rule 1"

(* A synthetic kernel whose buffer is filled once per *parallel* tile: the
   stencil-like case rule 2 rejects. *)
let test_rule2_no_sequential_loop () =
  let a = Buffer.make ~name:"A" ~scope:Buffer.Global ~dtype:Dtype.F16 ~shape:[ 64; 16 ] in
  let c = Buffer.make ~name:"C" ~scope:Buffer.Global ~dtype:Dtype.F16 ~shape:[ 64; 16 ] in
  let sh = Buffer.make ~name:"S" ~scope:Buffer.Shared ~dtype:Dtype.F16 ~shape:[ 16; 16 ] in
  let row i = Stmt.slice (Expr.mul (Expr.var i) (Expr.const 16)) 16 in
  let body =
    Stmt.for_ ~kind:(Stmt.Parallel Stmt.Block_x) "bx" (Expr.const 4)
      (Stmt.alloc sh
         (Stmt.seq
            [ Stmt.copy
                ~dst:(Stmt.full_region sh)
                ~src:(Stmt.region "A" [ row "bx"; Stmt.slice Expr.zero 16 ])
                ();
              Stmt.Sync Stmt.Barrier;
              Stmt.copy
                ~dst:(Stmt.region "C" [ row "bx"; Stmt.slice Expr.zero 16 ])
                ~src:(Stmt.full_region sh) () ]))
  in
  let kernel = Kernel.make ~name:"stencil" ~inputs:[ a ] ~outputs:[ c ] ~body in
  let hints = [ Alcop_pipeline.Hints.make ~buffer:"S" ~stages:2 () ] in
  match Alcop_pipeline.Pass.run ~hw ~hints kernel with
  | Error rej -> Alcotest.(check int) "rule" 2 rej.Alcop_pipeline.Analysis.rule
  | Ok _ -> Alcotest.fail "buffer without sequential load-and-use loop must fail"

(* Two shared-memory buffers pipelined on *different* loops: the scope has a
   single barrier object, so rule 3 rejects. *)
let test_rule3_mismatched_loops () =
  let g name = Buffer.make ~name ~scope:Buffer.Global ~dtype:Dtype.F16 ~shape:[ 64; 16 ] in
  let s name = Buffer.make ~name ~scope:Buffer.Shared ~dtype:Dtype.F16 ~shape:[ 16 ] in
  let sa = s "SA" and sb = s "SB" in
  let chunk v = Stmt.region "A" [ Stmt.point_slice (Expr.var v); Stmt.slice Expr.zero 16 ] in
  let chunk_b v = Stmt.region "B" [ Stmt.point_slice (Expr.var v); Stmt.slice Expr.zero 16 ] in
  let out v u =
    Stmt.region "C"
      [ Stmt.point_slice (Expr.add (Expr.mul (Expr.var v) (Expr.const 8)) (Expr.var u));
        Stmt.slice Expr.zero 16 ]
  in
  let body =
    Stmt.alloc sa
      (Stmt.alloc sb
         (Stmt.for_ "i" (Expr.const 8)
            (Stmt.seq
               [ Stmt.copy ~dst:(Stmt.full_region sa) ~src:(chunk "i") ();
                 Stmt.for_ "j" (Expr.const 8)
                   (Stmt.seq
                      [ Stmt.copy ~dst:(Stmt.full_region sb) ~src:(chunk_b "j") ();
                        Stmt.Sync Stmt.Barrier;
                        Stmt.copy ~dst:(out "i" "j") ~src:(Stmt.full_region sb) ();
                        Stmt.Sync Stmt.Barrier ]) ])))
  in
  let kernel =
    Kernel.make ~name:"mismatch" ~inputs:[ g "A"; g "B" ]
      ~outputs:
        [ Buffer.make ~name:"C" ~scope:Buffer.Global ~dtype:Dtype.F16
            ~shape:[ 64; 16 ] ]
      ~body
  in
  let hints =
    [ Alcop_pipeline.Hints.make ~buffer:"SA" ~stages:2 ();
      Alcop_pipeline.Hints.make ~buffer:"SB" ~stages:2 () ]
  in
  match Alcop_pipeline.Pass.run ~hw ~hints kernel with
  | Error rej -> Alcotest.(check int) "rule" 3 rej.Alcop_pipeline.Analysis.rule
  | Ok _ -> Alcotest.fail "mismatched synchronization positions must fail"

let test_rule3_mismatched_stage_counts () =
  let l = lowered () in
  let hints =
    [ Alcop_pipeline.Hints.make ~buffer:"A_sh" ~stages:3 ();
      Alcop_pipeline.Hints.make ~buffer:"B_sh" ~stages:2 () ]
  in
  match Alcop_pipeline.Pass.run ~hw ~hints l.Lower.kernel with
  | Error rej -> Alcotest.(check int) "rule" 3 rej.Alcop_pipeline.Analysis.rule
  | Ok _ -> Alcotest.fail "mismatched stage counts in one scope must fail"

(* --- transformation --- *)

let test_output_validates () =
  let _, r = transformed () in
  match Validate.check r.Alcop_pipeline.Pass.kernel with
  | Ok () -> ()
  | Error errs -> Alcotest.fail (Validate.errors_to_string errs)

let test_buffer_expansion () =
  let _, r = transformed () in
  let body = r.Alcop_pipeline.Pass.kernel.Kernel.body in
  let shape name =
    match Stmt.find_alloc body name with
    | Some b -> b.Buffer.shape
    | None -> Alcotest.failf "missing %s" name
  in
  Alcotest.(check (list int)) "A_sh expanded" [ 3; 64; 32 ] (shape "A_sh");
  Alcotest.(check (list int)) "B_sh expanded" [ 3; 64; 32 ] (shape "B_sh");
  Alcotest.(check (list int)) "A_reg expanded" [ 2; 2; 2; 32; 16 ] (shape "A_reg");
  Alcotest.(check (list int)) "C_reg untouched" [ 2; 2; 32; 32 ] (shape "C_reg")

let test_copies_become_async () =
  let _, r = transformed () in
  let body = r.Alcop_pipeline.Pass.kernel.Kernel.body in
  (* Steady-state 4 + prologue 4; only the epilogue store stays sync. *)
  Alcotest.(check int) "async copies" 8
    (Stmt.count_copies ~kind:Stmt.Async_copy body);
  Alcotest.(check int) "sync copies" 1
    (Stmt.count_copies ~kind:Stmt.Sync_copy body)

let test_barriers_removed () =
  let _, r = transformed () in
  Alcotest.(check int) "no plain barriers" 0
    (Stmt.count
       (function Stmt.Sync Stmt.Barrier -> true | _ -> false)
       r.Alcop_pipeline.Pass.kernel.Kernel.body)

let count_sync body pred = Stmt.count pred body

(* Pre-order visit of every statement. *)
let iter_stmts f body = ignore (Stmt.count (fun s -> f s; false) body)

let test_sync_primitive_counts () =
  let _, r = transformed () in
  let body = r.Alcop_pipeline.Pass.kernel.Kernel.body in
  (* acquire/commit in prologue and steady loop = 2 each; waits: one before
     the hoisted register prologue + one boundary wait; one release. *)
  Alcotest.(check int) "acquires" 2
    (count_sync body (function Stmt.Sync (Stmt.Producer_acquire _) -> true | _ -> false));
  Alcotest.(check int) "commits" 2
    (count_sync body (function Stmt.Sync (Stmt.Producer_commit _) -> true | _ -> false));
  Alcotest.(check int) "waits" 2
    (count_sync body (function Stmt.Sync (Stmt.Consumer_wait _) -> true | _ -> false));
  Alcotest.(check int) "releases" 1
    (count_sync body (function Stmt.Sync (Stmt.Consumer_release _) -> true | _ -> false))

let test_boundary_wait_under_if () =
  let _, r = transformed () in
  let body = r.Alcop_pipeline.Pass.kernel.Kernel.body in
  let found = ref false in
  iter_stmts
    (fun s ->
      match s with
      | Stmt.If { cond; then_ = Stmt.Sync (Stmt.Consumer_wait _) } ->
        found := true;
        (* boundary = extent_ki - (stages-1) = 2 - 1 = 1 *)
        Alcotest.(check (option int)) "boundary value" (Some 1)
          (Expr.eval_const cond.Stmt.rhs)
      | _ -> ())
    body;
  Alcotest.(check bool) "boundary wait exists" true !found

let test_prologue_loops () =
  let _, r = transformed () in
  let body = r.Alcop_pipeline.Pass.kernel.Kernel.body in
  let extents = ref [] in
  iter_stmts
    (fun s ->
      match s with
      | Stmt.For { var; extent; _ }
        when String.length var > 4
             && String.equal (String.sub var (String.length var - 4) 4) "_pro" ->
        extents := (var, Expr.eval_const extent) :: !extents
      | _ -> ())
    body;
  Alcotest.(check int) "two prologue loops" 2 (List.length !extents);
  Alcotest.(check (option int)) "smem prologue extent" (Some 2)
    (List.assoc "ko_pro" !extents);
  Alcotest.(check (option int)) "reg prologue extent" (Some 1)
    (List.assoc "ki_pro" !extents)

(* The steady-state producer copy of A_sh must load (ko + 2) % 3 and read
   A at column block (ko + 2) % 8. *)
let test_index_shift_and_wrap () =
  let _, r = transformed () in
  let body = r.Alcop_pipeline.Pass.kernel.Kernel.body in
  let checked = ref false in
  iter_stmts
    (fun s ->
      match s with
      | Stmt.Copy { dst; src; _ }
        when String.equal dst.Stmt.buffer "A_sh"
             && Expr.mentions "ko" (List.hd dst.Stmt.slices).Stmt.offset ->
        checked := true;
        let eval_at ko e =
          Expr.eval (fun v -> if String.equal v "ko" then Some ko
                              else if String.equal v "bi" then Some 0
                              else None) e
        in
        let stage = (List.hd dst.Stmt.slices).Stmt.offset in
        Alcotest.(check int) "stage at ko=0" 2 (eval_at 0 stage);
        Alcotest.(check int) "stage at ko=4" 0 (eval_at 4 stage);
        (* source column block wraps modulo the loop extent (8). *)
        let col = (List.nth src.Stmt.slices 1).Stmt.offset in
        Alcotest.(check int) "src col at ko=0" (2 * 32) (eval_at 0 col);
        Alcotest.(check int) "src col at ko=6 wraps" 0 (eval_at 6 col)
      | _ -> ())
    body;
  Alcotest.(check bool) "producer copy found" true !checked

(* The register pipeline's source indexes the outer stage with the carry
   term (ko + (ki+1)/extent_ki) % 3 — paper Fig. 7 line 26. *)
let test_multilevel_carry_index () =
  let _, r = transformed () in
  let body = r.Alcop_pipeline.Pass.kernel.Kernel.body in
  let checked = ref false in
  iter_stmts
    (fun s ->
      match s with
      | Stmt.Copy { dst; src; _ }
        when String.equal dst.Stmt.buffer "A_reg"
             && String.equal src.Stmt.buffer "A_sh"
             && Expr.mentions "ki" (List.hd src.Stmt.slices).Stmt.offset ->
        checked := true;
        let stage = (List.hd src.Stmt.slices).Stmt.offset in
        let eval_at ko ki =
          Expr.eval
            (fun v ->
              if String.equal v "ko" then Some ko
              else if String.equal v "ki" then Some ki
              else if String.equal v "wi" then Some 0
              else None)
            stage
        in
        (* extent_ki = 2: at ki=0 stay in stage ko; at ki=1 carry to ko+1 *)
        Alcotest.(check int) "no carry" 0 (eval_at 0 0);
        Alcotest.(check int) "carry" 1 (eval_at 0 1);
        Alcotest.(check int) "carry wraps" 0 (eval_at 2 1)
      | _ -> ())
    body;
  Alcotest.(check bool) "register load found" true !checked

let test_mma_reads_rolling_stage () =
  let _, r = transformed () in
  let body = r.Alcop_pipeline.Pass.kernel.Kernel.body in
  let ok = ref false in
  iter_stmts
    (fun s ->
      match s with
      | Stmt.Mma { a; _ } ->
        let stage = (List.hd a.Stmt.slices).Stmt.offset in
        let v ki =
          Expr.eval (fun x -> if String.equal x "ki" then Some ki else None) stage
        in
        if Expr.mentions "ki" stage then begin
          ok := true;
          Alcotest.(check int) "ki=0" 0 (v 0);
          Alcotest.(check int) "ki=1" 1 (v 1)
        end
      | _ -> ())
    body;
  Alcotest.(check bool) "mma stage roll" true !ok

(* Single-level pipelining (ALCOP w/o ML): only the shared level pipelined,
   one wait before the inner loop, no If-guarded waits. *)
let test_single_level () =
  let _, r = transformed ~reg_stages:1 () in
  let groups = Alcop_pipeline.Pass.groups r in
  Alcotest.(check int) "one group" 1 (List.length groups);
  let body = r.Alcop_pipeline.Pass.kernel.Kernel.body in
  Alcotest.(check int) "waits" 1
    (count_sync body (function Stmt.Sync (Stmt.Consumer_wait _) -> true | _ -> false));
  Alcotest.(check int) "ifs" 0
    (Stmt.count (function Stmt.If _ -> true | _ -> false) body)

(* Register-only pipelining without fusion context: producer not pipelined,
   so the inner pipeline is recursive (prologue inside the outer loop). *)
let test_register_only_pipeline () =
  let _, r = transformed ~smem_stages:1 () in
  let groups = Alcop_pipeline.Pass.groups r in
  Alcotest.(check int) "one group" 1 (List.length groups);
  let g = List.hd groups in
  Alcotest.(check bool) "not fused" false g.Alcop_pipeline.Analysis.fused;
  let body = r.Alcop_pipeline.Pass.kernel.Kernel.body in
  (* barriers of the unpipelined smem staging must survive *)
  Alcotest.(check int) "barriers kept" 2
    (count_sync body (function Stmt.Sync Stmt.Barrier -> true | _ -> false));
  (* the register prologue sits inside ko: its loop is still there *)
  Alcotest.(check bool) "prologue exists" true
    (List.mem "ki_pro" (Stmt.loop_vars body))

(* Multi-level without inner-pipeline fusion (paper Fig. 3c): the register
   prologue re-executes per outer iteration and no boundary wait exists. *)
let test_multilevel_unfused () =
  let _, r = transformed ~inner_fuse:false () in
  let reg =
    List.find
      (fun (g : Alcop_pipeline.Analysis.group) ->
        Buffer.scope_equal g.Alcop_pipeline.Analysis.scope Buffer.Register)
      (Alcop_pipeline.Pass.groups r)
  in
  Alcotest.(check bool) "not fused" false reg.Alcop_pipeline.Analysis.fused;
  let body = r.Alcop_pipeline.Pass.kernel.Kernel.body in
  Alcotest.(check int) "no boundary ifs" 0
    (Stmt.count (function Stmt.If _ -> true | _ -> false) body);
  (* one unconditional wait (before first smem reader) per the outer group *)
  Alcotest.(check int) "waits" 1
    (count_sync body (function Stmt.Sync (Stmt.Consumer_wait _) -> true | _ -> false))

let test_empty_hints_identity () =
  let l = lowered ~smem_stages:1 ~reg_stages:1 () in
  Alcotest.(check int) "no hints" 0 (List.length l.Lower.hints);
  match Alcop_pipeline.Pass.run ~hw ~hints:[] l.Lower.kernel with
  | Ok r ->
    Alcotest.(check string) "body unchanged"
      (Kernel.to_string l.Lower.kernel)
      (Kernel.to_string r.Alcop_pipeline.Pass.kernel)
  | Error _ -> Alcotest.fail "empty hints must succeed"

let suite =
  [ ( "pipeline.analysis",
      [ Alcotest.test_case "groups found" `Quick test_groups_found;
        Alcotest.test_case "rule 1: no async hardware" `Quick
          test_rule1_no_async_hardware;
        Alcotest.test_case "rule 1: fused copy" `Quick test_rule1_fused_copy;
        Alcotest.test_case "rule 2: no sequential loop" `Quick
          test_rule2_no_sequential_loop;
        Alcotest.test_case "rule 3: mismatched loops" `Quick
          test_rule3_mismatched_loops;
        Alcotest.test_case "rule 3: mismatched stages" `Quick
          test_rule3_mismatched_stage_counts ] );
    ( "pipeline.transform",
      [ Alcotest.test_case "output validates" `Quick test_output_validates;
        Alcotest.test_case "buffer expansion" `Quick test_buffer_expansion;
        Alcotest.test_case "copies become async" `Quick test_copies_become_async;
        Alcotest.test_case "barriers removed" `Quick test_barriers_removed;
        Alcotest.test_case "sync primitive counts" `Quick test_sync_primitive_counts;
        Alcotest.test_case "boundary wait under if" `Quick
          test_boundary_wait_under_if;
        Alcotest.test_case "prologue loops" `Quick test_prologue_loops;
        Alcotest.test_case "index shift and wrap" `Quick test_index_shift_and_wrap;
        Alcotest.test_case "multi-level carry index" `Quick
          test_multilevel_carry_index;
        Alcotest.test_case "mma reads rolling stage" `Quick
          test_mma_reads_rolling_stage;
        Alcotest.test_case "single level" `Quick test_single_level;
        Alcotest.test_case "register-only pipeline" `Quick
          test_register_only_pipeline;
        Alcotest.test_case "multi-level unfused" `Quick test_multilevel_unfused;
        Alcotest.test_case "empty hints identity" `Quick test_empty_hints_identity ] ) ]
