(* Golden-output test: the full pipelined IR of the paper's Fig. 7
   configuration (3-stage shared pipeline, 2-stage fused register pipeline)
   is pinned verbatim. Any unintended change to the transformation's
   emitted structure — index arithmetic, prologue shape, synchronization
   placement — fails here with a readable diff. Update deliberately. *)

open Alcop_sched

let hw = Alcop_hw.Hw_config.ampere_a100

let golden =
  "kernel fig7\n\
   inputs:  A : f16[128, 256] @global\n\
  \         B : f16[128, 256] @global\n\
   outputs: C : f16[128, 128] @global\n\
   for @blockIdx.y bi in 0 .. 2:\n\
  \  for @blockIdx.x bj in 0 .. 2:\n\
  \    alloc A_sh : f16[3, 64, 32] @shared\n\
  \    alloc B_sh : f16[3, 64, 32] @shared\n\
  \    alloc A_reg : f16[2, 2, 2, 32, 16] @register\n\
  \    alloc B_reg : f16[2, 2, 2, 32, 16] @register\n\
  \    alloc C_reg : f16[2, 2, 32, 32] @register\n\
  \    for @warpIdx.y wi in 0 .. 2:\n\
  \      for @warpIdx.x wj in 0 .. 2:\n\
  \        fill(C_reg[wi, wj, 0:32, 0:32], 0)\n\
  \    for ko_pro in 0 .. 2:\n\
  \      pipe.shared.ko.producer_acquire()\n\
  \      async_memcpy(A_sh[ko_pro % 3, 0:64, 0:32], A[bi * 64:+64, (ko_pro % 8) * 32:+32])\n\
  \      async_memcpy(B_sh[ko_pro % 3, 0:64, 0:32], B[bj * 64:+64, (ko_pro % 8) * 32:+32])\n\
  \      pipe.shared.ko.producer_commit()\n\
  \    pipe.shared.ko.consumer_wait()\n\
  \    for ki_pro in 0 .. 1:\n\
  \      for @warpIdx.y wi in 0 .. 2:\n\
  \        for @warpIdx.x wj in 0 .. 2:\n\
  \          async_memcpy(A_reg[ki_pro % 2, wi, wj, 0:32, 0:16], A_sh[(ki_pro / 2) % 3, wi * 32:+32, (ki_pro % 2) * 16:+16])\n\
  \          async_memcpy(B_reg[ki_pro % 2, wi, wj, 0:32, 0:16], B_sh[(ki_pro / 2) % 3, wj * 32:+32, (ki_pro % 2) * 16:+16])\n\
  \    for ko in 0 .. 8:\n\
  \      pipe.shared.ko.producer_acquire()\n\
  \      async_memcpy(A_sh[(ko + 2) % 3, 0:64, 0:32], A[bi * 64:+64, ((ko + 2) % 8) * 32:+32])\n\
  \      async_memcpy(B_sh[(ko + 2) % 3, 0:64, 0:32], B[bj * 64:+64, ((ko + 2) % 8) * 32:+32])\n\
  \      pipe.shared.ko.producer_commit()\n\
  \      for ki in 0 .. 2:\n\
  \        if ki == 1:\n\
  \          pipe.shared.ko.consumer_wait()\n\
  \        for @warpIdx.y wi in 0 .. 2:\n\
  \          for @warpIdx.x wj in 0 .. 2:\n\
  \            async_memcpy(A_reg[(ki + 1) % 2, wi, wj, 0:32, 0:16], A_sh[(ko + (ki + 1) / 2) % 3, wi * 32:+32, ((ki + 1) % 2) * 16:+16])\n\
  \            async_memcpy(B_reg[(ki + 1) % 2, wi, wj, 0:32, 0:16], B_sh[(ko + (ki + 1) / 2) % 3, wj * 32:+32, ((ki + 1) % 2) * 16:+16])\n\
  \            mma(C_reg[wi, wj, 0:32, 0:32] += A_reg[ki % 2, wi, wj, 0:32, 0:16] * B_reg[ki % 2, wi, wj, 0:32, 0:16])\n\
  \      pipe.shared.ko.consumer_release()\n\
  \    for @warpIdx.y wi in 0 .. 2:\n\
  \      for @warpIdx.x wj in 0 .. 2:\n\
  \        memcpy(C[bi * 64 + wi * 32:+32, bj * 64 + wj * 32:+32], C_reg[wi, wj, 0:32, 0:32])"

let test_fig7_golden () =
  let spec = Op_spec.matmul ~name:"fig7" ~m:128 ~n:128 ~k:256 () in
  let tiling =
    Tiling.make ~tb_m:64 ~tb_n:64 ~tb_k:32 ~warp_m:32 ~warp_n:32 ~warp_k:16 ()
  in
  let p = Alcop_perfmodel.Params.make ~tiling ~smem_stages:3 ~reg_stages:2 () in
  match Alcop.Compiler.compile ~hw p spec with
  | Error e -> Alcotest.fail (Alcop.Compiler.error_to_string e)
  | Ok c ->
    Alcotest.(check string) "pipelined IR matches the pinned Fig. 7 form"
      golden
      (Alcop_ir.Kernel.to_string c.Alcop.Compiler.kernel)

(* --- tuning log --- *)

let contains haystack needle =
  let n = String.length haystack and m = String.length needle in
  let rec go i =
    i + m <= n && (String.equal (String.sub haystack i m) needle || go (i + 1))
  in
  go 0

let test_tuning_log_json () =
  let spec = Op_spec.matmul ~name:"log_test" ~m:128 ~n:64 ~k:256 () in
  let space = Alcop.Variants.space Alcop.Variants.alcop spec in
  let evaluate = Alcop.Variants.evaluator ~hw Alcop.Variants.alcop spec in
  let result =
    Alcop_tune.Tuner.run ~hw ~spec ~space ~evaluate ~budget:5 ~seed:1
      Alcop_tune.Tuner.Grid
  in
  let json =
    Alcop_tune.Tuning_log.to_json ~spec_name:"log_test"
      ~method_:Alcop_tune.Tuner.Grid ~seed:1 result
  in
  Alcotest.(check bool) "operator" true (contains json "\"operator\":\"log_test\"");
  Alcotest.(check bool) "method" true (contains json "\"method\":\"grid-search\"");
  Alcotest.(check bool) "five trials" true
    (Array.length result.Alcop_tune.Tuner.trials = 5);
  Alcotest.(check bool) "has knobs" true (contains json "\"smem_stages\":");
  (* every trial object appears *)
  Alcotest.(check int) "trial objects" 5
    (let count = ref 0 and i = ref 0 in
     let m = String.length "\"index\":" in
     while !i + m <= String.length json do
       if String.equal (String.sub json !i m) "\"index\":" then incr count;
       incr i
     done;
     !count);
  (* escaping: quotes and newlines in names stay valid *)
  let weird =
    Alcop_tune.Tuning_log.to_json ~spec_name:"a\"b\nc"
      ~method_:Alcop_tune.Tuner.Grid ~seed:1 result
  in
  Alcotest.(check bool) "escaped quote" true (contains weird "a\\\"b\\nc")

(* The tuning logs of [alcop tune MM_RN50_FC -j 1 --budget 12 --no-store
   --log FILE] for both learned methods are pinned byte for byte in
   test/golden/ (the CLI writes them through the same calls). They pin the
   exact trial sequence, so any drift in the boosted cost model's trees or
   scores — not just in the best cost — fails here. *)
let tuning_log_golden method_ file () =
  let hw = Alcop_hw.Hw_config.default in
  let spec = Alcop_workloads.Suites.mm_rn50_fc in
  let session = Alcop.Session.create ~hw () in
  let space = Alcop.Variants.space Alcop.Variants.alcop spec in
  let evaluate = Alcop.Variants.evaluator ~hw ~session Alcop.Variants.alcop spec in
  let seed = 2023 in
  let result =
    Alcop_tune.Tuner.run ~hw ~spec ~space ~evaluate ~budget:12 ~seed method_
  in
  (* the CLI's feature record: one recorded profile per compiled trial *)
  let features =
    Array.to_list result.Alcop_tune.Tuner.trials
    |> List.filter_map (fun (t : Alcop_tune.Tuner.trial) ->
           match t.cost with
           | None -> None
           | Some _ ->
             (match Alcop.Compiler.profile ~hw t.params spec with
              | Ok p ->
                Some (t.index, Alcop_gpusim.Pipeview.(features (of_profile p)))
              | Error _ -> None))
  in
  let log =
    Alcop_tune.Tuning_log.to_json ~features ~spec_name:spec.Op_spec.name
      ~method_ ~seed result
    ^ "\n"
  in
  let expected = In_channel.with_open_bin file In_channel.input_all in
  Alcotest.(check string) file expected log

(* The pre-trained prior of every Fig. 10 operator, fit on its full
   pre-training set (up to 2048 samples) at the CLI's default seed, is
   pinned in test/golden/pretrain_priors_fig10.txt: one line per operator
   with the sample count, the tree count and the MD5 of a [%h] rendering
   of the ensemble's base, every split feature and threshold, and every
   leaf. The list fitter in [Legacy_tree] is too slow to serve as the
   oracle at this size, so the lines were generated with the fitter that
   scored every split candidate exactly, before the split screen; the
   screened fitter must reproduce them bit for bit. *)
let render_prior (m : Alcop_tune.Gbt.t) =
  let b = Buffer.create 4096 in
  let rec tree (t : Alcop_tune.Tree.t) =
    match t with
    | Leaf v -> Printf.bprintf b "L %h\n" v
    | Node { feature; threshold; left; right } ->
      Printf.bprintf b "N %d %h\n" feature threshold;
      tree left;
      tree right
  in
  Printf.bprintf b "base %h rate %h\n" m.base m.learning_rate;
  List.iter tree m.trees;
  Buffer.contents b

let prior_line (spec : Op_spec.t) =
  let hw = Alcop_hw.Hw_config.default in
  let space = Alcop.Variants.space Alcop.Variants.alcop spec in
  let feats = Array.map (Alcop_perfmodel.Features.extract hw spec) space in
  let xs, ys = Alcop_tune.Tuner.pretrain_set ~hw ~spec ~space ~feats ~seed:2023 in
  let m = Alcop_tune.Gbt.fit ~config:Alcop_tune.Tuner.pretrain_config xs ys in
  Printf.sprintf "%s samples=%d trees=%d md5=%s" spec.Op_spec.name
    (Array.length xs) (Alcop_tune.Gbt.n_trees m)
    (Digest.to_hex (Digest.string (render_prior m)))

let test_pretrain_priors_golden () =
  let file = "golden/pretrain_priors_fig10.txt" in
  let expected =
    String.split_on_char '\n'
      (In_channel.with_open_bin file In_channel.input_all)
    |> List.filter (( <> ) "")
  in
  Alcotest.(check (list string)) file expected
    (List.map prior_line Alcop_workloads.Suites.fig10)

(* Compile keys, pinned in test/golden/fingerprint_keys_fig10.txt: the
   digest of the default hw config, then per Fig. 10 operator the key of
   its first ALCOP point at no extra registers and the key of its first
   ALCOP point that TVM-DB charges registers for, at that cost. A store
   path is a key, so a renderer change that moves one byte of a key
   leaves every existing store cold; the lines were generated before the
   allocation-lean JSON emitter and may change only with a schema bump. *)
let key_lines () =
  let hw = Alcop_hw.Hw_config.default in
  let line (spec : Op_spec.t) p extra =
    Printf.sprintf "%s %s extra=%d %s" spec.Op_spec.name
      (Alcop_perfmodel.Params.to_string p) extra
      (Alcop.Fingerprint.to_hex
         (Alcop.Fingerprint.compile_key ~hw ~extra_regs_per_thread:extra p
            spec))
  in
  Printf.sprintf "hw %s" (Alcop.Fingerprint.hw_digest hw)
  :: List.concat_map
       (fun (spec : Op_spec.t) ->
         let space = Alcop.Variants.space Alcop.Variants.alcop spec in
         let tvm_db_regs =
           Alcop.Variants.extra_regs Alcop.Variants.tvm_db spec
         in
         match Array.find_opt (fun q -> tvm_db_regs q > 0) space with
         | Some q -> [ line spec space.(0) 0; line spec q (tvm_db_regs q) ]
         | None ->
           Alcotest.failf "%s: no ALCOP point with a TVM-DB register cost"
             spec.Op_spec.name)
       Alcop_workloads.Suites.fig10

let test_key_golden () =
  let file = "golden/fingerprint_keys_fig10.txt" in
  let expected =
    String.split_on_char '\n'
      (In_channel.with_open_bin file In_channel.input_all)
    |> List.filter (( <> ) "")
  in
  Alcotest.(check (list string)) file expected (key_lines ())

(* Extracted programs, pinned in test/golden/trace_programs_fig10.txt: per
   Fig. 10 operator, the number of sampled keys that compile and an MD5
   over every field of their packed programs (all five columns, the group
   table and its per-group metadata; [Trace.program_hash] omits [batch]
   and the metadata). The keys are every [trace_stride]-th point of the
   Fig. 10 variant spaces, walked operator by operator in [Variants.all]
   order, each compiled with its variant's register cost. The lines were
   generated by the extractor that resolved kernels into a closure tree. *)
let trace_stride = 61

let render_program b (p : Alcop_gpusim.Trace.program) =
  let open Alcop_gpusim.Trace in
  let int i =
    Buffer.add_string b (string_of_int i);
    Buffer.add_char b ' '
  in
  let col (c : icol) =
    for i = 0 to p.n - 1 do
      int c.{i}
    done;
    Buffer.add_char b '\n'
  in
  int p.n;
  List.iter col [ p.opcode; p.arg; p.group; p.flags; p.batch ];
  Array.iteri
    (fun g id ->
      Buffer.add_string b id;
      Buffer.add_char b ' ';
      int p.group_depth.(g);
      int p.group_stages.(g);
      int (Bool.to_int p.group_sync.(g));
      int p.group_bytes.(g))
    p.groups;
  Buffer.add_char b '\n'

(* One line per Fig. 10 operator: the count of sampled keys that compile
   and an MD5 over [render b c] of each of them. *)
let sampled_lines render =
  let hw = Alcop_hw.Hw_config.default in
  let seen = ref 0 in
  List.map
    (fun (spec : Op_spec.t) ->
      let b = Buffer.create 65536 in
      let keys = ref 0 in
      List.iter
        (fun v ->
          Array.iter
            (fun p ->
              if !seen mod trace_stride = 0 then begin
                let extra_regs_per_thread = Alcop.Variants.extra_regs v spec p in
                match
                  Alcop.Compiler.compile ~hw ~extra_regs_per_thread p spec
                with
                | Ok c ->
                  incr keys;
                  render b c
                | Error _ -> ()
              end;
              incr seen)
            (Alcop.Variants.space v spec))
        Alcop.Variants.all;
      Printf.sprintf "%s keys=%d md5=%s" spec.Op_spec.name !keys
        (Digest.to_hex (Digest.string (Buffer.contents b))))
    Alcop_workloads.Suites.fig10

let trace_lines () =
  sampled_lines (fun b c -> render_program b c.Alcop.Compiler.program)

let test_trace_golden () =
  let file = "golden/trace_programs_fig10.txt" in
  let expected =
    String.split_on_char '\n'
      (In_channel.with_open_bin file In_channel.input_all)
    |> List.filter (( <> ) "")
  in
  Alcotest.(check (list string)) file expected (trace_lines ())

(* Pipelined IR, pinned in test/golden/pipelined_ir_fig10.txt: the same
   sampled keys as the trace golden, each rendered as the printed
   pipelined kernel followed by its group table. The lines were generated
   before the pipelining pass was rewritten to allocate only its output. *)
let render_ir b (c : Alcop.Compiler.compiled) =
  let open Alcop_pipeline.Analysis in
  Buffer.add_string b (Alcop_ir.Kernel.to_string c.Alcop.Compiler.kernel);
  Buffer.add_char b '\n';
  List.iter
    (fun g ->
      Buffer.add_string b
        (Printf.sprintf "%s %s %s %d %d %d %b %s %b %s\n" g.id
           (Alcop_ir.Buffer.scope_to_string g.scope)
           g.loop_var g.loop_extent g.loop_depth g.stages g.synchronized
           (Option.value g.outer ~default:"-")
           g.fused
           (String.concat "," (member_names g))))
    c.Alcop.Compiler.groups

let test_ir_golden () =
  let file = "golden/pipelined_ir_fig10.txt" in
  let expected =
    String.split_on_char '\n'
      (In_channel.with_open_bin file In_channel.input_all)
    |> List.filter (( <> ) "")
  in
  Alcotest.(check (list string)) file expected (sampled_lines render_ir)

let suite =
  [ ( "golden",
      [ Alcotest.test_case "Fig. 7 pipelined IR pinned" `Quick test_fig7_golden;
        Alcotest.test_case "tuning log JSON" `Quick test_tuning_log_json;
        Alcotest.test_case "tune log golden (xgb+)" `Slow
          (tuning_log_golden Alcop_tune.Tuner.Analytical_xgb
             "golden/tune_MM_RN50_FC_b12_xgbplus.json");
        Alcotest.test_case "tune log golden (xgb)" `Slow
          (tuning_log_golden Alcop_tune.Tuner.Xgb
             "golden/tune_MM_RN50_FC_b12_xgb.json");
        Alcotest.test_case "pre-trained priors of all Fig. 10 operators" `Slow
          test_pretrain_priors_golden;
        Alcotest.test_case "compile keys of the Fig. 10 operators" `Quick
          test_key_golden;
        Alcotest.test_case "extracted programs of sampled Fig. 10 keys" `Quick
          test_trace_golden;
        Alcotest.test_case "pipelined IR of sampled Fig. 10 keys" `Quick
          test_ir_golden ] ) ]
