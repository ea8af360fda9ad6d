(* Experiment drivers: one function per table / figure of the paper's
   evaluation section. Each returns structured data; the bench executable
   formats it. See DESIGN.md's experiment index and EXPERIMENTS.md for the
   paper-versus-measured record. *)

open Alcop_sched
open Alcop_workloads

let geomean xs =
  match xs with
  | [] -> nan
  | _ ->
    exp (List.fold_left (fun acc x -> acc +. log x) 0.0 xs
         /. float_of_int (List.length xs))

(* Best-latency results are shared across experiments (fig10, fig11,
   table3 all need the same tuned points). The per-point artifacts are
   memoized in the shared [Session], so repeating a variant's exhaustive
   search costs a cache lookup per point instead of a compile+simulate —
   no second memoization layer needed here. *)
let best_latency ?(hw = Alcop_hw.Hw_config.default) (v : Variants.t) spec =
  Variants.best_latency ~hw v spec

(* Fan a per-operator experiment body across the pool, one task per suite
   entry. The inner work (variant sweeps, tuner runs) stays sequential —
   pools must not nest — and results come back in suite order, so the
   figure is identical to the sequential run. *)
let suite_map pool f suite =
  match pool with
  | Some p -> Alcop_par.Pool.map p f suite
  | None -> List.map f suite

let tflops ?(hw = Alcop_hw.Hw_config.default) spec cycles =
  float_of_int (Op_spec.flops spec)
  /. (cycles /. hw.Alcop_hw.Hw_config.clock_ghz)  (* cycles -> ns *)
  /. 1000.0

(* ------------------------------------------------------------------ *)
(* E1 — Fig. 1(b): the motivating example. 2048^3 MatMul across
   threadblock tiles, with and without pipelining. *)

type fig1b_row = {
  tile : string;
  tb_count : int;
  tflops_tiling_only : float option;
  tflops_pipelined : float option;
}

let fig1b ?(hw = Alcop_hw.Hw_config.default) () =
  let spec = Suites.motivating in
  let evaluate = Session.evaluator (Session.for_hw hw) spec in
  let tile_of tb_m tb_n tb_k =
    (* warp tiles capped at 64: a 64x128 warp accumulator alone exceeds the
       255-registers-per-thread budget. *)
    Tiling.make ~tb_m ~tb_n ~tb_k
      ~warp_m:(min 64 (max 16 (tb_m / 2)))
      ~warp_n:(min 64 (max 16 (tb_n / 2)))
      ~warp_k:16 ()
  in
  List.map
    (fun (tb_m, tb_n, tb_k) ->
      let tiling = tile_of tb_m tb_n tb_k in
      let run ~smem_stages ~reg_stages =
        match
          evaluate
            (Alcop_perfmodel.Params.make ~tiling ~smem_stages ~reg_stages ())
        with
        | Some c -> Some (tflops ~hw spec c)
        | None -> None
      in
      { tile = Printf.sprintf "%dx%dx%d" tb_m tb_n tb_k;
        tb_count = Tiling.threadblocks tiling spec;
        tflops_tiling_only = run ~smem_stages:1 ~reg_stages:1;
        tflops_pipelined = run ~smem_stages:3 ~reg_stages:2 })
    [ (32, 32, 32); (64, 64, 32); (64, 128, 32); (128, 128, 32);
      (128, 256, 32); (256, 128, 32); (256, 256, 32) ]

(* ------------------------------------------------------------------ *)
(* E2 — Fig. 10: single-operator performance of the five compilers,
   normalized to TVM, under exhaustive schedule search. *)

type fig10_row = {
  op : string;
  speedups : (string * float) list;  (** variant name -> speedup over TVM *)
}

type fig10_result = {
  rows : fig10_row list;
  geomeans : (string * float) list;
}

let fig10 ?(hw = Alcop_hw.Hw_config.default) ?pool ?(suite = Suites.fig10) () =
  let rows =
    suite_map pool
      (fun spec ->
        let tvm =
          match best_latency ~hw Variants.tvm spec with
          | Some c -> c
          | None -> invalid_arg ("no TVM schedule for " ^ spec.Op_spec.name)
        in
        let speedups =
          List.map
            (fun v ->
              match best_latency ~hw v spec with
              | Some c -> (v.Variants.name, tvm /. c)
              | None -> (v.Variants.name, nan))
            Variants.all
        in
        { op = spec.Op_spec.name; speedups })
      suite
  in
  let geomeans =
    List.map
      (fun v ->
        ( v.Variants.name,
          geomean
            (List.map (fun r -> List.assoc v.Variants.name r.speedups) rows) ))
      Variants.all
  in
  { rows; geomeans }

(* ------------------------------------------------------------------ *)
(* E3 — Table III: end-to-end model speedups. *)

let table3 ?(hw = Alcop_hw.Hw_config.default) () =
  List.map (E2e.evaluate ~hw) Models.all

(* ------------------------------------------------------------------ *)
(* E4 — Fig. 11: ALCOP versus library kernels. *)

type fig11_row = {
  op11 : string;
  normalized_to_library : float option;
      (** library latency / ALCOP latency; > 1 means ALCOP wins *)
}

let fig11 ?(hw = Alcop_hw.Hw_config.default) ?(suite = Suites.fig10) () =
  List.map
    (fun spec ->
      let alcop = best_latency ~hw Variants.alcop spec in
      let lib = Library_oracle.best_latency ~hw spec in
      { op11 = spec.Op_spec.name;
        normalized_to_library =
          (match alcop, lib with
           | Some a, Some l -> Some (l /. a)
           | _ -> None) })
    suite

(* ------------------------------------------------------------------ *)
(* E5 — Fig. 12: best-in-top-k accuracy of the analytical model versus
   the bottleneck-based baseline, normalized to exhaustive search. *)

type fig12_row = {
  op12 : string;
  ours_top : (int * float option) list;        (** k -> normalized best *)
  bottleneck_top : (int * float option) list;
}

let fig12 ?(hw = Alcop_hw.Hw_config.default) ?pool ?(suite = Suites.fig10)
    ?(ks = [ 10; 50 ]) () =
  suite_map pool
    (fun spec ->
      let space = Variants.space Variants.alcop spec in
      let evaluate = Variants.evaluator ~hw Variants.alcop spec in
      let measured = Array.map evaluate space in
      let measured_best =
        Array.fold_left
          (fun acc c ->
            match c, acc with
            | Some c, Some b when c >= b -> acc
            | Some c, _ -> Some c
            | None, _ -> acc)
          None measured
      in
      let measured_best = Option.get measured_best in
      let rank predict =
        let scored = ref [] in
        Array.iteri
          (fun i p ->
            match predict p with
            | Some pred -> scored := (pred, measured.(i)) :: !scored
            | None -> ())
          space;
        List.map snd (List.sort (fun (a, _) (b, _) -> compare a b) !scored)
      in
      let ranked_ours =
        rank (fun p -> Alcop_perfmodel.Model.predict_cycles hw spec p)
      in
      let ranked_bottleneck =
        rank (fun p -> Alcop_perfmodel.Bottleneck.predict_cycles hw spec p)
      in
      (* One prefix-minimum pass per ranking serves every k, instead of
         re-scanning the top k for each k ([best_in_top_k] is O(n·k)). *)
      let tops ranked =
        let pb = Alcop_tune.Tuner.prefix_best_costs (Array.of_list ranked) in
        let n = Array.length pb in
        List.map
          (fun k ->
            ( k,
              if n = 0 || k <= 0 then None
              else
                Option.map (fun b -> measured_best /. b) pb.(min k n - 1) ))
          ks
      in
      { op12 = spec.Op_spec.name;
        ours_top = tops ranked_ours;
        bottleneck_top = tops ranked_bottleneck })
    suite

(* ------------------------------------------------------------------ *)
(* E6 — Fig. 13: search efficiency of the four tuning methods. *)

type fig13_row = {
  op13 : string;
  per_method : (string * (int * float option) list) list;
      (** method -> budget -> best-in-budget normalized to exhaustive *)
}

let fig13 ?(hw = Alcop_hw.Hw_config.default) ?pool ?(suite = Suites.fig10)
    ?(budgets = [ 10; 50 ]) ?(seed = 2023) () =
  let max_budget = List.fold_left max 1 budgets in
  suite_map pool
    (fun spec ->
      let space = Variants.space Variants.alcop spec in
      let evaluate = Variants.evaluator ~hw Variants.alcop spec in
      let exhaustive = Alcop_tune.Tuner.exhaustive ~space ~evaluate () in
      let best = Option.get (Alcop_tune.Tuner.best exhaustive) in
      let per_method =
        List.map
          (fun m ->
            let result =
              Alcop_tune.Tuner.run ~hw ~spec ~space ~evaluate
                ~budget:max_budget ~seed m
            in
            (* One prefix-minimum pass serves every budget. *)
            let pb = Alcop_tune.Tuner.prefix_best result in
            let n = Array.length pb in
            ( Alcop_tune.Tuner.method_to_string m,
              List.map
                (fun b ->
                  ( b,
                    if n = 0 || b <= 0 then None
                    else Option.map (fun c -> best /. c) pb.(min b n - 1) ))
                budgets ))
          [ Alcop_tune.Tuner.Grid; Alcop_tune.Tuner.Xgb;
            Alcop_tune.Tuner.Analytical_only; Alcop_tune.Tuner.Analytical_xgb ]
      in
      { op13 = spec.Op_spec.name; per_method })
    suite

(* ------------------------------------------------------------------ *)
(* E7 — Table I in action: per-component analytical prediction next to the
   simulator's measurement for the tuned best schedule of each operator. *)

type table1_row = {
  op1 : string;
  predicted_cycles : float;
  simulated_cycles : float;
  rel_error : float;
  smem_bound : bool;
}

let table1 ?(hw = Alcop_hw.Hw_config.default) ?(suite = Suites.fig10) () =
  List.filter_map
    (fun spec ->
      match Variants.best_point ~hw Variants.alcop spec with
      | None -> None
      | Some (params, simulated) ->
        (match Alcop_perfmodel.Model.predict hw spec params with
         | Error _ -> None
         | Ok pred ->
           Some
             { op1 = spec.Op_spec.name;
               predicted_cycles = pred.Alcop_perfmodel.Model.cycles;
               simulated_cycles = simulated;
               rel_error =
                 Float.abs (pred.Alcop_perfmodel.Model.cycles -. simulated)
                 /. simulated;
               smem_bound = pred.Alcop_perfmodel.Model.smem_bound }))
    suite

(* ------------------------------------------------------------------ *)
(* E8 — Figs. 2 and 3 quantified: stage-count sweep and the multi-level /
   inner-fusion ablation on one operator at a fixed tiling. *)

type fig23_row = {
  label : string;
  cycles : float option;
  speedup_over_unpipelined : float option;
}

let fig23 ?(hw = Alcop_hw.Hw_config.default)
    ?(spec = Suites.mm_rn50_fc) () =
  let tiling =
    Tiling.make ~tb_m:64 ~tb_n:64 ~tb_k:32 ~warp_m:32 ~warp_n:32 ~warp_k:16 ()
  in
  let evaluate = Session.evaluator (Session.for_hw hw) spec in
  let run label ?(inner_fuse = true) ?(swizzle = true) ~smem_stages
      ~reg_stages () =
    ( label,
      evaluate
        (Alcop_perfmodel.Params.make ~swizzle ~inner_fuse ~tiling ~smem_stages
           ~reg_stages ()) )
  in
  let configs =
    [ run "no pipelining (Fig 2a baseline)" ~smem_stages:1 ~reg_stages:1 ();
      run "2-stage smem (double buffering, Fig 2a)" ~smem_stages:2 ~reg_stages:1 ();
      run "3-stage smem (Fig 2b)" ~smem_stages:3 ~reg_stages:1 ();
      run "4-stage smem (Fig 2b)" ~smem_stages:4 ~reg_stages:1 ();
      run "single-level smem only (Fig 3b)" ~smem_stages:3 ~reg_stages:1 ();
      run "multi-level, no inner fusion (Fig 3c)" ~inner_fuse:false
        ~smem_stages:3 ~reg_stages:2 ();
      run "multi-level, inner fusion (Fig 3d)" ~smem_stages:3 ~reg_stages:2 ();
      run "full pipeline without smem swizzling" ~swizzle:false ~smem_stages:3
        ~reg_stages:2 () ]
  in
  let base = snd (List.hd configs) in
  List.map
    (fun (label, cycles) ->
      { label; cycles;
        speedup_over_unpipelined =
          (match base, cycles with
           | Some b, Some c -> Some (b /. c)
           | _ -> None) })
    configs

(* ------------------------------------------------------------------ *)
(* E9 (extension) — hardware scaling: how much pipelining matters as the
   compute-to-bandwidth ratio grows. The paper's introduction argues that
   "as the difficulty of capitalizing on the ever-growing parallelism in
   current and future GPUs increases, the study of pipelining becomes
   essential": we scale the simulated machine's tensor-core throughput at
   fixed memory bandwidth (the historical trend from V100 through H100)
   and report ALCOP's advantage over the unpipelined baseline. *)

type scaling_row = {
  compute_scale : float;
  peak_tflops : float;
  mean_speedup : float;  (** geomean ALCOP/TVM over the subset *)
}

let scaling ?(hw = Alcop_hw.Hw_config.default)
    ?(subset = [ Suites.mm_rn50_fc; Suites.mm_bert_fc2; Suites.conv_vgg_3x3 ])
    ?(scales = [ 0.5; 1.0; 2.0; 4.0 ]) () =
  List.map
    (fun scale ->
      let hw' =
        { hw with
          Alcop_hw.Hw_config.name =
            Printf.sprintf "%s-x%.1f" hw.Alcop_hw.Hw_config.name scale;
          tensor_core_flops_per_cycle =
            int_of_float
              (float_of_int hw.Alcop_hw.Hw_config.tensor_core_flops_per_cycle
               *. scale) }
      in
      let speedups =
        List.map
          (fun spec ->
            let tvm =
              Option.get (Variants.best_latency ~hw:hw' Variants.tvm spec)
            in
            let alcop =
              Option.get (Variants.best_latency ~hw:hw' Variants.alcop spec)
            in
            tvm /. alcop)
          subset
      in
      { compute_scale = scale;
        peak_tflops = Alcop_hw.Hw_config.peak_tensor_tflops hw';
        mean_speedup = geomean speedups })
    scales

(* Cross-generation comparison: the same compiler on a pre-Ampere machine.
   Without cp.async, rule 1 rejects shared-memory pipelining, ALCOP's space
   degrades to register-only software pipelining, and the advantage over
   the unpipelined baseline shrinks — why the paper evaluates on Ampere. *)

type generation_row = {
  machine : string;
  gen_speedup : float;  (** geomean ALCOP/TVM over the subset *)
}

let generations
    ?(subset = [ Suites.mm_rn50_fc; Suites.mm_bert_fc2; Suites.conv_vgg_3x3 ])
    () =
  List.map
    (fun hw ->
      let speedups =
        List.map
          (fun spec ->
            let tvm = Option.get (Variants.best_latency ~hw Variants.tvm spec) in
            let alcop =
              Option.get (Variants.best_latency ~hw Variants.alcop spec)
            in
            tvm /. alcop)
          subset
      in
      { machine = hw.Alcop_hw.Hw_config.name; gen_speedup = geomean speedups })
    [ Alcop_hw.Hw_config.volta_v100; Alcop_hw.Hw_config.ampere_a100 ]

(* ------------------------------------------------------------------ *)
(* CSV shapes of the headline figures: (header, rows) pairs shared by the
   bench CSV export and the HTML report's recompute fallback, so
   results/*.csv and a standalone report agree cell for cell. *)

let csv_opt = function Some v -> Printf.sprintf "%.6f" v | None -> ""

let fig10_csv (r : fig10_result) =
  ( "operator" :: List.map (fun v -> v.Variants.name) Variants.all,
    List.map
      (fun row ->
        row.op
        :: List.map (fun (_, s) -> Printf.sprintf "%.6f" s) row.speedups)
      r.rows )

let fig12_csv rows =
  ( [ "operator"; "ours_at_10"; "ours_at_50"; "bottleneck_at_10";
      "bottleneck_at_50" ],
    List.map
      (fun r ->
        let cell l k = csv_opt (Option.join (List.assoc_opt k l)) in
        [ r.op12; cell r.ours_top 10; cell r.ours_top 50;
          cell r.bottleneck_top 10; cell r.bottleneck_top 50 ])
      rows )

let fig13_csv rows =
  ( [ "operator"; "method"; "budget"; "best_in_budget" ],
    List.concat_map
      (fun r ->
        List.concat_map
          (fun (m, budgets) ->
            List.map
              (fun (b, v) -> [ r.op13; m; string_of_int b; csv_opt v ])
              budgets)
          r.per_method)
      rows )
