(* Tests for the content-addressed compilation fingerprints: determinism,
   sensitivity to every key component (each hw field included), the hw
   digest memo under equal copies, interleaved configs and domains, and
   the canonical float rendering the digests depend on. *)

open Alcop_sched
open Alcop

let hw = Alcop_hw.Hw_config.ampere_a100

let spec = Op_spec.matmul ~name:"fp_test" ~m:256 ~n:128 ~k:512 ()

let tiling =
  Tiling.make ~tb_m:64 ~tb_n:64 ~tb_k:32 ~warp_m:32 ~warp_n:32 ~warp_k:16 ()

let params = Alcop_perfmodel.Params.make ~tiling ~smem_stages:3 ~reg_stages:2 ()

let key ?(hw = hw) ?(extra = 0) p s =
  Fingerprint.compile_key ~hw ~extra_regs_per_thread:extra p s

let test_deterministic () =
  let a = key params spec and b = key params spec in
  Alcotest.(check bool) "equal inputs, equal fingerprint" true
    (Fingerprint.equal a b);
  Alcotest.(check string) "hex stable" (Fingerprint.to_hex a)
    (Fingerprint.to_hex b);
  Alcotest.(check int) "hex length" 32 (String.length (Fingerprint.to_hex a))

let test_sensitive_to_each_component () =
  let base = key params spec in
  let p' = Alcop_perfmodel.Params.make ~tiling ~smem_stages:2 ~reg_stages:2 () in
  Alcotest.(check bool) "schedule point changes the key" false
    (Fingerprint.equal base (key p' spec));
  let s' = Op_spec.matmul ~name:"fp_test" ~m:256 ~n:128 ~k:1024 () in
  Alcotest.(check bool) "operator shape changes the key" false
    (Fingerprint.equal base (key params s'));
  Alcotest.(check bool) "hardware changes the key" false
    (Fingerprint.equal base (key ~hw:Alcop_hw.Hw_config.volta_v100 params spec));
  Alcotest.(check bool) "extra register pressure changes the key" false
    (Fingerprint.equal base (key ~extra:8 params spec));
  let conv =
    Op_spec.conv2d ~name:"fp_test"
      { Op_spec.cn = 8; ci = 64; ch = 28; cw = 28; co = 128; ckh = 3; ckw = 3;
        stride = 1; pad = 1 }
  in
  Alcotest.(check bool) "spec kind changes the key" false
    (Fingerprint.equal base (key params conv));
  let conv' =
    Op_spec.conv2d ~name:"fp_test"
      { Op_spec.cn = 8; ci = 64; ch = 28; cw = 28; co = 128; ckh = 3; ckw = 3;
        stride = 2; pad = 1 }
  in
  Alcotest.(check bool) "conv2d geometry changes the key" false
    (Fingerprint.equal (key params conv) (key params conv'));
  let epi =
    Op_spec.matmul ~name:"fp_test" ~m:256 ~n:128 ~k:512 ~epilogue:"relu" ()
  in
  Alcotest.(check bool) "epilogue changes the key" false
    (Fingerprint.equal base (key params epi));
  let splitk =
    Alcop_perfmodel.Params.make
      ~tiling:
        (Tiling.make ~tb_m:64 ~tb_n:64 ~tb_k:32 ~warp_m:32 ~warp_n:32
           ~warp_k:16 ~split_k:4 ())
      ~smem_stages:3 ~reg_stages:2 ()
  in
  Alcotest.(check bool) "split-k changes the key" false
    (Fingerprint.equal base (key splitk spec))

(* One copy of [hw] per Hw_config field, each differing from it in that
   field alone. *)
let hw_field_variants () =
  let open Alcop_hw.Hw_config in
  let module B = Alcop_ir.Buffer in
  [ ("name", { hw with name = hw.name ^ "'" });
    ("num_sms", { hw with num_sms = hw.num_sms + 1 });
    ("clock_ghz", { hw with clock_ghz = hw.clock_ghz *. 1.5 });
    ("tensor_core_flops_per_cycle",
     { hw with tensor_core_flops_per_cycle = hw.tensor_core_flops_per_cycle + 1 });
    ("cuda_core_flops_per_cycle",
     { hw with cuda_core_flops_per_cycle = hw.cuda_core_flops_per_cycle + 1 });
    ("smem_bytes_per_sm", { hw with smem_bytes_per_sm = hw.smem_bytes_per_sm + 1 });
    ("smem_bytes_per_tb_max",
     { hw with smem_bytes_per_tb_max = hw.smem_bytes_per_tb_max + 1 });
    ("registers_per_sm", { hw with registers_per_sm = hw.registers_per_sm + 1 });
    ("registers_per_thread_max",
     { hw with registers_per_thread_max = hw.registers_per_thread_max + 1 });
    ("max_threads_per_sm",
     { hw with max_threads_per_sm = hw.max_threads_per_sm + 1 });
    ("max_tbs_per_sm", { hw with max_tbs_per_sm = hw.max_tbs_per_sm + 1 });
    ("threads_per_warp", { hw with threads_per_warp = hw.threads_per_warp + 1 });
    ("llc_bytes", { hw with llc_bytes = hw.llc_bytes + 1 });
    ("dram_bytes_per_cycle",
     { hw with dram_bytes_per_cycle = hw.dram_bytes_per_cycle *. 1.5 });
    ("llc_bytes_per_cycle",
     { hw with llc_bytes_per_cycle = hw.llc_bytes_per_cycle *. 1.5 });
    ("smem_bytes_per_cycle_per_sm",
     { hw with smem_bytes_per_cycle_per_sm = hw.smem_bytes_per_cycle_per_sm *. 1.5 });
    ("dram_latency", { hw with dram_latency = hw.dram_latency +. 0.5 });
    ("llc_latency", { hw with llc_latency = hw.llc_latency +. 0.5 });
    ("smem_latency", { hw with smem_latency = hw.smem_latency +. 0.5 });
    ("dram_write_latency",
     { hw with dram_write_latency = hw.dram_write_latency +. 0.5 });
    ("async_scopes", { hw with async_scopes = [ B.Register ] });
    ("scope_synchronized", { hw with scope_synchronized = [ B.Shared; B.Register ] })
  ]

let test_every_hw_field_is_keyed () =
  let variants = hw_field_variants () in
  Alcotest.(check int) "one variant per Hw_config field" 22
    (List.length variants);
  let base = key params spec in
  List.iter
    (fun (field, hw') ->
      Alcotest.(check bool) (field ^ " changes the key") false
        (Fingerprint.equal base (key ~hw:hw' params spec)))
    variants

let test_hw_memo_is_value_keyed () =
  let copy = { hw with Alcop_hw.Hw_config.name = hw.Alcop_hw.Hw_config.name } in
  Alcotest.(check bool) "the copy is a distinct value" false (copy == hw);
  let a100 = key params spec in
  Alcotest.(check bool) "equal copy, same key" true
    (Fingerprint.equal a100 (key ~hw:copy params spec));
  let v100 = key ~hw:Alcop_hw.Hw_config.volta_v100 params spec in
  let rounds =
    List.init 3 (fun _ ->
        (key params spec, key ~hw:Alcop_hw.Hw_config.volta_v100 params spec))
  in
  List.iteri
    (fun r (a, v) ->
      Alcotest.(check bool) (Printf.sprintf "round %d: a100 key stable" r) true
        (Fingerprint.equal a a100);
      Alcotest.(check bool) (Printf.sprintf "round %d: v100 key stable" r) true
        (Fingerprint.equal v v100))
    rounds

let test_hw_memo_across_domains () =
  (* Four domains hammering one memo slot with alternating configs: every
     key must equal the one a sequential run computes. *)
  let hws = [| hw; Alcop_hw.Hw_config.volta_v100 |] in
  let jobs = Array.init 400 (fun j -> (hws.(j mod 2), j mod 7)) in
  let key_of (hw, extra) = Fingerprint.to_hex (key ~hw ~extra params spec) in
  let sequential = Array.map key_of jobs in
  let parallel =
    Alcop_par.Pool.with_pool ~jobs:4 (fun p ->
        Alcop_par.Pool.map_array p key_of jobs)
  in
  Alcotest.(check (array string)) "parallel keys == sequential keys"
    sequential parallel

let test_name_does_not_matter_but_shape_does () =
  (* The operator *name* is presentation, but it names the same
     computation only when the shape matches — it IS part of the key
     (suite operators are keyed by their identity). Pin that choice. *)
  let renamed = Op_spec.matmul ~name:"fp_other" ~m:256 ~n:128 ~k:512 () in
  Alcotest.(check bool) "renamed operator re-keys" false
    (Fingerprint.equal (key params spec) (key params renamed))

let test_schema_bump () =
  (* v3 keys the hw config by its digest instead of nesting its object:
     a v3 key can never collide with a v2 key for the same inputs, and
     v2 never with v1 (the packed-program datapath) — cached replay
     across either change is impossible by construction. *)
  Alcotest.(check int) "schema version is 3" 3 Fingerprint.schema_version;
  let v_key v =
    Fingerprint.compile_key_v ~version:v ~hw ~extra_regs_per_thread:0 params
      spec
  in
  Alcotest.(check bool) "v1 and v2 keys differ" false
    (Fingerprint.equal (v_key 1) (v_key 2));
  Alcotest.(check bool) "v2 and v3 keys differ" false
    (Fingerprint.equal (v_key 2) (v_key 3));
  Alcotest.(check bool) "compile_key is the v3 key" true
    (Fingerprint.equal (key params spec) (v_key Fingerprint.schema_version))

(* --- canonical float rendering (satellite: float-keyed stability) --- *)

let test_float_repr_examples () =
  let repr = Alcop_obs.Json.float_repr in
  Alcotest.(check string) "short decimal stays short" "0.1" (repr 0.1);
  Alcotest.(check string) "integral float keeps its marker" "1.0" (repr 1.0);
  Alcotest.(check bool) "tenth-of-three round-trips" true
    (float_of_string (repr (0.3 /. 3.0)) = 0.3 /. 3.0);
  (* Two ways of computing the same double must render identically. *)
  let a = 0.1 +. 0.2 and b = 0.3000000000000000444089209850062616169452667236328125 in
  Alcotest.(check bool) "same double" true (a = b);
  Alcotest.(check string) "same rendering" (repr a) (repr b)

let prop_float_repr_roundtrip =
  QCheck.Test.make ~name:"float_repr round-trips every finite double"
    ~count:1000
    QCheck.(float_bound_exclusive 1e12)
    (fun f ->
      let f = if Float.is_nan f || Float.is_integer f then Float.abs f +. 0.5 else f in
      float_of_string (Alcop_obs.Json.float_repr f) = f)

let prop_hw_json_float_stability =
  (* Scaling a hardware rate by x then dividing by x again must produce a
     fingerprint equal to the original whenever the float round-trips —
     i.e. the digest depends only on the double's value. *)
  QCheck.Test.make ~name:"hw fingerprint depends only on float values"
    ~count:200
    QCheck.(float_range 0.125 8.0)
    (fun x ->
      let open Alcop_hw in
      let hw1 = { hw with Hw_config.clock_ghz = hw.Hw_config.clock_ghz } in
      let scaled = hw.Hw_config.clock_ghz *. x /. x in
      let hw2 = { hw with Hw_config.clock_ghz = scaled } in
      if scaled = hw.Hw_config.clock_ghz then
        String.equal (Fingerprint.hw_digest hw1) (Fingerprint.hw_digest hw2)
      else true)

let suite =
  [ ( "fingerprint",
      [ Alcotest.test_case "deterministic" `Quick test_deterministic;
        Alcotest.test_case "sensitive to every component" `Quick
          test_sensitive_to_each_component;
        Alcotest.test_case "operator identity is part of the key" `Quick
          test_name_does_not_matter_but_shape_does;
        Alcotest.test_case "packed-datapath schema bump re-keys" `Quick
          test_schema_bump;
        Alcotest.test_case "every hw field is keyed" `Quick
          test_every_hw_field_is_keyed;
        Alcotest.test_case "hw memo: equal values, equal keys" `Quick
          test_hw_memo_is_value_keyed;
        Alcotest.test_case "float_repr examples" `Quick
          test_float_repr_examples;
        QCheck_alcotest.to_alcotest prop_float_repr_roundtrip;
        QCheck_alcotest.to_alcotest prop_hw_json_float_stability ] ) ]

(* Spawns domains, so it runs after Test_obs's fork-based test. *)
let domain_suite =
  [ ( "fingerprint-par",
      [ Alcotest.test_case "hw memo: 4 domains == sequential" `Quick
          test_hw_memo_across_domains ] ) ]
