(* Content-addressed fingerprints of compilation inputs.

   The canonical form is a JSON document rendered by the in-repo emitter:
   object fields in a fixed order, floats in the shortest round-tripping
   representation (Json.float_repr), strings escaped one way. MD5 of that
   text is the fingerprint. Everything [Compiler.compile] reads must appear
   here — adding a schedule knob or a hardware parameter without extending
   the canonical form would silently alias distinct compilations.

   The hardware config enters the key as the hex MD5 of its own canonical
   document ([hw_digest]), not as a nested object. It is the largest part
   of the key and its eight floats dominate rendering, yet it is one value
   for a whole run, so it is digested once per config value. *)

open Alcop_sched
module Json = Alcop_obs.Json

type t = Digest.t

let to_hex = Digest.to_hex
let equal = Digest.equal

(* Floats go through the JSON tree, whose serializer uses the shortest
   round-trip form: equal doubles yield equal text, distinct doubles
   distinct text (float_repr falls back to "%.17g", which is exact). *)
let f x = Json.Float x
let i x = Json.Int x
let s x = Json.Str x
let b x = Json.Bool x
let opt_s = function Some x -> Json.Str x | None -> Json.Null

let json_of_hw (hw : Alcop_hw.Hw_config.t) =
  let scopes l =
    Json.List (List.map (fun sc -> s (Alcop_ir.Buffer.scope_to_string sc)) l)
  in
  Json.Obj
    [ ("name", s hw.Alcop_hw.Hw_config.name);
      ("num_sms", i hw.Alcop_hw.Hw_config.num_sms);
      ("clock_ghz", f hw.Alcop_hw.Hw_config.clock_ghz);
      ("tensor_core_flops_per_cycle",
       i hw.Alcop_hw.Hw_config.tensor_core_flops_per_cycle);
      ("cuda_core_flops_per_cycle",
       i hw.Alcop_hw.Hw_config.cuda_core_flops_per_cycle);
      ("smem_bytes_per_sm", i hw.Alcop_hw.Hw_config.smem_bytes_per_sm);
      ("smem_bytes_per_tb_max", i hw.Alcop_hw.Hw_config.smem_bytes_per_tb_max);
      ("registers_per_sm", i hw.Alcop_hw.Hw_config.registers_per_sm);
      ("registers_per_thread_max",
       i hw.Alcop_hw.Hw_config.registers_per_thread_max);
      ("max_threads_per_sm", i hw.Alcop_hw.Hw_config.max_threads_per_sm);
      ("max_tbs_per_sm", i hw.Alcop_hw.Hw_config.max_tbs_per_sm);
      ("threads_per_warp", i hw.Alcop_hw.Hw_config.threads_per_warp);
      ("llc_bytes", i hw.Alcop_hw.Hw_config.llc_bytes);
      ("dram_bytes_per_cycle", f hw.Alcop_hw.Hw_config.dram_bytes_per_cycle);
      ("llc_bytes_per_cycle", f hw.Alcop_hw.Hw_config.llc_bytes_per_cycle);
      ("smem_bytes_per_cycle_per_sm",
       f hw.Alcop_hw.Hw_config.smem_bytes_per_cycle_per_sm);
      ("dram_latency", f hw.Alcop_hw.Hw_config.dram_latency);
      ("llc_latency", f hw.Alcop_hw.Hw_config.llc_latency);
      ("smem_latency", f hw.Alcop_hw.Hw_config.smem_latency);
      ("dram_write_latency", f hw.Alcop_hw.Hw_config.dram_write_latency);
      ("async_scopes", scopes hw.Alcop_hw.Hw_config.async_scopes);
      ("scope_synchronized", scopes hw.Alcop_hw.Hw_config.scope_synchronized) ]

let json_of_spec (spec : Op_spec.t) =
  let kind =
    match spec.Op_spec.kind with
    | Op_spec.Matmul -> s "matmul"
    | Op_spec.Batched_matmul -> s "batched_matmul"
    | Op_spec.Conv2d c ->
      Json.Obj
        [ ("conv2d",
           Json.List
             [ i c.Op_spec.cn; i c.Op_spec.ci; i c.Op_spec.ch;
               i c.Op_spec.cw; i c.Op_spec.co; i c.Op_spec.ckh;
               i c.Op_spec.ckw; i c.Op_spec.stride; i c.Op_spec.pad ]) ]
  in
  Json.Obj
    [ ("name", s spec.Op_spec.name);
      ("kind", kind);
      ("batch", i spec.Op_spec.batch);
      ("m", i spec.Op_spec.m);
      ("n", i spec.Op_spec.n);
      ("k", i spec.Op_spec.k);
      ("dtype", s (Alcop_ir.Dtype.to_string spec.Op_spec.dtype));
      ("a_op", opt_s spec.Op_spec.a_op);
      ("b_op", opt_s spec.Op_spec.b_op);
      ("epilogue", opt_s spec.Op_spec.epilogue) ]

let json_of_params (p : Alcop_perfmodel.Params.t) =
  let t = p.Alcop_perfmodel.Params.tiling in
  Json.Obj
    [ ("tiling",
       Json.List
         [ i t.Tiling.tb_m; i t.Tiling.tb_n; i t.Tiling.tb_k;
           i t.Tiling.warp_m; i t.Tiling.warp_n; i t.Tiling.warp_k;
           i t.Tiling.split_k ]);
      ("smem_stages", i p.Alcop_perfmodel.Params.smem_stages);
      ("reg_stages", i p.Alcop_perfmodel.Params.reg_stages);
      ("swizzle", b p.Alcop_perfmodel.Params.swizzle);
      ("inner_fuse", b p.Alcop_perfmodel.Params.inner_fuse) ]

let of_json doc = Digest.string (Json.to_string doc)

(* Bump whenever the compiler's semantics, the *representation* of its
   artifacts, or the key's serialization changes. v2 is the packed-program
   trace datapath, which must never be satisfied from entries recorded
   under the boxed-event one; v3 replaces the nested hw object with its
   digest. *)
let schema_version = 3

(* One slot: the last hw value digested and its hex. [Hw_config.t] has
   no mutable field, so a physically equal config has an equal digest;
   the slot keeps the config alive, so no other value can take its
   address. Callers in one run pass one shared config value, so the slot
   almost always hits; an equal copy, a second config or two domains
   racing on the slot only recompute. *)
let hw_memo : (Alcop_hw.Hw_config.t * string) option Atomic.t =
  Atomic.make None

let hw_digest hw =
  match Atomic.get hw_memo with
  | Some (cached, hex) when cached == hw -> hex
  | _ ->
    let hex = Digest.to_hex (of_json (json_of_hw hw)) in
    Atomic.set hw_memo (Some (hw, hex));
    hex

let compile_key_doc ~version ~hw ~extra_regs_per_thread params spec =
  Json.Obj
    [ ("v", i version);
      ("hw", s (hw_digest hw));
      ("spec", json_of_spec spec);
      ("params", json_of_params params);
      ("extra_regs_per_thread", i extra_regs_per_thread) ]

let compile_key_v ~version ~hw ~extra_regs_per_thread params spec =
  of_json (compile_key_doc ~version ~hw ~extra_regs_per_thread params spec)

let compile_key ~hw ~extra_regs_per_thread params spec =
  compile_key_v ~version:schema_version ~hw ~extra_regs_per_thread params spec
