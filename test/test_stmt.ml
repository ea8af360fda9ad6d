(* Tests for statements, buffers, dtypes and kernels. *)

open Alcop_ir

let buf ?(scope = Buffer.Shared) ?(shape = [ 4; 8 ]) name =
  Buffer.make ~name ~scope ~dtype:Dtype.F16 ~shape

let region_of (b : Buffer.t) = Stmt.full_region b

let test_dtype_sizes () =
  Alcotest.(check int) "f16" 2 (Dtype.size_bytes Dtype.F16);
  Alcotest.(check int) "f32" 4 (Dtype.size_bytes Dtype.F32);
  Alcotest.(check int) "i8" 1 (Dtype.size_bytes Dtype.I8);
  Alcotest.(check (option string))
    "roundtrip" (Some "f16")
    (Option.map Dtype.to_string (Dtype.of_string "f16"))

let test_dtype_quantize () =
  let q = Dtype.quantize Dtype.F16 in
  Alcotest.(check (float 0.0)) "exact small" 0.5 (q 0.5);
  Alcotest.(check (float 0.0)) "zero" 0.0 (q 0.0);
  (* 1 + 2^-12 is not representable in f16; it rounds to 1. *)
  Alcotest.(check (float 0.0)) "rounds" 1.0 (q (1.0 +. (2.0 ** -12.0)));
  Alcotest.(check bool) "idempotent" true (q (q 1.2345) = q 1.2345)

let test_buffer_basics () =
  let b = buf "A_sh" in
  Alcotest.(check int) "elements" 32 (Buffer.num_elements b);
  Alcotest.(check int) "bytes" 64 (Buffer.size_bytes b);
  Alcotest.(check int) "rank" 2 (Buffer.rank b)

let test_buffer_stage_dim () =
  let b = buf "A_sh" in
  let b3 = Buffer.with_stage_dim 3 b in
  Alcotest.(check (list int)) "shape" [ 3; 4; 8 ] b3.Buffer.shape;
  Alcotest.check_raises "stage >= 2"
    (Invalid_argument "Buffer.with_stage_dim: need at least 2 stages")
    (fun () -> ignore (Buffer.with_stage_dim 1 b))

let test_buffer_validation () =
  Alcotest.check_raises "empty shape"
    (Invalid_argument "Buffer.make: empty shape") (fun () ->
      ignore (Buffer.make ~name:"x" ~scope:Buffer.Global ~dtype:Dtype.F16 ~shape:[]));
  Alcotest.check_raises "bad dim"
    (Invalid_argument "Buffer.make: non-positive dimension") (fun () ->
      ignore
        (Buffer.make ~name:"x" ~scope:Buffer.Global ~dtype:Dtype.F16
           ~shape:[ 4; 0 ]))

let test_inner_scope () =
  Alcotest.(check bool) "global->shared" true
    (Buffer.inner_scope Buffer.Global = Some Buffer.Shared);
  Alcotest.(check bool) "shared->register" true
    (Buffer.inner_scope Buffer.Shared = Some Buffer.Register);
  Alcotest.(check bool) "register->none" true
    (Buffer.inner_scope Buffer.Register = None)

let test_seq_flattening () =
  let c =
    Stmt.copy ~dst:(region_of (buf "a")) ~src:(region_of (buf "b")) ()
  in
  let nested = Stmt.seq [ Stmt.seq [ c; c ]; c; Stmt.seq [ Stmt.seq [ c ] ] ] in
  match nested with
  | Stmt.Seq children -> Alcotest.(check int) "flattened" 4 (List.length children)
  | _ -> Alcotest.fail "expected Seq"

let test_seq_singleton () =
  let c =
    Stmt.copy ~dst:(region_of (buf "a")) ~src:(region_of (buf "b")) ()
  in
  match Stmt.seq [ c ] with
  | Stmt.Copy _ -> ()
  | _ -> Alcotest.fail "singleton seq should collapse"

let test_region_utilities () =
  let r =
    Stmt.region "x"
      [ Stmt.point_slice (Expr.var "s"); Stmt.slice Expr.zero 4;
        Stmt.slice Expr.zero 8 ]
  in
  Alcotest.(check int) "elems" 32 (Stmt.region_elems r);
  Alcotest.(check (list int)) "squeeze" [ 4; 8 ] (Stmt.squeeze_lens r);
  let plain = Stmt.region "y" [ Stmt.slice Expr.zero 4; Stmt.slice Expr.zero 8 ] in
  Alcotest.(check bool) "compatible with stage dim" true
    (Stmt.copy_shapes_compatible ~dst:r ~src:plain);
  let wrong = Stmt.region "y" [ Stmt.slice Expr.zero 8; Stmt.slice Expr.zero 4 ] in
  Alcotest.(check bool) "shape order matters" false
    (Stmt.copy_shapes_compatible ~dst:r ~src:wrong)

let sample_program () =
  let a = buf ~scope:Buffer.Shared "a" in
  let b = buf ~scope:Buffer.Register "b" in
  Stmt.alloc a
    (Stmt.alloc b
       (Stmt.for_ "i" (Expr.const 4)
          (Stmt.seq
             [ Stmt.copy ~dst:(region_of b) ~src:(region_of a) ();
               Stmt.Sync Stmt.Barrier;
               Stmt.for_ "j" (Expr.const 2)
                 (Stmt.copy ~dst:(region_of b) ~src:(region_of a) ()) ])))

let test_traversals () =
  let p = sample_program () in
  Alcotest.(check int) "copies" 2 (Stmt.count_copies p);
  Alcotest.(check int) "syncs" 1 (Stmt.count_syncs p);
  Alcotest.(check int) "mmas" 0 (Stmt.count_mmas p);
  Alcotest.(check (list string)) "loop vars" [ "i"; "j" ] (Stmt.loop_vars p);
  Alcotest.(check int) "allocs" 2 (List.length (Stmt.allocs p));
  Alcotest.(check bool) "find alloc" true (Stmt.find_alloc p "b" <> None);
  Alcotest.(check bool) "find missing" true (Stmt.find_alloc p "zz" = None)

let test_subst_var () =
  let r = Stmt.region "x" [ Stmt.point_slice (Expr.var "i") ] in
  let p =
    Stmt.for_ "j" (Expr.var "i")
      (Stmt.copy ~dst:r ~src:(Stmt.region "y" [ Stmt.point_slice (Expr.var "i") ]) ())
  in
  let p' = Stmt.subst_var "i" (Expr.const 5) p in
  match p' with
  | Stmt.For { extent; body = Stmt.Copy { dst; src; _ }; _ } ->
    Alcotest.(check (option int)) "extent" (Some 5) (Expr.eval_const extent);
    let off r = Expr.eval_const (List.hd r.Stmt.slices).Stmt.offset in
    Alcotest.(check (option int)) "dst" (Some 5) (off dst);
    Alcotest.(check (option int)) "src" (Some 5) (off src)
  | _ -> Alcotest.fail "unexpected shape"

let test_map_rewrites_bottom_up () =
  let p = sample_program () in
  (* Replace every barrier with a producer_acquire. *)
  let p' =
    Stmt.map
      (function
        | Stmt.Sync Stmt.Barrier -> Stmt.Sync (Stmt.Producer_acquire "g")
        | s -> s)
      p
  in
  Alcotest.(check int) "barriers gone" 0
    (Stmt.count (function Stmt.Sync Stmt.Barrier -> true | _ -> false) p');
  Alcotest.(check int) "acquires added" 1
    (Stmt.count
       (function Stmt.Sync (Stmt.Producer_acquire _) -> true | _ -> false)
       p')

let test_kernel_params () =
  let a = buf ~scope:Buffer.Global ~shape:[ 8; 8 ] "A" in
  let c = buf ~scope:Buffer.Global ~shape:[ 8; 8 ] "C" in
  let k =
    Kernel.make ~name:"k" ~inputs:[ a ] ~outputs:[ c ]
      ~body:(Stmt.copy ~dst:(region_of c) ~src:(region_of a) ())
  in
  Alcotest.(check int) "params" 2
    (List.length (Kernel.all_buffers k));
  Alcotest.(check bool) "find" true (Kernel.find_param k "A" <> None);
  Alcotest.check_raises "non-global param rejected"
    (Invalid_argument "Kernel.make: parameter s is not in global scope")
    (fun () ->
      ignore
        (Kernel.make ~name:"k" ~inputs:[ buf ~scope:Buffer.Shared "s" ]
           ~outputs:[ c ] ~body:(Stmt.seq [])))

let contains haystack needle =
  let n = String.length haystack and m = String.length needle in
  let rec go i = i + m <= n && (String.equal (String.sub haystack i m) needle || go (i + 1)) in
  go 0

let test_printing_shapes () =
  let p = sample_program () in
  let s = Stmt.to_string p in
  Alcotest.(check bool) "mentions loop" true (contains s "for i in 0 .. 4");
  Alcotest.(check bool) "mentions barrier" true (contains s "__syncthreads()")

(* --- properties: sharing and lookups of the traversals --- *)

(* Random statements over the index expressions of [Test_expr], with
   buffers [a]..[c] allocated at shapes that tell the allocations apart. *)
let gen_stmt =
  let open QCheck.Gen in
  let expr = Test_expr.gen_expr in
  let slice = map2 Stmt.slice expr (int_range 1 4) in
  let region =
    map2 Stmt.region (oneofl [ "a"; "b"; "c"; "P" ])
      (list_size (int_range 1 3) slice)
  in
  let leaf =
    oneof
      [ map2 (fun dst src -> Stmt.copy ~dst ~src ()) region region;
        map (fun dst -> Stmt.Fill { dst; value = 0.0 }) region;
        map3 (fun c a b -> Stmt.Mma { c; a; b }) region region region;
        map2 (fun dst src -> Stmt.Accum { dst; src }) region region;
        return (Stmt.Sync Stmt.Barrier) ]
  in
  let rec stmt n =
    if n = 0 then leaf
    else
      frequency
        [ (2, leaf);
          (1,
           map3
             (fun var extent body ->
               Stmt.For { var; extent; kind = Stmt.Sequential; body })
             (oneofl [ "x"; "y"; "z" ]) expr (stmt (n - 1)));
          (1, map (fun ss -> Stmt.Seq ss) (list_size (int_range 0 3) (stmt (n - 1))));
          (1,
           map3
             (fun lhs rhs then_ -> Stmt.If { cond = { lhs; cmp = Stmt.Lt; rhs }; then_ })
             expr expr (stmt (n - 1)));
          (1,
           map3
             (fun name d body ->
               Stmt.Alloc { buffer = buf ~shape:[ d ] name; body })
             (oneofl [ "a"; "b"; "c"; "P" ]) (int_range 1 8) (stmt (n - 1))) ]
  in
  stmt 3

let arb_stmt = QCheck.make ~print:Stmt.to_string gen_stmt

let region_mentions v (r : Stmt.region) =
  List.exists (fun (s : Stmt.slice) -> Expr.mentions v s.Stmt.offset) r.Stmt.slices

(* The node's own expressions, not its children's. *)
let node_mentions v = function
  | Stmt.For { extent; _ } -> Expr.mentions v extent
  | Stmt.If { cond; _ } -> Expr.mentions v cond.Stmt.lhs || Expr.mentions v cond.Stmt.rhs
  | Stmt.Copy { dst; src; _ } | Stmt.Unop { dst; src; _ } | Stmt.Accum { dst; src } ->
    region_mentions v dst || region_mentions v src
  | Stmt.Fill { dst; _ } -> region_mentions v dst
  | Stmt.Mma { c; a; b } ->
    region_mentions v c || region_mentions v a || region_mentions v b
  | Stmt.Seq _ | Stmt.Alloc _ | Stmt.Sync _ -> false

let prop_map_id_shares =
  QCheck.Test.make ~name:"Stmt.map Fun.id s == s" ~count:300 arb_stmt
    (fun s -> Stmt.map Fun.id s == s)

let prop_subst_var_shares =
  QCheck.Test.make ~name:"subst_var v r s == s when s does not mention v"
    ~count:300
    QCheck.(pair arb_stmt (make (Gen.oneofl [ "x"; "y"; "z"; "w" ])))
    (fun (s, v) ->
      QCheck.assume (Stmt.count (node_mentions v) s = 0);
      Stmt.subst_var v (Expr.var "q") s == s)

(* [Kernel.find_buffer] searches without building [all_buffers]; it must
   answer as the first match in that list does: parameters first, then
   allocations in program order. *)
let prop_find_buffer_first_of_all_buffers =
  QCheck.Test.make ~name:"find_buffer = first of all_buffers" ~count:300
    arb_stmt (fun body ->
      let k =
        Kernel.make ~name:"k"
          ~inputs:[ buf ~scope:Buffer.Global ~shape:[ 9 ] "P" ]
          ~outputs:[] ~body
      in
      List.for_all
        (fun name ->
          Kernel.find_buffer k name
          = List.find_opt
              (fun (b : Buffer.t) -> String.equal b.Buffer.name name)
              (Kernel.all_buffers k))
        [ "a"; "b"; "c"; "P"; "zz" ])

let suite =
  [ ( "stmt",
      [ Alcotest.test_case "dtype sizes" `Quick test_dtype_sizes;
        Alcotest.test_case "dtype quantize" `Quick test_dtype_quantize;
        Alcotest.test_case "buffer basics" `Quick test_buffer_basics;
        Alcotest.test_case "buffer stage dim" `Quick test_buffer_stage_dim;
        Alcotest.test_case "buffer validation" `Quick test_buffer_validation;
        Alcotest.test_case "inner scope" `Quick test_inner_scope;
        Alcotest.test_case "seq flattening" `Quick test_seq_flattening;
        Alcotest.test_case "seq singleton" `Quick test_seq_singleton;
        Alcotest.test_case "region utilities" `Quick test_region_utilities;
        Alcotest.test_case "traversals" `Quick test_traversals;
        Alcotest.test_case "subst var" `Quick test_subst_var;
        Alcotest.test_case "map rewrite" `Quick test_map_rewrites_bottom_up;
        Alcotest.test_case "kernel params" `Quick test_kernel_params;
        Alcotest.test_case "printing" `Quick test_printing_shapes;
        QCheck_alcotest.to_alcotest prop_map_id_shares;
        QCheck_alcotest.to_alcotest prop_subst_var_shares;
        QCheck_alcotest.to_alcotest prop_find_buffer_first_of_all_buffers ] ) ]
