(* Tests for structural kernel validation. *)

open Alcop_ir

let gbuf name shape = Buffer.make ~name ~scope:Buffer.Global ~dtype:Dtype.F16 ~shape
let sbuf name shape = Buffer.make ~name ~scope:Buffer.Shared ~dtype:Dtype.F16 ~shape
let rbuf name shape = Buffer.make ~name ~scope:Buffer.Register ~dtype:Dtype.F16 ~shape

let kernel body =
  Kernel.make ~name:"t" ~inputs:[ gbuf "A" [ 16; 16 ] ]
    ~outputs:[ gbuf "C" [ 16; 16 ] ] ~body

let region name lens = Stmt.region name (List.map (fun l -> Stmt.slice Expr.zero l) lens)

let expect_error body fragment =
  match Validate.check (kernel body) with
  | Ok () -> Alcotest.failf "expected error mentioning %S" fragment
  | Error errs ->
    let text = Validate.errors_to_string errs in
    if
      not
        (let n = String.length text and m = String.length fragment in
         let rec go i =
           i + m <= n && (String.equal (String.sub text i m) fragment || go (i + 1))
         in
         go 0)
    then Alcotest.failf "error %S does not mention %S" text fragment

let expect_ok body =
  match Validate.check (kernel body) with
  | Ok () -> ()
  | Error errs -> Alcotest.fail (Validate.errors_to_string errs)

let test_undeclared_buffer () =
  expect_error
    (Stmt.copy ~dst:(region "nowhere" [ 16; 16 ]) ~src:(region "A" [ 16; 16 ]) ())
    "undeclared buffer nowhere"

let test_rank_mismatch () =
  expect_error
    (Stmt.copy ~dst:(region "C" [ 16 ]) ~src:(region "A" [ 16; 16 ]) ())
    "rank 1 but buffer has rank 2"

let test_oversized_slice () =
  expect_error
    (Stmt.copy ~dst:(region "C" [ 16; 32 ]) ~src:(region "A" [ 16; 32 ]) ())
    "slice length 32 > dimension 16"

let test_shape_mismatch () =
  expect_error
    (Stmt.copy ~dst:(region "C" [ 16; 16 ]) ~src:(region "A" [ 8; 16 ]) ())
    "incompatible shapes"

let test_async_to_global_rejected () =
  expect_error
    (Stmt.copy ~kind:Stmt.Async_copy ~dst:(region "C" [ 16; 16 ])
       ~src:(region "A" [ 16; 16 ]) ())
    "global scope"

let test_async_with_fused_rejected () =
  let sh = sbuf "S" [ 16; 16 ] in
  expect_error
    (Stmt.alloc sh
       (Stmt.copy ~kind:Stmt.Async_copy ~fused:"relu"
          ~dst:(region "S" [ 16; 16 ]) ~src:(region "A" [ 16; 16 ]) ()))
    "cannot carry fused op relu"

let test_async_to_shared_ok () =
  let sh = sbuf "S" [ 16; 16 ] in
  expect_ok
    (Stmt.alloc sh
       (Stmt.seq
          [ Stmt.copy ~kind:Stmt.Async_copy ~dst:(region "S" [ 16; 16 ])
              ~src:(region "A" [ 16; 16 ]) ();
            Stmt.copy ~dst:(region "C" [ 16; 16 ]) ~src:(region "S" [ 16; 16 ]) () ]))

let test_unbound_variable () =
  expect_error
    (Stmt.copy
       ~dst:(Stmt.region "C" [ Stmt.slice (Expr.var "q") 16; Stmt.slice Expr.zero 16 ])
       ~src:(region "A" [ 16; 16 ]) ())
    "unbound variable q"

let test_loop_shadowing () =
  expect_error
    (Stmt.for_ "i" (Expr.const 2)
       (Stmt.for_ "i" (Expr.const 2)
          (Stmt.copy ~dst:(region "C" [ 16; 16 ]) ~src:(region "A" [ 16; 16 ]) ())))
    "shadows an enclosing binding"

let test_duplicate_alloc () =
  let sh = sbuf "S" [ 4; 4 ] in
  expect_error
    (Stmt.alloc sh (Stmt.alloc sh (Stmt.seq [])))
    "declared twice"

let test_mma_scope_check () =
  let s = sbuf "S" [ 16; 16 ] in
  let r1 = rbuf "R1" [ 16; 16 ] in
  let r2 = rbuf "R2" [ 16; 16 ] in
  expect_error
    (Stmt.alloc s
       (Stmt.alloc r1
          (Stmt.alloc r2
             (Stmt.Mma
                { c = region "R1" [ 16; 16 ]; a = region "S" [ 16; 16 ];
                  b = region "R2" [ 16; 16 ] }))))
    "must live in register scope"

let test_mma_shape_check () =
  let c = rbuf "Rc" [ 16; 8 ] in
  let a = rbuf "Ra" [ 16; 4 ] in
  let b = rbuf "Rb" [ 8; 2 ] in
  expect_error
    (Stmt.alloc c
       (Stmt.alloc a
          (Stmt.alloc b
             (Stmt.Mma
                { c = region "Rc" [ 16; 8 ]; a = region "Ra" [ 16; 4 ];
                  b = region "Rb" [ 8; 2 ] }))))
    "shape mismatch"

let test_valid_mma () =
  let c = rbuf "Rc" [ 16; 8 ] in
  let a = rbuf "Ra" [ 16; 4 ] in
  let b = rbuf "Rb" [ 8; 4 ] in
  expect_ok
    (Stmt.alloc c
       (Stmt.alloc a
          (Stmt.alloc b
             (Stmt.Mma
                { c = region "Rc" [ 16; 8 ]; a = region "Ra" [ 16; 4 ];
                  b = region "Rb" [ 8; 4 ] }))))

let test_multiple_errors_collected () =
  let body =
    Stmt.seq
      [ Stmt.copy ~dst:(region "x" [ 4 ]) ~src:(region "y" [ 4 ]) ();
        Stmt.copy ~dst:(region "z" [ 4 ]) ~src:(region "w" [ 4 ]) () ]
  in
  match Validate.check (kernel body) with
  | Ok () -> Alcotest.fail "expected errors"
  | Error errs -> Alcotest.(check bool) ">= 4 errors" true (List.length errs >= 4)


(* Golden error texts: a corpus of malformed kernels that together raise
   every message [Validate] can produce, several of them more than once
   in one kernel, so the text and the order of the collected errors are
   both pinned. The golden file was generated by the validator that
   preceded the allocation-free rewrite. *)

let v = Expr.var
let sl off len = Stmt.slice off len
let sync = Stmt.Sync Stmt.Barrier
let r2 = region
let rmma c a b = Stmt.Mma { c; a; b }
let cond lhs rhs = { Stmt.lhs; cmp = Stmt.Lt; rhs }

let corpus =
  let sh = sbuf "S" [ 16; 16 ] and sh2 = sbuf "S2" [ 8; 16 ] in
  let rc = rbuf "Rc" [ 16; 8 ] and ra = rbuf "Ra" [ 16; 4 ]
  and rb = rbuf "Rb" [ 8; 4 ] and r3 = rbuf "R3" [ 2; 4; 4 ] in
  let regs body = Stmt.alloc rc (Stmt.alloc ra (Stmt.alloc rb body)) in
  [ ("well-formed", Stmt.seq [ Stmt.copy ~dst:(r2 "C" [ 16; 16 ]) ~src:(r2 "A" [ 16; 16 ]) (); sync ]);
    ("undeclared buffers",
     Stmt.copy ~dst:(r2 "nowhere" [ 16; 16 ]) ~src:(r2 "elsewhere" [ 4 ]) ());
    ("rank mismatch", Stmt.copy ~dst:(r2 "C" [ 16 ]) ~src:(r2 "A" [ 16; 16 ]) ());
    ("non-positive and oversized slices",
     Stmt.Fill { dst = Stmt.region "C" [ sl Expr.zero 0; sl Expr.zero 32 ]; value = 0.0 });
    ("negative slice", Stmt.Fill { dst = Stmt.region "C" [ sl Expr.zero (-3); sl Expr.zero 16 ]; value = 1.0 });
    ("oversized copy", Stmt.copy ~dst:(r2 "C" [ 16; 32 ]) ~src:(r2 "A" [ 16; 32 ]) ());
    ("unbound offset variables",
     Stmt.copy
       ~dst:(Stmt.region "C" [ sl (Expr.add (v "q") (Expr.mul (v "r") (v "q"))) 16; sl (v "s") 16 ])
       ~src:(r2 "A" [ 16; 16 ]) ());
    ("rank mismatch with unbound offset",
     Stmt.copy ~dst:(Stmt.region "C" [ sl (v "z") 16 ]) ~src:(r2 "A" [ 16; 16 ]) ());
    ("partly bound offsets",
     Stmt.for_ "i" (Expr.const 2)
       (Stmt.copy ~dst:(Stmt.region "C" [ sl (Expr.add (v "i") (v "j")) 8; sl (v "i") 16 ])
          ~src:(Stmt.region "A" [ sl (v "k") 8; sl Expr.zero 16 ]) ()));
    ("loop shadowing",
     Stmt.for_ "i" (Expr.const 2) (Stmt.for_ "j" (Expr.const 2) (Stmt.for_ "i" (Expr.const 2) sync)));
    ("unbound extents",
     Stmt.for_ "i" (Expr.add (v "n") (Expr.add (v "m") (v "n")))
       (Stmt.for_ "j" (Expr.mul (v "i") (v "p")) sync));
    ("extent names its own loop", Stmt.for_ "i" (v "i") sync);
    ("declared twice",
     Stmt.alloc sh (Stmt.seq [ Stmt.alloc sh sync; Stmt.alloc (gbuf "A" [ 16; 16 ]) sync ]));
    ("sibling allocs are fine", Stmt.seq [ Stmt.alloc sh sync; Stmt.alloc sh sync ]);
    ("unbound condition",
     Stmt.If { cond = cond (Expr.add (v "x") (v "y")) (v "x"); then_ = sync });
    ("bound condition, bad body",
     Stmt.for_ "x" (Expr.const 4)
       (Stmt.If { cond = cond (v "x") (Expr.const 2);
                  then_ = Stmt.copy ~dst:(r2 "C" [ 16; 16 ]) ~src:(r2 "A" [ 8; 16 ]) () }));
    ("incompatible copy", Stmt.copy ~dst:(r2 "C" [ 16; 16 ]) ~src:(r2 "A" [ 8; 16 ]) ());
    ("squeezed-compatible copy",
     Stmt.alloc sh2 (Stmt.copy ~dst:(Stmt.region "S2" [ sl Expr.zero 8; sl Expr.zero 16 ])
                       ~src:(Stmt.region "A" [ sl Expr.zero 8; sl Expr.zero 16 ]) ()));
    ("async with fused op",
     Stmt.alloc sh (Stmt.copy ~kind:Stmt.Async_copy ~fused:"relu" ~dst:(r2 "S" [ 16; 16 ]) ~src:(r2 "A" [ 16; 16 ]) ()));
    ("async to global", Stmt.copy ~kind:Stmt.Async_copy ~dst:(r2 "C" [ 16; 16 ]) ~src:(r2 "A" [ 16; 16 ]) ());
    ("async fused to global, bad shapes",
     Stmt.copy ~kind:Stmt.Async_copy ~fused:"gelu" ~dst:(r2 "C" [ 16; 16 ]) ~src:(r2 "A" [ 4; 16 ]) ());
    ("async to undeclared", Stmt.copy ~kind:Stmt.Async_copy ~fused:"exp" ~dst:(r2 "T" [ 16; 16 ]) ~src:(r2 "A" [ 16; 16 ]) ());
    ("sync copy with fused op is fine",
     Stmt.copy ~fused:"relu" ~dst:(r2 "C" [ 16; 16 ]) ~src:(r2 "A" [ 16; 16 ]) ());
    ("mma scopes",
     Stmt.alloc sh (regs (rmma (r2 "C" [ 16; 16 ]) (r2 "S" [ 16; 16 ]) (r2 "Rb" [ 8; 4 ]))));
    ("mma shape mismatch", regs (rmma (r2 "Rc" [ 16; 8 ]) (r2 "Ra" [ 16; 4 ]) (Stmt.region "Rb" [ sl Expr.zero 8; sl Expr.zero 2 ])));
    ("mma rank", Stmt.alloc r3 (regs (rmma (r2 "R3" [ 2; 4; 4 ]) (r2 "Ra" [ 16; 4 ]) (r2 "Rb" [ 8; 4 ]))));
    ("mma squeezed rank-2 is fine",
     Stmt.alloc r3 (regs (rmma (Stmt.region "R3" [ sl Expr.zero 1; sl Expr.zero 4; sl Expr.zero 4 ])
                            (Stmt.region "Ra" [ sl Expr.zero 4; sl Expr.zero 4 ])
                            (Stmt.region "Rb" [ sl Expr.zero 4; sl Expr.zero 4 ]))));
    ("mma undeclared operands", rmma (r2 "X" [ 4; 4 ]) (r2 "Y" [ 4; 4 ]) (r2 "Z" [ 4; 4 ]));
    ("mma all wrong",
     Stmt.alloc r3 (rmma (Stmt.region "R3" [ sl (v "u") 2; sl Expr.zero 4; sl Expr.zero 9 ]) (r2 "A" [ 16; 16 ]) (r2 "nope" [ 4 ])));
    ("unop shapes",
     Stmt.Unop { dst = r2 "C" [ 16; 16 ]; src = r2 "A" [ 16; 8 ]; op = "relu" });
    ("unop undeclared", Stmt.Unop { dst = r2 "D" [ 16; 16 ]; src = r2 "A" [ 16; 8 ]; op = "relu" });
    ("accum shapes", Stmt.Accum { dst = r2 "C" [ 16; 16 ]; src = r2 "A" [ 8; 8 ] });
    ("accum rank and slices", Stmt.Accum { dst = r2 "C" [ 16; 17 ]; src = r2 "A" [ 16 ] });
    ("nested kitchen sink",
     Stmt.for_ "b" (Expr.const 2)
       (Stmt.alloc sh
          (Stmt.seq
             [ Stmt.for_ "b" (v "w")
                 (Stmt.copy ~kind:Stmt.Async_copy ~fused:"relu"
                    ~dst:(Stmt.region "S" [ sl (v "b") 16; sl (v "c") 16 ])
                    ~src:(r2 "A" [ 16; 8 ]) ());
               Stmt.alloc sh (Stmt.Fill { dst = r2 "S" [ 0; 16; 2 ]; value = 0.0 });
               Stmt.If { cond = cond (v "e") (v "b");
                         then_ = Stmt.Accum { dst = r2 "S" [ 16; 16 ]; src = r2 "Q" [ 16; 16 ] } };
               rmma (r2 "S" [ 16; 16 ]) (r2 "A" [ 16; 16 ]) (r2 "C" [ 16; 16 ]);
               Stmt.Sync (Stmt.Producer_acquire "g");
               Stmt.Unop { dst = r2 "C" [ 4; 4 ]; src = r2 "S" [ 16; 16 ]; op = "neg" } ]))) ]

let corpus_report () =
  String.concat ""
    (List.map
       (fun (name, body) ->
         let text =
           match Validate.check (kernel body) with
           | Ok () -> "ok"
           | Error errs -> Validate.errors_to_string errs
         in
         Printf.sprintf "== %s\n%s\n" name text)
       corpus)

let test_error_golden () =
  let file = "golden/validate_errors.txt" in
  let expected = In_channel.with_open_bin file In_channel.input_all in
  Alcotest.(check string) file expected (corpus_report ())

let suite =
  [ ( "validate",
      [ Alcotest.test_case "undeclared buffer" `Quick test_undeclared_buffer;
        Alcotest.test_case "rank mismatch" `Quick test_rank_mismatch;
        Alcotest.test_case "oversized slice" `Quick test_oversized_slice;
        Alcotest.test_case "shape mismatch" `Quick test_shape_mismatch;
        Alcotest.test_case "async to global" `Quick test_async_to_global_rejected;
        Alcotest.test_case "async with fused op" `Quick test_async_with_fused_rejected;
        Alcotest.test_case "async to shared" `Quick test_async_to_shared_ok;
        Alcotest.test_case "unbound variable" `Quick test_unbound_variable;
        Alcotest.test_case "loop shadowing" `Quick test_loop_shadowing;
        Alcotest.test_case "duplicate alloc" `Quick test_duplicate_alloc;
        Alcotest.test_case "mma scope" `Quick test_mma_scope_check;
        Alcotest.test_case "mma shape" `Quick test_mma_shape_check;
        Alcotest.test_case "valid mma" `Quick test_valid_mma;
        Alcotest.test_case "multiple errors" `Quick test_multiple_errors_collected;
        Alcotest.test_case "error texts golden" `Quick test_error_golden ] ) ]
