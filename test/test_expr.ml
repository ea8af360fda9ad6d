(* Unit and property tests for the index expression language. *)

open Alcop_ir

let e = Alcotest.(check int)

let env_of bindings v = List.assoc_opt v bindings

(* --- generators --- *)

let gen_expr =
  let open QCheck.Gen in
  let leaf =
    oneof
      [ map (fun n -> Expr.Const n) (int_range 0 64);
        oneofl [ Expr.Var "x"; Expr.Var "y"; Expr.Var "z" ] ]
  in
  let rec expr n =
    if n = 0 then leaf
    else
      frequency
        [ (2, leaf);
          (1, map2 (fun a b -> Expr.Add (a, b)) (expr (n - 1)) (expr (n - 1)));
          (1, map2 (fun a b -> Expr.Sub (a, b)) (expr (n - 1)) (expr (n - 1)));
          (1, map2 (fun a b -> Expr.Mul (a, b)) (expr (n - 1)) (expr (n - 1)));
          (1,
           map2
             (fun a b -> Expr.Div (a, Expr.Const (1 + abs b)))
             (expr (n - 1)) (int_range 1 16));
          (1,
           map2
             (fun a b -> Expr.Mod (a, Expr.Const (1 + abs b)))
             (expr (n - 1)) (int_range 1 16));
          (1, map2 (fun a b -> Expr.Min (a, b)) (expr (n - 1)) (expr (n - 1)));
          (1, map2 (fun a b -> Expr.Max (a, b)) (expr (n - 1)) (expr (n - 1))) ]
  in
  expr 4

let arb_expr = QCheck.make ~print:Expr.to_string gen_expr

let test_env = [ ("x", 7); ("y", 12); ("z", 3) ]

(* --- unit tests --- *)

let test_constant_folding () =
  e "add" 5 (Expr.eval (env_of []) (Expr.add (Expr.const 2) (Expr.const 3)));
  Alcotest.(check bool)
    "add folds" true
    (Expr.equal (Expr.add (Expr.const 2) (Expr.const 3)) (Expr.const 5));
  Alcotest.(check bool)
    "mul by zero" true
    (Expr.equal (Expr.mul (Expr.var "k") Expr.zero) Expr.zero);
  Alcotest.(check bool)
    "mul by one" true
    (Expr.equal (Expr.mul (Expr.var "k") Expr.one) (Expr.var "k"));
  Alcotest.(check bool)
    "add zero" true
    (Expr.equal (Expr.add (Expr.var "k") Expr.zero) (Expr.var "k"));
  Alcotest.(check bool)
    "mod one" true
    (Expr.equal (Expr.modulo (Expr.var "k") Expr.one) Expr.zero);
  Alcotest.(check bool)
    "div one" true
    (Expr.equal (Expr.div (Expr.var "k") Expr.one) (Expr.var "k"))

let test_nested_constant_chains () =
  (* (k + 2) + 3 folds to k + 5 *)
  let x = Expr.add (Expr.add (Expr.var "k") (Expr.const 2)) (Expr.const 3) in
  Alcotest.(check string) "chain" "k + 5" (Expr.to_string x);
  (* mod of mod with equal modulus collapses *)
  let m =
    Expr.modulo (Expr.modulo (Expr.var "k") (Expr.const 3)) (Expr.const 3)
  in
  Alcotest.(check string) "modmod" "k % 3" (Expr.to_string m)

let test_floor_semantics () =
  e "floordiv pos" 2 (Expr.floordiv_int 7 3);
  e "floordiv neg" (-3) (Expr.floordiv_int (-7) 3);
  e "floormod pos" 1 (Expr.floormod_int 7 3);
  e "floormod neg" 2 (Expr.floormod_int (-7) 3)

let test_eval () =
  let expr =
    Expr.add
      (Expr.mul (Expr.var "x") (Expr.const 4))
      (Expr.modulo (Expr.var "y") (Expr.const 5))
  in
  e "eval" ((7 * 4) + (12 mod 5)) (Expr.eval (env_of test_env) expr)

let test_eval_unbound () =
  Alcotest.check_raises "unbound"
    (Invalid_argument "Expr.eval: unbound variable q")
    (fun () -> ignore (Expr.eval (env_of []) (Expr.var "q")))

let test_eval_const () =
  Alcotest.(check (option int))
    "const" (Some 42)
    (Expr.eval_const (Expr.mul (Expr.const 6) (Expr.const 7)));
  Alcotest.(check (option int))
    "nonconst" None
    (Expr.eval_const (Expr.add (Expr.var "x") (Expr.const 1)))

let test_subst () =
  (* (ko + 2) mod 8 with ko := 6 evaluates to 0 *)
  let expr = Expr.modulo (Expr.add (Expr.var "ko") (Expr.const 2)) (Expr.const 8) in
  let substituted = Expr.subst "ko" (Expr.const 6) expr in
  Alcotest.(check (option int)) "subst folds" (Some 0) (Expr.eval_const substituted)

let test_free_vars () =
  let expr =
    Expr.add (Expr.var "a") (Expr.mul (Expr.var "b") (Expr.var "a"))
  in
  Alcotest.(check (list string)) "vars" [ "a"; "b" ] (Expr.free_vars expr);
  Alcotest.(check bool) "mentions" true (Expr.mentions "b" expr);
  Alcotest.(check bool) "not mentions" false (Expr.mentions "c" expr)

let test_mod_drops_multiples () =
  (* (ko * 2 + ki + 1) mod 2 = (ki + 1) mod 2 -- paper Fig. 7's concise
     rolling index is recovered when the extent is a multiple of the stage
     count *)
  let e =
    Expr.modulo
      (Expr.add
         (Expr.add (Expr.mul (Expr.var "ko") (Expr.const 2)) (Expr.var "ki"))
         Expr.one)
      (Expr.const 2)
  in
  Alcotest.(check string) "dropped" "(ki + 1) % 2" (Expr.to_string e);
  (* but NOT when the multiplier is not a multiple of the modulus *)
  let e2 =
    Expr.modulo
      (Expr.add (Expr.mul (Expr.var "ko") (Expr.const 3)) (Expr.var "ki"))
      (Expr.const 2)
  in
  Alcotest.(check bool) "kept" true
    (Expr.mentions "ko" e2);
  (* semantic equivalence under random assignments *)
  for ko = 0 to 5 do
    for ki = 0 to 5 do
      let env v =
        if String.equal v "ko" then Some ko
        else if String.equal v "ki" then Some ki
        else None
      in
      Alcotest.(check int) "equivalent"
        (((ko * 2) + ki + 1) mod 2)
        (Expr.eval env e)
    done
  done

(* ((16 + z) % 3 + 3) % 3: dropping the [+ 3] exposes the inner [% 3], which
   must collapse in the same pass for [simplify] to be idempotent. *)
let test_mod_collapse_after_drop () =
  let open Expr in
  let e =
    Mod (Add (Mod (Add (Const 16, Var "z"), Const 3), Const 3), Const 3)
  in
  let once = simplify e in
  Alcotest.(check string) "collapsed" "(z + 1) % 3" (to_string once);
  Alcotest.(check bool) "idempotent" true (equal once (simplify once))

let test_min_max () =
  let e = Expr.min_ (Expr.var "x") (Expr.max_ (Expr.var "y") (Expr.const 3)) in
  Alcotest.(check int) "eval" 7 (Expr.eval (env_of test_env) e);
  Alcotest.(check string) "pp" "min(x, max(y, 3))" (Expr.to_string e);
  Alcotest.(check bool) "min self" true
    (Expr.equal (Expr.min_ (Expr.var "x") (Expr.var "x")) (Expr.var "x"))

let test_pp_precedence () =
  let s x = Expr.to_string x in
  Alcotest.(check string)
    "mul of add" "(a + b) * 2"
    (s (Expr.Mul (Expr.Add (Expr.var "a", Expr.var "b"), Expr.const 2)));
  Alcotest.(check string)
    "mul of mod parenthesized" "(a % 3) * 2"
    (s (Expr.Mul (Expr.Mod (Expr.var "a", Expr.const 3), Expr.const 2)));
  Alcotest.(check string)
    "add of mul" "a * 2 + b"
    (s (Expr.Add (Expr.Mul (Expr.var "a", Expr.const 2), Expr.var "b")));
  Alcotest.(check string)
    "sub rhs" "a - (b + c)"
    (s (Expr.Sub (Expr.var "a", Expr.Add (Expr.var "b", Expr.var "c"))))

(* --- properties --- *)

let prop_simplify_preserves_eval =
  QCheck.Test.make ~name:"simplify preserves evaluation" ~count:500 arb_expr
    (fun expr ->
      let env = env_of test_env in
      match Expr.eval env expr with
      | v -> Expr.eval env (Expr.simplify expr) = v
      | exception Invalid_argument _ -> QCheck.assume_fail ())

let prop_subst_matches_env =
  QCheck.Test.make ~name:"subst x:=c equals eval with x=c" ~count:500 arb_expr
    (fun expr ->
      let env = env_of test_env in
      match Expr.eval env expr with
      | v ->
        let substituted =
          List.fold_left
            (fun acc (name, value) -> Expr.subst name (Expr.const value) acc)
            expr test_env
        in
        Expr.eval_const substituted = Some v
      | exception Invalid_argument _ -> QCheck.assume_fail ())

let prop_free_vars_after_subst =
  QCheck.Test.make ~name:"subst removes the variable" ~count:500 arb_expr
    (fun expr ->
      let substituted = Expr.subst "x" (Expr.const 3) expr in
      not (Expr.mentions "x" substituted))

let prop_floormod_range =
  QCheck.Test.make ~name:"floormod lands in [0, b)" ~count:500
    QCheck.(pair (int_range (-1000) 1000) (int_range 1 64))
    (fun (a, b) ->
      let m = Expr.floormod_int a b in
      m >= 0 && m < b)

let prop_floor_div_mod_identity =
  QCheck.Test.make ~name:"a = b * (a/b) + (a mod b)" ~count:500
    QCheck.(pair (int_range (-1000) 1000) (int_range 1 64))
    (fun (a, b) -> (b * Expr.floordiv_int a b) + Expr.floormod_int a b = a)

let prop_pp_roundtrip_eval =
  (* Printing then reading back is not implemented, but printing must at
     least be total and stable under simplification idempotence. *)
  QCheck.Test.make ~name:"simplify is idempotent" ~count:500 arb_expr
    (fun expr ->
      let once = Expr.simplify expr in
      Expr.equal once (Expr.simplify once))

(* The pipelining pass relies on substitution handing back, physically,
   every subtree that does not mention the variable. *)
let prop_subst_shares_unmentioned =
  QCheck.Test.make ~name:"subst v r e == e when e does not mention v"
    ~count:500
    QCheck.(pair arb_expr (make (Gen.oneofl [ "x"; "y"; "z"; "w" ])))
    (fun (expr, v) ->
      QCheck.assume (not (Expr.mentions v expr));
      Expr.subst v (Expr.Add (Expr.var "q", Expr.const 1)) expr == expr)

let suite =
  [ ( "expr",
      [ Alcotest.test_case "constant folding" `Quick test_constant_folding;
        Alcotest.test_case "nested constant chains" `Quick
          test_nested_constant_chains;
        Alcotest.test_case "floor division semantics" `Quick test_floor_semantics;
        Alcotest.test_case "eval" `Quick test_eval;
        Alcotest.test_case "eval unbound" `Quick test_eval_unbound;
        Alcotest.test_case "eval_const" `Quick test_eval_const;
        Alcotest.test_case "subst" `Quick test_subst;
        Alcotest.test_case "free vars" `Quick test_free_vars;
        Alcotest.test_case "mod drops multiples" `Quick test_mod_drops_multiples;
        Alcotest.test_case "mod collapses after dropping multiples" `Quick
          test_mod_collapse_after_drop;
        Alcotest.test_case "min/max" `Quick test_min_max;
        Alcotest.test_case "printing precedence" `Quick test_pp_precedence;
        QCheck_alcotest.to_alcotest prop_simplify_preserves_eval;
        QCheck_alcotest.to_alcotest prop_subst_matches_env;
        QCheck_alcotest.to_alcotest prop_free_vars_after_subst;
        QCheck_alcotest.to_alcotest prop_floormod_range;
        QCheck_alcotest.to_alcotest prop_floor_div_mod_identity;
        QCheck_alcotest.to_alcotest prop_pp_roundtrip_eval;
        QCheck_alcotest.to_alcotest prop_subst_shares_unmentioned ] ) ]
