(* Integer index expressions.

   Loop extents, buffer offsets and the pipelining pass's shifted / wrapped
   indices (e.g. [(ko + 2) mod 3]) are all values of this type. Division and
   modulo follow the "floor" convention and are only ever applied to
   non-negative operands by construction, which matches CUDA index
   arithmetic on unsigned loop variables. *)

type t =
  | Const of int
  | Var of string
  | Add of t * t
  | Sub of t * t
  | Mul of t * t
  | Div of t * t
  | Mod of t * t
  | Min of t * t
  | Max of t * t

let rec equal a b =
  match a, b with
  | Const x, Const y -> x = y
  | Var x, Var y -> String.equal x y
  | Add (a1, a2), Add (b1, b2)
  | Sub (a1, a2), Sub (b1, b2)
  | Mul (a1, a2), Mul (b1, b2)
  | Div (a1, a2), Div (b1, b2)
  | Mod (a1, a2), Mod (b1, b2)
  | Min (a1, a2), Min (b1, b2)
  | Max (a1, a2), Max (b1, b2) -> equal a1 b1 && equal a2 b2
  | (Const _ | Var _ | Add _ | Sub _ | Mul _ | Div _ | Mod _ | Min _ | Max _), _
    -> false

let const n = Const n
let var v = Var v
let zero = Const 0
let one = Const 1

(* Smart constructors perform light constant folding so transformed IR stays
   readable: the pipelining pass composes many [+ c] and [mod c] operations
   and without folding the output would be noise. *)

let rec add a b =
  match a, b with
  | Const 0, e | e, Const 0 -> e
  | Const x, Const y -> Const (x + y)
  | Add (e, Const x), Const y -> add e (Const (x + y))
  | Const x, Add (e, Const y) -> add e (Const (x + y))
  | e, Const x -> Add (e, Const x)
  | Const x, e -> Add (e, Const x)
  | _ -> Add (a, b)

let sub a b =
  match a, b with
  | e, Const 0 -> e
  | Const x, Const y -> Const (x - y)
  | _ -> Sub (a, b)

let mul a b =
  match a, b with
  | Const 0, _ | _, Const 0 -> Const 0
  | Const 1, e | e, Const 1 -> e
  | Const x, Const y -> Const (x * y)
  | _ -> Mul (a, b)

let floordiv_int a b =
  if b = 0 then invalid_arg "Expr: division by zero"
  else if (a < 0) <> (b < 0) && a mod b <> 0 then (a / b) - 1
  else a / b

let floormod_int a b = a - (b * floordiv_int a b)

let div a b =
  match a, b with
  | e, Const 1 -> e
  | Const x, Const y when y <> 0 -> Const (floordiv_int x y)
  | _ -> Div (a, b)

(* Drop additive terms that are multiples of [n] — they cannot affect a
   [mod n]: turns ((ko * E + ki) + 1) mod n into (ki + 1) mod n when n
   divides E, recovering the concise rolling indices of paper Fig. 7. *)
let rec drop_multiples n e =
  match e with
  | Const c -> Const (floormod_int c n)
  | Mul (_, Const a) when a mod n = 0 -> Const 0
  | Mul (Const a, _) when a mod n = 0 -> Const 0
  | Add (x, y) -> add (drop_multiples n x) (drop_multiples n y)
  | Var _ | Mul _ | Sub _ | Div _ | Mod _ | Min _ | Max _ -> e

and modulo a b =
  match a, b with
  | _, Const 1 -> Const 0
  | Const x, Const y when y <> 0 -> Const (floormod_int x y)
  | _, Const n when n > 1 ->
    (* Test the reduced operand, not the raw one: dropping multiples can
       expose an inner [mod n] (e.g. ((z % 3) + 3) % 3), and collapsing it
       only on the next pass would make [simplify] not idempotent. *)
    (match drop_multiples n a with
     | Const x -> Const (floormod_int x n)
     | Mod (_, Const m) as r when m = n -> r
     | reduced -> Mod (reduced, Const n))
  | _ -> Mod (a, b)

let min_ a b =
  match a, b with
  | Const x, Const y -> Const (min x y)
  | _ -> if equal a b then a else Min (a, b)

let max_ a b =
  match a, b with
  | Const x, Const y -> Const (max x y)
  | _ -> if equal a b then a else Max (a, b)

let rec eval env = function
  | Const n -> n
  | Var v ->
    (match env v with
     | Some n -> n
     | None -> raise (Invalid_argument ("Expr.eval: unbound variable " ^ v)))
  | Add (a, b) -> eval env a + eval env b
  | Sub (a, b) -> eval env a - eval env b
  | Mul (a, b) -> eval env a * eval env b
  | Div (a, b) -> floordiv_int (eval env a) (eval env b)
  | Mod (a, b) -> floormod_int (eval env a) (eval env b)
  | Min (a, b) -> min (eval env a) (eval env b)
  | Max (a, b) -> max (eval env a) (eval env b)

let eval_const e =
  match eval (fun _ -> None) e with
  | n -> Some n
  | exception Invalid_argument _ -> None

(* Sharing-preserving: a subtree that does not mention [name] comes back
   physically unchanged (expressions are built through the smart
   constructors, so an untouched subtree is already folded and there is
   nothing to re-simplify). No closure is built: the pipelining pass runs
   this on every index it shifts. *)
let rec subst name replacement expr =
  match expr with
  | Const _ -> expr
  | Var v -> if String.equal v name then replacement else expr
  | Add (a, b) -> subst2 add name replacement expr a b
  | Sub (a, b) -> subst2 sub name replacement expr a b
  | Mul (a, b) -> subst2 mul name replacement expr a b
  | Div (a, b) -> subst2 div name replacement expr a b
  | Mod (a, b) -> subst2 modulo name replacement expr a b
  | Min (a, b) -> subst2 min_ name replacement expr a b
  | Max (a, b) -> subst2 max_ name replacement expr a b

and subst2 mk name replacement expr a b =
  let a' = subst name replacement a in
  let b' = subst name replacement b in
  if a' == a && b' == b then expr else mk a' b'

let rec free_vars acc = function
  | Const _ -> acc
  | Var v -> if Names.mem v acc then acc else v :: acc
  | Add (a, b) | Sub (a, b) | Mul (a, b) | Div (a, b) | Mod (a, b)
  | Min (a, b) | Max (a, b) -> free_vars (free_vars acc a) b

let free_vars e = List.rev (free_vars [] e)

let rec mentions name = function
  | Const _ -> false
  | Var v -> String.equal v name
  | Add (a, b) | Sub (a, b) | Mul (a, b) | Div (a, b) | Mod (a, b)
  | Min (a, b) | Max (a, b) -> mentions name a || mentions name b

(* Rebuild an expression through the smart constructors; folds constants that
   became foldable after substitution. *)
let rec simplify = function
  | (Const _ | Var _) as e -> e
  | Add (a, b) -> add (simplify a) (simplify b)
  | Sub (a, b) -> sub (simplify a) (simplify b)
  | Mul (a, b) -> mul (simplify a) (simplify b)
  | Div (a, b) -> div (simplify a) (simplify b)
  | Mod (a, b) -> modulo (simplify a) (simplify b)
  | Min (a, b) -> min_ (simplify a) (simplify b)
  | Max (a, b) -> max_ (simplify a) (simplify b)

let precedence = function
  | Const _ | Var _ -> 3
  | Mul _ | Div _ | Mod _ -> 2
  | Add _ | Sub _ -> 1
  | Min _ | Max _ -> 0

let needs_paren ~parent ~child ~right =
  precedence child < precedence parent
  ||
  (* Same-precedence cases that read ambiguously without parentheses. *)
  (match parent, child with
   | (Mul _ | Div _ | Mod _), (Div _ | Mod _) -> true
   | Sub _, (Add _ | Sub _) -> right
   | _ -> false)

let rec pp fmt e =
  let operand right child =
    if needs_paren ~parent:e ~child ~right then
      Format.fprintf fmt "(%a)" pp child
    else pp fmt child
  in
  let binop a op b =
    operand false a;
    Format.pp_print_string fmt op;
    operand true b
  in
  match e with
  | Const n -> Format.pp_print_int fmt n
  | Var v -> Format.pp_print_string fmt v
  | Add (a, b) -> binop a " + " b
  | Sub (a, b) -> binop a " - " b
  | Mul (a, b) -> binop a " * " b
  | Div (a, b) -> binop a " / " b
  | Mod (a, b) -> binop a " % " b
  | Min (a, b) -> Format.fprintf fmt "min(%a, %a)" pp a pp b
  | Max (a, b) -> Format.fprintf fmt "max(%a, %a)" pp a pp b

let to_string e = Format.asprintf "%a" pp e
