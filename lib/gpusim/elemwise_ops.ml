(* Registry of element-wise functions that can be fused into copies (paper
   Fig. 5's f(.)) or materialized as separate stages. Unary only: the fusion
   study needs a lightweight op such as a datatype cast or an activation. *)

let gelu x =
  (* tanh approximation of GELU *)
  0.5 *. x *. (1.0 +. tanh (0.7978845608028654 *. (x +. (0.044715 *. x *. x *. x))))

let table : (string * (float -> float)) list = [
  ("id", Fun.id);
  ("cast_f16", Alcop_ir.Dtype.quantize Alcop_ir.Dtype.F16);
  ("relu", fun x -> Float.max 0.0 x);
  ("scale2", fun x -> 2.0 *. x);
  ("neg", fun x -> -.x);
  ("add1", fun x -> x +. 1.0);
  ("gelu", gelu);
  ("sigmoid", fun x -> 1.0 /. (1.0 +. exp (-.x)));
  ("square", fun x -> x *. x);
]

let find name = List.assoc_opt name table

let find_exn name =
  match find name with
  | Some f -> f
  | None -> invalid_arg ("Elemwise_ops: unknown op " ^ name)
