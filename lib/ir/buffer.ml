(* Buffers: named, statically shaped storage at one level of the GPU memory
   hierarchy. The pipelining pass prepends a stage dimension to a pipelined
   buffer's shape (paper Sec. III-B step 1). *)

type scope =
  | Global
  | Shared
  | Register

let scope_to_string = function
  | Global -> "global"
  | Shared -> "shared"
  | Register -> "register"

let scope_equal (a : scope) (b : scope) = a = b

(* One level closer to the compute units. Asynchronous copies on Ampere only
   exist for global -> shared; shared -> register copies are ordinary loads
   that software pipelining issues early. *)
let inner_scope = function
  | Global -> Some Shared
  | Shared -> Some Register
  | Register -> None

type t = {
  name : string;
  scope : scope;
  dtype : Dtype.t;
  shape : int list;
}

let make ~name ~scope ~dtype ~shape =
  if shape = [] then invalid_arg "Buffer.make: empty shape";
  List.iter
    (fun d -> if d <= 0 then invalid_arg "Buffer.make: non-positive dimension")
    shape;
  { name; scope; dtype; shape }

let num_elements b = List.fold_left ( * ) 1 b.shape

let size_bytes b = num_elements b * Dtype.size_bytes b.dtype

let rank b = List.length b.shape

let with_stage_dim stages b =
  if stages < 2 then invalid_arg "Buffer.with_stage_dim: need at least 2 stages";
  { b with shape = stages :: b.shape }

let pp fmt b =
  Format.fprintf fmt "%s : %a[%s] @@%s" b.name Dtype.pp b.dtype
    (String.concat ", " (List.map string_of_int b.shape))
    (scope_to_string b.scope)
