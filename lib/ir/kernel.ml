(* A kernel: the unit the compiler produces and the simulators consume.
   [inputs] and [outputs] are global-memory tensors; everything else is
   allocated inside [body]. *)

type t = {
  name : string;
  inputs : Buffer.t list;
  outputs : Buffer.t list;
  body : Stmt.t;
}

let make ~name ~inputs ~outputs ~body =
  List.iter
    (fun (b : Buffer.t) ->
      if not (Buffer.scope_equal b.Buffer.scope Buffer.Global) then
        invalid_arg
          (Printf.sprintf "Kernel.make: parameter %s is not in global scope"
             b.Buffer.name))
    (inputs @ outputs);
  { name; inputs; outputs; body }

let params k = k.inputs @ k.outputs

let find_param k name =
  List.find_opt (fun (b : Buffer.t) -> String.equal b.Buffer.name name) (params k)

(* Every buffer visible anywhere in the kernel: parameters plus allocs. *)
let all_buffers k = params k @ Stmt.allocs k.body

(* The first of [all_buffers] named [name], found without building that
   list: the pipelining analysis looks up every hinted buffer. *)
let rec find_named name = function
  | [] -> None
  | (b : Buffer.t) :: rest ->
    if String.equal b.Buffer.name name then Some b else find_named name rest

let find_buffer k name =
  match find_named name k.inputs with
  | Some _ as found -> found
  | None ->
    (match find_named name k.outputs with
     | Some _ as found -> found
     | None -> Stmt.find_alloc k.body name)

let map_body f k = { k with body = f k.body }

let pp fmt k =
  let pp_param fmt (b : Buffer.t) = Buffer.pp fmt b in
  Format.fprintf fmt "@[<v>kernel %s@,inputs:  @[<v>%a@]@,outputs: @[<v>%a@]@,@[<v>%a@]@]"
    k.name
    (Format.pp_print_list pp_param) k.inputs
    (Format.pp_print_list pp_param) k.outputs
    Stmt.pp k.body

let to_string k = Format.asprintf "%a" pp k
