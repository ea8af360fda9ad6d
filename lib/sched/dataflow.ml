(* Dataflow stage graph.

   The schedule transformation (paper Sec. II) operates on this graph: it is
   the equivalent of TVM's stage list after te.create_schedule. Stages are
   kept in topological order; [cache_read] and [inline] rewrite the graph
   before lowering turns it into a loop nest. *)

open Alcop_ir

type kind =
  | Placeholder
  | Elemwise of { src : string; op : string }
  | Cache_read of { src : string; scope : Buffer.scope; fused : string option }
  | Gemm of { a : string; b : string }

type stage = {
  name : string;
  kind : kind;
  shape : int list;
  dtype : Dtype.t;
}

type t = {
  stages : stage list;  (** topological order, producers first *)
  output : string;
}

let find t name = List.find_opt (fun s -> String.equal s.name name) t.stages

let find_exn t name =
  match find t name with
  | Some s -> s
  | None -> invalid_arg ("Dataflow: unknown stage " ^ name)

let mem t name = find t name <> None

let sources (s : stage) =
  match s.kind with
  | Placeholder -> []
  | Elemwise { src; _ } | Cache_read { src; _ } -> [ src ]
  | Gemm { a; b } -> [ a; b ]

let consumers t name =
  List.filter (fun s -> Names.mem name (sources s)) t.stages

let producer t name =
  match (find_exn t name).kind with
  | Placeholder -> None
  | Elemwise { src; _ } | Cache_read { src; _ } -> Some src
  | Gemm _ -> None

(* Build the graph of an operator spec:
   A [-> A_f] -> gemm <- [B_f <-] B, output C. Element-wise producers are
   separate stages until the schedule inlines them. *)
let of_spec (spec : Op_spec.t) =
  let elem name op src shape =
    { name; kind = Elemwise { src; op }; shape; dtype = spec.Op_spec.dtype }
  in
  let a = { name = "A"; kind = Placeholder; shape = Op_spec.a_shape spec;
            dtype = spec.Op_spec.dtype } in
  let b = { name = "B"; kind = Placeholder; shape = Op_spec.b_shape spec;
            dtype = spec.Op_spec.dtype } in
  let a_stages, a_src =
    match spec.Op_spec.a_op with
    | None -> ([ a ], "A")
    | Some op -> ([ a; elem "A_f" op "A" a.shape ], "A_f")
  in
  let b_stages, b_src =
    match spec.Op_spec.b_op with
    | None -> ([ b ], "B")
    | Some op -> ([ b; elem "B_f" op "B" b.shape ], "B_f")
  in
  let c = { name = "C"; kind = Gemm { a = a_src; b = b_src };
            shape = Op_spec.c_shape spec; dtype = spec.Op_spec.dtype } in
  { stages = a_stages @ b_stages @ [ c ]; output = "C" }

(* Insert a cache-read stage of [src] in [scope]; consumers of [src] that
   read it through the new buffer are retargeted. Mirrors TVM's
   [cache_read(tensor, scope, readers)] with all downstream consumers as
   readers. *)
let cache_read t src_name scope =
  let src = find_exn t src_name in
  let suffix =
    match scope with
    | Buffer.Shared -> "_sh"
    | Buffer.Register -> "_reg"
    | Buffer.Global -> "_gbl"
  in
  (* Strip a previous level's suffix so chains read A -> A_sh -> A_reg. *)
  let base =
    List.fold_left
      (fun acc suf ->
        if String.length acc > String.length suf
           && String.equal (String.sub acc (String.length acc - String.length suf)
                              (String.length suf)) suf
        then String.sub acc 0 (String.length acc - String.length suf)
        else acc)
      src_name [ "_sh"; "_reg"; "_gbl" ]
  in
  let name = base ^ suffix in
  if mem t name then invalid_arg ("Dataflow.cache_read: stage exists: " ^ name);
  let cache =
    { name; kind = Cache_read { src = src_name; scope; fused = None };
      shape = src.shape; dtype = src.dtype }
  in
  let retarget (s : stage) =
    if String.equal s.name name then s
    else
      match s.kind with
      | Elemwise e when String.equal e.src src_name ->
        { s with kind = Elemwise { e with src = name } }
      | Cache_read c when String.equal c.src src_name ->
        { s with kind = Cache_read { c with src = name } }
      | Gemm g ->
        let swap x = if String.equal x src_name then name else x in
        { s with kind = Gemm { a = swap g.a; b = swap g.b } }
      | Placeholder | Elemwise _ | Cache_read _ -> s
  in
  let rec insert_after = function
    | [] -> [ cache ]
    | s :: rest ->
      if String.equal s.name src_name then s :: cache :: List.map retarget rest
      else retarget s :: insert_after rest
  in
  ({ t with stages = insert_after t.stages }, name)

let set_fused t name op =
  let stages =
    List.map
      (fun s ->
        if String.equal s.name name then
          match s.kind with
          | Cache_read c -> { s with kind = Cache_read { c with fused = Some op } }
          | Placeholder | Elemwise _ | Gemm _ ->
            invalid_arg ("Dataflow.set_fused: " ^ name ^ " is not a cache read")
        else s)
      t.stages
  in
  { t with stages }

(* Remove an element-wise stage, rewiring its consumers to its source. Used
   by inlining after the op itself has been pushed into a copy. *)
let remove_elemwise t name =
  let stage = find_exn t name in
  let src =
    match stage.kind with
    | Elemwise { src; _ } -> src
    | Placeholder | Cache_read _ | Gemm _ ->
      invalid_arg ("Dataflow.remove_elemwise: " ^ name ^ " is not element-wise")
  in
  let retarget (s : stage) =
    let swap x = if String.equal x name then src else x in
    match s.kind with
    | Elemwise e -> { s with kind = Elemwise { e with src = swap e.src } }
    | Cache_read c -> { s with kind = Cache_read { c with src = swap c.src } }
    | Gemm g -> { s with kind = Gemm { a = swap g.a; b = swap g.b } }
    | Placeholder -> s
  in
  { t with
    stages =
      List.map retarget
        (List.filter (fun s -> not (String.equal s.name name)) t.stages) }

let cache_stages t =
  List.filter (fun s -> match s.kind with Cache_read _ -> true | _ -> false)
    t.stages

(* The chain of cache reads feeding one GEMM operand, outermost (global
   side) first, e.g. ["A_sh"; "A_reg"]. *)
let cache_chain t operand =
  let rec chase acc name =
    match (find_exn t name).kind with
    | Cache_read { src; _ } -> chase (name :: acc) src
    | Placeholder | Elemwise _ | Gemm _ -> (acc, name)
  in
  chase [] operand

let kind_to_string = function
  | Placeholder -> "placeholder"
  | Elemwise { src; op } -> Printf.sprintf "elemwise(%s, %s)" op src
  | Cache_read { src; scope; fused } ->
    Printf.sprintf "cache_read(%s, %s%s)" src (Buffer.scope_to_string scope)
      (match fused with None -> "" | Some f -> ", fused " ^ f)
  | Gemm { a; b } -> Printf.sprintf "gemm(%s, %s)" a b
