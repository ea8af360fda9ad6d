(* Statement IR.

   A kernel is the program of one threadblock, wrapped in [For] loops bound
   to grid / warp dimensions. Data movement is expressed at chunk
   granularity ([Copy] moves a rectangular region between buffers), which is
   the granularity the pipelining pass reasons at (paper Fig. 7).

   Synchronization follows the CUDA pipeline API of Ampere: a pipelined
   buffer is guarded by producer_acquire / producer_commit around its
   loading code and consumer_wait / consumer_release around its using code
   (paper Sec. III-B, step 5). [Barrier] is a plain block-wide
   __syncthreads, which is what the unpipelined input IR uses. *)

type slice = {
  offset : Expr.t;
  len : int;
}

type region = {
  buffer : string;
  slices : slice list;
}

type loop_binding =
  | Block_x
  | Block_y
  | Block_z
  | Warp_x
  | Warp_y

type loop_kind =
  | Sequential
  | Parallel of loop_binding
  | Unrolled

type copy_kind =
  | Sync_copy
  | Async_copy

type sync =
  | Barrier
  | Producer_acquire of string
  | Producer_commit of string
  | Consumer_wait of string
  | Consumer_release of string

type cmp =
  | Eq
  | Ne
  | Lt
  | Le

type cond = {
  lhs : Expr.t;
  cmp : cmp;
  rhs : Expr.t;
}

type t =
  | Seq of t list
  | For of { var : string; extent : Expr.t; kind : loop_kind; body : t }
  | Alloc of { buffer : Buffer.t; body : t }
  | If of { cond : cond; then_ : t }
  | Copy of { kind : copy_kind; dst : region; src : region; fused : string option }
  | Fill of { dst : region; value : float }
  | Mma of { c : region; a : region; b : region }
  | Unop of { dst : region; src : region; op : string }
  | Accum of { dst : region; src : region }
      (** dst += src elementwise; the reduction step of split-K kernels *)
  | Sync of sync

(* --- Construction helpers --- *)

let slice offset len = { offset; len }

let region buffer slices = { buffer; slices }

let point_slice offset = { offset; len = 1 }

let full_region (b : Buffer.t) =
  { buffer = b.Buffer.name;
    slices = List.map (fun d -> { offset = Expr.zero; len = d }) b.Buffer.shape }

let rec has_seq = function
  | [] -> false
  | Seq _ :: _ -> true
  | _ :: rest -> has_seq rest

let rec flatten l tail =
  match l with
  | [] -> tail
  | Seq inner :: rest -> flatten inner (flatten rest tail)
  | s :: rest -> s :: flatten rest tail

(* A list with nothing to flatten is used as it is: no copy. *)
let seq stmts =
  match if has_seq stmts then flatten stmts [] else stmts with
  | [ s ] -> s
  | ss -> Seq ss

let for_ ?(kind = Sequential) var extent body = For { var; extent; kind; body }

let copy ?(kind = Sync_copy) ?fused ~dst ~src () = Copy { kind; dst; src; fused }

let alloc buffer body = Alloc { buffer; body }

(* --- Region utilities --- *)

let region_lens r = List.map (fun s -> s.len) r.slices

let region_elems r = List.fold_left (fun acc s -> acc * s.len) 1 r.slices

(* Shapes of copy source and destination must agree after dropping
   length-one dimensions; the pipelining pass inserts a length-one stage
   dimension on one side only. *)
let squeeze_lens r = List.filter (fun l -> l <> 1) (region_lens r)

let rec squeezed_equal a b =
  match a, b with
  | { len = 1; _ } :: a, b | a, { len = 1; _ } :: b -> squeezed_equal a b
  | [], [] -> true
  | x :: a, y :: b -> x.len = y.len && squeezed_equal a b
  | [], _ :: _ | _ :: _, [] -> false

(* Compares [squeeze_lens] of both sides without building them: the
   validator runs this on every copy of every compile. *)
let copy_shapes_compatible ~dst ~src =
  region_elems dst = region_elems src && squeezed_equal dst.slices src.slices

(* --- Traversal ---

   The rewriting traversals pass their arguments down instead of building
   a partial application per node: the pipelining pass runs them on every
   compile. *)

(* Bottom-up rewriting that rebuilds a node only when a child actually
   changed; otherwise the original node comes back, so enclosing rewrites
   preserve sharing too. A list whose elements all come back physically
   unchanged is returned itself. This sharing is what the pipelining pass
   relies on to avoid rebuilding untouched subtrees. *)
let rec map f stmt =
  let stmt' =
    match stmt with
    | Seq ss ->
      let ss' = map_list f ss in
      if ss' == ss then stmt else Seq ss'
    | For r ->
      let body = map f r.body in
      if body == r.body then stmt else For { r with body }
    | Alloc r ->
      let body = map f r.body in
      if body == r.body then stmt else Alloc { r with body }
    | If r ->
      let then_ = map f r.then_ in
      if then_ == r.then_ then stmt else If { r with then_ }
    | Copy _ | Fill _ | Mma _ | Unop _ | Accum _ | Sync _ -> stmt
  in
  f stmt'

and map_list f l =
  match l with
  | [] -> l
  | x :: tl ->
    let x' = map f x in
    let tl' = map_list f tl in
    if x' == x && tl' == tl then l else x' :: tl'

let rec fold f acc stmt =
  let acc = f acc stmt in
  match stmt with
  | Seq ss -> List.fold_left (fold f) acc ss
  | For { body; _ } | Alloc { body; _ } | If { then_ = body; _ } ->
    fold f acc body
  | Copy _ | Fill _ | Mma _ | Unop _ | Accum _ | Sync _ -> acc

let allocs stmt =
  List.rev
    (fold
       (fun acc s -> match s with Alloc { buffer; _ } -> buffer :: acc | _ -> acc)
       [] stmt)

(* The first allocation of [name] in program (pre-)order. *)
let rec find_alloc stmt name =
  match stmt with
  | Alloc { buffer; body } ->
    if String.equal buffer.Buffer.name name then Some buffer
    else find_alloc body name
  | Seq ss -> find_alloc_list ss name
  | For { body; _ } | If { then_ = body; _ } -> find_alloc body name
  | Copy _ | Fill _ | Mma _ | Unop _ | Accum _ | Sync _ -> None

and find_alloc_list ss name =
  match ss with
  | [] -> None
  | s :: rest ->
    (match find_alloc s name with
     | Some _ as found -> found
     | None -> find_alloc_list rest name)

let loop_vars stmt =
  List.rev
    (fold
       (fun acc s -> match s with For { var; _ } -> var :: acc | _ -> acc)
       [] stmt)

(* Substitute an index variable throughout all expressions of a statement.
   Sharing-preserving, like [map]: subtrees that never mention the
   variable come back physically unchanged. *)
let subst_slice name replacement s =
  let offset = Expr.subst name replacement s.offset in
  if offset == s.offset then s else { s with offset }

let rec subst_slices name replacement l =
  match l with
  | [] -> l
  | s :: tl ->
    let s' = subst_slice name replacement s in
    let tl' = subst_slices name replacement tl in
    if s' == s && tl' == tl then l else s' :: tl'

let subst_region name replacement r =
  let slices = subst_slices name replacement r.slices in
  if slices == r.slices then r else { r with slices }

let rec subst_var name replacement stmt =
  match stmt with
  | Seq ss ->
    let ss' = subst_list name replacement ss in
    if ss' == ss then stmt else Seq ss'
  | For r ->
    let body = subst_var name replacement r.body in
    let extent = Expr.subst name replacement r.extent in
    if body == r.body && extent == r.extent then stmt
    else For { r with body; extent }
  | Alloc r ->
    let body = subst_var name replacement r.body in
    if body == r.body then stmt else Alloc { r with body }
  | If r ->
    let then_ = subst_var name replacement r.then_ in
    let c = r.cond in
    let lhs = Expr.subst name replacement c.lhs in
    let rhs = Expr.subst name replacement c.rhs in
    let cond = if lhs == c.lhs && rhs == c.rhs then c else { c with lhs; rhs } in
    if then_ == r.then_ && cond == c then stmt else If { cond; then_ }
  | Copy c ->
    let dst = subst_region name replacement c.dst in
    let src = subst_region name replacement c.src in
    if dst == c.dst && src == c.src then stmt else Copy { c with dst; src }
  | Fill f ->
    let dst = subst_region name replacement f.dst in
    if dst == f.dst then stmt else Fill { f with dst }
  | Mma m ->
    let c = subst_region name replacement m.c in
    let a = subst_region name replacement m.a in
    let b = subst_region name replacement m.b in
    if c == m.c && a == m.a && b == m.b then stmt else Mma { c; a; b }
  | Unop u ->
    let dst = subst_region name replacement u.dst in
    let src = subst_region name replacement u.src in
    if dst == u.dst && src == u.src then stmt else Unop { u with dst; src }
  | Accum a ->
    let dst = subst_region name replacement a.dst in
    let src = subst_region name replacement a.src in
    if dst == a.dst && src == a.src then stmt else Accum { dst; src }
  | Sync _ -> stmt

and subst_list name replacement l =
  match l with
  | [] -> l
  | s :: tl ->
    let s' = subst_var name replacement s in
    let tl' = subst_list name replacement tl in
    if s' == s && tl' == tl then l else s' :: tl'

(* --- Statistics used by tests and the simulator --- *)

let count pred stmt = fold (fun acc s -> if pred s then acc + 1 else acc) 0 stmt

let count_copies ?kind stmt =
  count
    (function
      | Copy c -> (match kind with None -> true | Some k -> c.kind = k)
      | _ -> false)
    stmt

let count_syncs stmt = count (function Sync _ -> true | _ -> false) stmt

let count_mmas stmt = count (function Mma _ -> true | _ -> false) stmt

(* --- Pretty printing (paper Fig. 7 style) --- *)

let binding_to_string = function
  | Block_x -> "blockIdx.x"
  | Block_y -> "blockIdx.y"
  | Block_z -> "blockIdx.z"
  | Warp_x -> "warpIdx.x"
  | Warp_y -> "warpIdx.y"

let cmp_to_string = function
  | Eq -> "=="
  | Ne -> "!="
  | Lt -> "<"
  | Le -> "<="

let pp_slice fmt s =
  if s.len = 1 then Format.fprintf fmt "%a" Expr.pp s.offset
  else if Expr.equal s.offset Expr.zero then Format.fprintf fmt "0:%d" s.len
  else Format.fprintf fmt "%a:+%d" Expr.pp s.offset s.len

let pp_region fmt r =
  Format.fprintf fmt "%s[%a]" r.buffer
    (Format.pp_print_list
       ~pp_sep:(fun fmt () -> Format.pp_print_string fmt ", ")
       pp_slice)
    r.slices

let pp_cond fmt c =
  Format.fprintf fmt "%a %s %a" Expr.pp c.lhs (cmp_to_string c.cmp) Expr.pp c.rhs

let rec pp fmt stmt =
  match stmt with
  | Seq ss ->
    Format.pp_print_list
      ~pp_sep:(fun fmt () -> Format.pp_print_cut fmt ())
      pp fmt ss
  | For { var; extent; kind; body } ->
    let prefix =
      match kind with
      | Sequential -> ""
      | Parallel b -> Printf.sprintf " @%s" (binding_to_string b)
      | Unrolled -> " unroll"
    in
    Format.fprintf fmt "@[<v 2>for%s %s in 0 .. %a:@,%a@]" prefix var Expr.pp
      extent pp body
  | Alloc { buffer; body } ->
    Format.fprintf fmt "@[<v>alloc %a@,%a@]" Buffer.pp buffer pp body
  | If { cond; then_ } ->
    Format.fprintf fmt "@[<v 2>if %a:@,%a@]" pp_cond cond pp then_
  | Copy { kind; dst; src; fused } ->
    let name =
      match kind with Sync_copy -> "memcpy" | Async_copy -> "async_memcpy"
    in
    let fused_str = match fused with None -> "" | Some f -> " with " ^ f in
    Format.fprintf fmt "%s(%a, %a)%s" name pp_region dst pp_region src fused_str
  | Fill { dst; value } ->
    Format.fprintf fmt "fill(%a, %g)" pp_region dst value
  | Mma { c; a; b } ->
    Format.fprintf fmt "mma(%a += %a * %a)" pp_region c pp_region a pp_region b
  | Unop { dst; src; op } ->
    Format.fprintf fmt "%s(%a, %a)" op pp_region dst pp_region src
  | Accum { dst; src } ->
    Format.fprintf fmt "accum(%a += %a)" pp_region dst pp_region src
  | Sync s ->
    (match s with
     | Barrier -> Format.pp_print_string fmt "__syncthreads()"
     | Producer_acquire b -> Format.fprintf fmt "%s.producer_acquire()" b
     | Producer_commit b -> Format.fprintf fmt "%s.producer_commit()" b
     | Consumer_wait b -> Format.fprintf fmt "%s.consumer_wait()" b
     | Consumer_release b -> Format.fprintf fmt "%s.consumer_release()" b)

let to_string stmt = Format.asprintf "@[<v>%a@]" pp stmt
