(* Structural validation of kernels.

   The pipelining pass relies on well-formed input (paper Sec. II calls this
   the "safety check of the preceding module"); [Lower.run] checks the
   lowered kernel and [Pass.run] the pipelined one, so a transformation bug
   that produces malformed programs is caught before the interpreter ever
   runs. Dynamic properties (indices in bounds, data races on asynchronous
   copies) are checked by the interpreter instead.

   Allocation contract: both checks run on every compile, so on a
   well-formed kernel the walk allocates only the scope stacks, one list
   cell per enclosing loop variable and per allocated buffer. Every helper
   is a top-level function taking the scopes as arguments (no closures, no
   environment record), a buffer lookup answers with the scope's list cell
   rather than an option, and shape checks walk the slices in place instead
   of building squeezed-length lists. An error record, and any list its
   message needs (free variables of an offending expression), is built only
   once a check has failed. Errors are reported in traversal order. *)

type error = {
  context : string;
  message : string;
}

let error context fmt = Format.kasprintf (fun message -> { context; message }) fmt

let pp_error fmt e = Format.fprintf fmt "[%s] %s" e.context e.message

exception Invalid of error list

(* --- scopes ---

   [vars] holds the enclosing loop variables, innermost first. [allocs]
   holds the enclosing allocations, innermost first; the kernel's inputs
   and then its outputs are searched after them. *)

(* The list cell whose head declares [name], or [] when none does. *)
let rec find_cell name = function
  | [] -> []
  | (b : Buffer.t) :: rest as cell ->
    if String.equal b.Buffer.name name then cell else find_cell name rest

let lookup (k : Kernel.t) allocs name =
  match find_cell name allocs with
  | [] ->
    (match find_cell name k.Kernel.inputs with
     | [] -> find_cell name k.Kernel.outputs
     | cell -> cell)
  | cell -> cell

let declared k allocs name =
  match lookup k allocs name with [] -> false | _ :: _ -> true

let rec all_vars_bound vars e =
  match e with
  | Expr.Const _ -> true
  | Expr.Var v -> Names.mem v vars
  | Expr.Add (a, b) | Expr.Sub (a, b) | Expr.Mul (a, b) | Expr.Div (a, b)
  | Expr.Mod (a, b) | Expr.Min (a, b) | Expr.Max (a, b) ->
    all_vars_bound vars a && all_vars_bound vars b

(* Error path only: an error per variable of [vs] (in order) that [vars]
   does not bind. *)
let unbound vars errs vs report =
  List.fold_left
    (fun errs v -> if Names.mem v vars then errs else report v :: errs)
    errs vs

(* --- regions --- *)

let rec check_lens ~context name errs (slices : Stmt.slice list) dims =
  match slices, dims with
  | s :: slices, dim :: dims ->
    let errs =
      if s.Stmt.len <= 0 then
        error context "region on %s has non-positive slice length %d" name
          s.Stmt.len
        :: errs
      else if s.Stmt.len > dim then
        error context "region on %s has slice length %d > dimension %d" name
          s.Stmt.len dim
        :: errs
      else errs
    in
    check_lens ~context name errs slices dims
  | _ -> errs

let rec check_offsets ~context name vars errs (slices : Stmt.slice list) =
  match slices with
  | [] -> errs
  | s :: slices ->
    let errs =
      if all_vars_bound vars s.Stmt.offset then errs
      else
        unbound vars errs (Expr.free_vars s.Stmt.offset)
          (error context "region on %s uses unbound variable %s" name)
    in
    check_offsets ~context name vars errs slices

let check_region k vars allocs ~context errs (r : Stmt.region) =
  let name = r.Stmt.buffer in
  match lookup k allocs name with
  | [] -> error context "region references undeclared buffer %s" name :: errs
  | b :: _ ->
    let rank = List.length r.Stmt.slices in
    let errs =
      if rank <> Buffer.rank b then
        error context "region on %s has rank %d but buffer has rank %d" name
          rank (Buffer.rank b)
        :: errs
      else check_lens ~context name errs r.Stmt.slices b.Buffer.shape
    in
    check_offsets ~context name vars errs r.Stmt.slices

(* Squeezed lengths (lengths other than 1) read in place: how many a region
   has, and the [i]-th of them. *)
let rec squeezed_rank acc (slices : Stmt.slice list) =
  match slices with
  | [] -> acc
  | s :: slices -> squeezed_rank (if s.Stmt.len = 1 then acc else acc + 1) slices

let rec squeezed_len i (slices : Stmt.slice list) =
  match slices with
  | [] -> invalid_arg "Validate.squeezed_len"
  | s :: slices ->
    if s.Stmt.len = 1 then squeezed_len i slices
    else if i = 0 then s.Stmt.len
    else squeezed_len (i - 1) slices

let squeezed_2d (r : Stmt.region) = squeezed_rank 0 r.Stmt.slices = 2
let dim (r : Stmt.region) i = squeezed_len i r.Stmt.slices

(* Both regions declared but of incompatible shapes. *)
let shapes_clash k allocs ~dst ~src =
  declared k allocs dst.Stmt.buffer
  && declared k allocs src.Stmt.buffer
  && not (Stmt.copy_shapes_compatible ~dst ~src)

let check_mma_scope k allocs errs (r : Stmt.region) =
  match lookup k allocs r.Stmt.buffer with
  | { Buffer.scope = Buffer.Global | Buffer.Shared; _ } :: _ ->
    error "mma" "operand %s must live in register scope" r.Stmt.buffer :: errs
  | { Buffer.scope = Buffer.Register; _ } :: _ | [] -> errs

(* --- statements --- *)

let rec check_stmt k vars allocs errs stmt =
  match stmt with
  | Stmt.Seq ss -> check_stmts k vars allocs errs ss
  | Stmt.For { var; extent; body; _ } ->
    let errs =
      if Names.mem var vars then
        error "for" "loop variable %s shadows an enclosing binding" var :: errs
      else errs
    in
    let errs =
      if all_vars_bound vars extent then errs
      else
        unbound vars errs (Expr.free_vars extent)
          (error "for" "extent of loop %s uses unbound variable %s" var)
    in
    check_stmt k (var :: vars) allocs errs body
  | Stmt.Alloc { buffer; body } ->
    let errs =
      if declared k allocs buffer.Buffer.name then
        error "alloc" "buffer %s is declared twice" buffer.Buffer.name :: errs
      else errs
    in
    check_stmt k vars (buffer :: allocs) errs body
  | Stmt.If { cond; then_ } ->
    let errs =
      if all_vars_bound vars cond.Stmt.lhs && all_vars_bound vars cond.Stmt.rhs
      then errs
      else
        unbound vars errs
          (Expr.free_vars cond.Stmt.lhs @ Expr.free_vars cond.Stmt.rhs)
          (error "if" "condition uses unbound variable %s")
    in
    check_stmt k vars allocs errs then_
  | Stmt.Copy { kind; dst; src; fused } ->
    let errs = check_region k vars allocs ~context:"copy" errs dst in
    let errs = check_region k vars allocs ~context:"copy" errs src in
    let errs =
      if shapes_clash k allocs ~dst ~src then
        error "copy" "incompatible shapes: %s <- %s" dst.Stmt.buffer
          src.Stmt.buffer
        :: errs
      else errs
    in
    (match kind with
     | Stmt.Sync_copy -> errs
     | Stmt.Async_copy ->
       let errs =
         match fused with
         | Some f ->
           (* Paper Fig. 5: a fused element-wise op forces the copy to be
              synchronous; an async copy cannot carry computation. *)
           error "copy" "asynchronous copy cannot carry fused op %s" f :: errs
         | None -> errs
       in
       (match lookup k allocs dst.Stmt.buffer with
        | { Buffer.scope = Buffer.Global; _ } :: _ ->
          (* cp.async writes shared memory; register "async" copies are
             ordinary loads issued early by software pipelining. Global
             destinations cannot be produced asynchronously. *)
          error "copy" "asynchronous copy destination %s is in global scope"
            dst.Stmt.buffer
          :: errs
        | { Buffer.scope = Buffer.Shared | Buffer.Register; _ } :: _ | [] ->
          errs))
  | Stmt.Fill { dst; _ } -> check_region k vars allocs ~context:"fill" errs dst
  | Stmt.Mma { c; a; b } ->
    let errs = check_region k vars allocs ~context:"mma" errs c in
    let errs = check_region k vars allocs ~context:"mma" errs a in
    let errs = check_region k vars allocs ~context:"mma" errs b in
    let errs = check_mma_scope k allocs errs c in
    let errs = check_mma_scope k allocs errs a in
    let errs = check_mma_scope k allocs errs b in
    (* Shape check: c[m,n] += a[m,k] * b[n,k] on squeezed shapes. *)
    if not (squeezed_2d c && squeezed_2d a && squeezed_2d b) then
      error "mma" "operands must be (squeezed) rank-2 regions" :: errs
    else if dim c 0 = dim a 0 && dim c 1 = dim b 0 && dim a 1 = dim b 1 then
      errs
    else
      error "mma" "shape mismatch: c[%d,%d] += a[%d,%d] * b[%d,%d]" (dim c 0)
        (dim c 1) (dim a 0) (dim a 1) (dim b 0) (dim b 1)
      :: errs
  | Stmt.Unop { dst; src; _ } ->
    let errs = check_region k vars allocs ~context:"unop" errs dst in
    let errs = check_region k vars allocs ~context:"unop" errs src in
    if shapes_clash k allocs ~dst ~src then
      error "unop" "incompatible shapes: %s <- %s" dst.Stmt.buffer src.Stmt.buffer
      :: errs
    else errs
  | Stmt.Accum { dst; src } ->
    let errs = check_region k vars allocs ~context:"accum" errs dst in
    let errs = check_region k vars allocs ~context:"accum" errs src in
    if shapes_clash k allocs ~dst ~src then
      error "accum" "incompatible shapes: %s += %s" dst.Stmt.buffer
        src.Stmt.buffer
      :: errs
    else errs
  | Stmt.Sync _ -> errs

and check_stmts k vars allocs errs = function
  | [] -> errs
  | s :: ss -> check_stmts k vars allocs (check_stmt k vars allocs errs s) ss

let check (k : Kernel.t) =
  match check_stmt k [] [] [] k.Kernel.body with
  | [] -> Ok ()
  | errs -> Error (List.rev errs)

let check_exn k =
  match check k with
  | Ok () -> ()
  | Error errs -> raise (Invalid errs)

let errors_to_string errs =
  String.concat "\n" (List.map (fun e -> Format.asprintf "%a" pp_error e) errs)
