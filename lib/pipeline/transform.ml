(* Transformation phase of the pipelining pass (paper Sec. III-B).

   For every pipeline group found by {!Analysis} the five steps are applied:

   1. buffer expansion      -- a stage dimension is prepended to the buffer;
   2. index shifting        -- the producing copy loads [stages-1]
                               iterations ahead;
   3. buffer rolling and out-of-bound wrapping -- stage indices are taken
      modulo the stage count and shifted source indices modulo the loop
      extent; in a fused multi-level pipeline the inner overflow carries
      into the outer pipeline's stage index (paper Fig. 7 line 26);
   4. prologue injection    -- the first [stages-1] chunks are loaded ahead
      of the loop; the prologue of a fused inner pipeline is hoisted in
      front of the outermost pipeline loop to build a holistic pipeline
      (paper Fig. 3d);
   5. synchronization injection -- scope-synchronized groups (shared
      memory) are guarded by producer_acquire / producer_commit around the
      loading block and consumer_wait / consumer_release around the using
      block; plain barriers of the unpipelined program are removed.

   The tree is processed top-down; when the traversal reaches the [For]
   node of a group's load-and-use loop, outer groups have already been
   rewritten, so the group's copies already carry the outer stage index. *)

open Alcop_ir

(* Allocation: a compile runs this pass once, so it builds the nodes of
   the kernel it returns and little else. Untouched subtrees come back
   physically shared ([Stmt.map], [Stmt.subst_var] and [Expr.subst]
   preserve sharing), lookups recurse by hand instead of taking closures,
   and expressions and slices that several rewritten statements use are
   built once per group and shared. *)

(* Pipeline loop variables are unique per kernel, so deriving the prologue
   variable from the loop variable keeps names deterministic. *)
let prologue_var_of base = base ^ "_pro"

let rec group_for_loop var = function
  | [] -> None
  | (g : Analysis.group) :: rest ->
    if String.equal g.Analysis.loop_var var then Some g
    else group_for_loop var rest

let outer_is (i : Analysis.group) id =
  match i.Analysis.outer with Some o -> String.equal o id | None -> false

(* The inner group fused with [g]. *)
let rec fused_inner_of (g : Analysis.group) = function
  | [] -> None
  | (i : Analysis.group) :: rest ->
    if i.Analysis.fused && outer_is i g.Analysis.id then Some i
    else fused_inner_of g rest

(* The outer group [g] is fused with. *)
let fused_outer (analysis : Analysis.t) (g : Analysis.group) =
  match g.Analysis.outer with
  | Some oid when g.Analysis.fused -> Analysis.find_group analysis oid
  | Some _ | None -> None

(* Stage count of the group a buffer belongs to; 0 if it is not pipelined. *)
let rec stages_of name = function
  | [] -> 0
  | (g : Analysis.group) :: rest ->
    if Analysis.mem_buffer g name then g.Analysis.stages else stages_of name rest

let acquire id = Stmt.Sync (Stmt.Producer_acquire id)
let commit id = Stmt.Sync (Stmt.Producer_commit id)
let wait id = Stmt.Sync (Stmt.Consumer_wait id)
let release id = Stmt.Sync (Stmt.Consumer_release id)

(* --- Index arithmetic of steps 2 and 3 --- *)

(* How one context (the steady-state body or the prologue) rewrites the
   producing copies of a group: the loop variable is replaced by
   [wrapped], the wrapped future iteration, in source offsets; the
   destination gains the stage slice [dst_stage]; and in a fused inner
   level the source's own stage slice becomes [carried], the outer stage
   the inner overflow carries into (paper Fig. 7 line 26). *)
type producer = {
  loop_var : string;
  wrapped : Expr.t;
  dst_stage : Stmt.slice;
  carried : Stmt.slice option;
}

(* [shifted] is the unwrapped future iteration index (loop var + stages -
   1 in the steady state, or the prologue variable in the prologue);
   [outer] is the fused outer group, whose stage index is rebuilt as
   [(base + shifted / extent) mod outer.stages]. *)
let producer (g : Analysis.group) ~shifted ~dst_stage ~outer ~base =
  let extent = Expr.const g.Analysis.loop_extent in
  { loop_var = g.Analysis.loop_var;
    wrapped = Expr.modulo shifted extent;
    dst_stage =
      Stmt.point_slice (Expr.modulo dst_stage (Expr.const g.Analysis.stages));
    carried =
      (match outer with
       | None -> None
       | Some (og : Analysis.group) ->
         Some
           (Stmt.point_slice
              (Expr.modulo
                 (Expr.add base (Expr.div shifted extent))
                 (Expr.const og.Analysis.stages)))) }

(* Rewrite one producing copy. [fused] says its source is the fused outer
   group's buffer, whose stage slice is replaced by [p.carried]; any other
   source only has its offsets shifted. *)
let producer_copy p ~fused stmt =
  match stmt with
  | Stmt.Copy c ->
    let src = c.src in
    let src =
      match p.carried, src.Stmt.slices with
      | Some carried, _stage :: rest when fused ->
        { src with
          Stmt.slices = carried :: Stmt.subst_slices p.loop_var p.wrapped rest }
      | _ ->
        let slices = Stmt.subst_slices p.loop_var p.wrapped src.Stmt.slices in
        if slices == src.Stmt.slices then src else { src with Stmt.slices }
    in
    let dst = { c.dst with Stmt.slices = p.dst_stage :: c.dst.Stmt.slices } in
    Stmt.Copy { c with dst; src; kind = Stmt.Async_copy }
  | s -> s

(* Step 2+3 applied to the steady-state body of the pipeline loop: producing
   copies load [stages-1] iterations ahead; all other accesses to the
   group's buffers read stage [v mod stages]. *)
type body_rewrite = {
  group : Analysis.group;
  loads : producer;
  outer : Analysis.group option;  (** the fused outer group *)
  read_stage : Stmt.slice;
}

let add_read_stage b (r : Stmt.region) =
  if Analysis.mem_buffer b.group r.Stmt.buffer then
    { r with Stmt.slices = b.read_stage :: r.Stmt.slices }
  else r

(* Leaves untouched by the group rewrite come back physically unchanged,
   so [Stmt.map] (sharing-preserving) leaves their spines alone too. *)
let rewrite_body_stmt b stmt =
  match stmt with
  | Stmt.Copy c when Analysis.mem_buffer b.group c.dst.Stmt.buffer ->
    let fused =
      match b.outer with
      | Some og -> Analysis.mem_buffer og c.src.Stmt.buffer
      | None -> false
    in
    producer_copy b.loads ~fused stmt
  | Stmt.Copy c ->
    let src = add_read_stage b c.src in
    if src == c.src then stmt else Stmt.Copy { c with src }
  | Stmt.Mma m ->
    let c = add_read_stage b m.c in
    let a = add_read_stage b m.a in
    let bb = add_read_stage b m.b in
    if c == m.c && a == m.a && bb == m.b then stmt else Stmt.Mma { c; a; b = bb }
  | Stmt.Unop u ->
    let src = add_read_stage b u.src in
    if src == u.src then stmt else Stmt.Unop { u with src }
  | s -> s

let rewrite_loop_body (analysis : Analysis.t) (g : Analysis.group) body =
  let n = g.Analysis.stages in
  let v = Expr.var g.Analysis.loop_var in
  let shifted = Expr.add v (Expr.const (n - 1)) in
  let outer = fused_outer analysis g in
  (* Rolling stage indices. A fused inner pipeline runs holistically across
     outer iterations, so its ring position is the *global* fused iteration
     index u * extent + v — the local index alone is only correct when the
     stage count divides the loop extent (as in paper Fig. 7, where the
     u * extent term vanishes modulo the stage count). *)
  let outer_var, ring_base =
    match outer with
    | Some og ->
      let u = Expr.var og.Analysis.loop_var in
      (u, Expr.add (Expr.mul u (Expr.const g.Analysis.loop_extent)) v)
    | None -> (v, v)
  in
  let b =
    { group = g; outer;
      loads =
        producer g ~shifted
          ~dst_stage:(Expr.add ring_base (Expr.const (n - 1)))
          ~outer ~base:outer_var;
      read_stage = Stmt.point_slice (Expr.modulo ring_base (Expr.const n)) }
  in
  Stmt.map (rewrite_body_stmt b) body

(* Step 4: build the prologue of group [g] from the (pre-step-2/3) body of
   its pipeline loop. The skeleton keeps only the group's producing copies
   and the loop structure needed to reach them. A fused inner pipeline's
   prologue runs once in front of the outermost loop, with the outer loop
   variable pinned to zero. *)
let rec skeleton g p stmt =
  match stmt with
  | Stmt.Seq ss ->
    (match skeleton_list g p ss with [] -> None | kept -> Some (Stmt.seq kept))
  | Stmt.For r ->
    (match skeleton g p r.body with
     | Some body -> Some (Stmt.For { r with body })
     | None -> None)
  | Stmt.If r ->
    (match skeleton g p r.then_ with
     | Some then_ -> Some (Stmt.If { r with then_ })
     | None -> None)
  | Stmt.Copy c when Analysis.mem_buffer g c.dst.Stmt.buffer ->
    Some (producer_copy p ~fused:true stmt)
  | Stmt.Alloc _ | Stmt.Copy _ | Stmt.Fill _ | Stmt.Mma _ | Stmt.Unop _
  | Stmt.Accum _ | Stmt.Sync _ -> None

and skeleton_list g p = function
  | [] -> []
  | s :: rest ->
    (match skeleton g p s with
     | Some kept -> kept :: skeleton_list g p rest
     | None -> skeleton_list g p rest)

let build_prologue (analysis : Analysis.t) (g : Analysis.group) body =
  let pvar = prologue_var_of g.Analysis.loop_var in
  let shifted = Expr.var pvar in
  let outer = fused_outer analysis g in
  let p = producer g ~shifted ~dst_stage:shifted ~outer ~base:Expr.zero in
  let loads =
    match skeleton g p body with Some s -> s | None -> Stmt.seq []
  in
  let loads =
    (* A hoisted prologue runs before the outer loop starts: pin the outer
       loop variable to its first iteration. *)
    match outer with
    | Some og -> Stmt.subst_var og.Analysis.loop_var Expr.zero loads
    | None -> loads
  in
  let loads =
    if g.Analysis.synchronized then
      Stmt.seq [ acquire g.Analysis.id; loads; commit g.Analysis.id ]
    else loads
  in
  Stmt.For
    { var = pvar; extent = Expr.const (g.Analysis.stages - 1);
      kind = Stmt.Sequential; body = loads }

(* Step 5 for a synchronized group: guard the loading block with producer
   primitives, place consumer_wait before the first user and
   consumer_release after the last, and drop the plain barriers of the
   unpipelined program. With a fused inner pipeline the wait moves into
   the inner loop ([add_boundary]) and only the release stays, at the end
   of the body (paper Fig. 7 lines 19-22 and 30).

   [first] and [last] index the first and last child that reads the group
   (-1 if none); a barrier never reads, so indices over the children with
   barriers are as good as over those without. [in_run] says the previous
   kept child loads the group: a run of loading children is opened by an
   acquire and closed by a commit. *)
let rec first_reader g i = function
  | [] -> -1
  | c :: rest -> if Analysis.reads_group g c then i else first_reader g (i + 1) rest

let rec last_reader g i last = function
  | [] -> last
  | c :: rest ->
    last_reader g (i + 1) (if Analysis.reads_group g c then i else last) rest

let rec guard_children g ~fused_inner ~first ~last i in_run = function
  | [] ->
    let tail = if fused_inner then [ release g.Analysis.id ] else [] in
    if in_run then commit g.Analysis.id :: tail else tail
  | Stmt.Sync Stmt.Barrier :: rest ->
    guard_children g ~fused_inner ~first ~last (i + 1) in_run rest
  | c :: rest ->
    let load = Analysis.loads_group g c in
    let after = guard_children g ~fused_inner ~first ~last (i + 1) load rest in
    let after =
      if (not fused_inner) && i = last then release g.Analysis.id :: after
      else after
    in
    let out = c :: after in
    let out =
      if (not fused_inner) && i = first then wait g.Analysis.id :: out else out
    in
    let out = if load && not in_run then acquire g.Analysis.id :: out else out in
    if in_run && not load then commit g.Analysis.id :: out else out

let inject_sync (g : Analysis.group) ~fused_inner body =
  let children = match body with Stmt.Seq ss -> ss | s -> [ s ] in
  Stmt.seq
    (guard_children g ~fused_inner ~first:(first_reader g 0 children)
       ~last:(last_reader g 0 (-1) children) 0 false children)

(* The boundary consumer_wait of a fused inner pipeline: executed inside the
   inner loop when the prefetch crosses into the next outer stage. It goes
   in front of the inner loop's other statements, as a direct child of the
   inner loop body. *)
let add_boundary (outer : Analysis.group) (inner : Analysis.group) body =
  let boundary = inner.Analysis.loop_extent - (inner.Analysis.stages - 1) in
  let wait_at =
    Stmt.If
      { cond =
          { Stmt.lhs = Expr.var inner.Analysis.loop_var;
            cmp = Stmt.Eq;
            rhs = Expr.const boundary };
        then_ = wait outer.Analysis.id }
  in
  Stmt.map
    (function
      | Stmt.For fr when String.equal fr.var inner.Analysis.loop_var ->
        Stmt.For { fr with body = Stmt.seq [ wait_at; fr.body ] }
      | s -> s)
    body

(* --- Top-down driver ---

   [hoist] collects, newest first, the prologue statements that must be
   hoisted in front of the enclosing (outer) pipeline loop. Step 1 (buffer
   expansion) happens on the way: every [Alloc] of a pipelined buffer
   gains its stage dimension. *)

let rec rewrite (analysis : Analysis.t) hoist stmt =
  match stmt with
  | Stmt.For r ->
    (match group_for_loop r.var analysis.Analysis.groups with
     | None ->
       let body = rewrite analysis hoist r.body in
       if body == r.body then stmt else Stmt.For { r with body }
     | Some g ->
       let prologue = build_prologue analysis g r.body in
       let body = rewrite_loop_body analysis g r.body in
       (* Recurse for inner pipeline levels. *)
       let enclosing = !hoist in
       hoist := [];
       let body = rewrite analysis hoist body in
       let inner_rev = !hoist in
       hoist := enclosing;
       let fused_inner = fused_inner_of g analysis.Analysis.groups in
       let body =
         if g.Analysis.synchronized then
           inject_sync g ~fused_inner:(Option.is_some fused_inner) body
         else body
       in
       let body =
         match fused_inner with
         | None -> body
         | Some inner -> add_boundary g inner body
       in
       let loop = Stmt.For { r with body } in
       if g.Analysis.fused && Option.is_some g.Analysis.outer then begin
         (* Hoist what was hoisted through us, then this group's prologue,
            in front of the outer pipeline loop. The hoisted prologue reads
            the outer group's first stage, so a wait for it must run first
            when the outer group is synchronized. *)
         let pushed = inner_rev @ !hoist in
         let pushed =
           match fused_outer analysis g with
           | Some og when og.Analysis.synchronized ->
             wait og.Analysis.id :: pushed
           | Some _ | None -> pushed
         in
         hoist := prologue :: pushed;
         loop
       end
       else
         (* This group's own prologue runs first (it issues the loads the
            hoisted inner prologue will wait on), then the material hoisted
            out of inner levels, then the steady-state loop. *)
         Stmt.seq (prologue :: List.rev_append inner_rev [ loop ]))
  | Stmt.Seq ss ->
    let before = !hoist in
    let ss' = rewrite_list analysis hoist ss in
    if ss' == ss && !hoist == before then stmt else Stmt.seq ss'
  | Stmt.Alloc r ->
    let body = rewrite analysis hoist r.body in
    let stages = stages_of r.buffer.Buffer.name analysis.Analysis.groups in
    if stages > 0 then
      Stmt.Alloc { buffer = Buffer.with_stage_dim stages r.buffer; body }
    else if body == r.body then stmt
    else Stmt.Alloc { r with body }
  | Stmt.If r ->
    let then_ = rewrite analysis hoist r.then_ in
    if then_ == r.then_ then stmt else Stmt.If { r with then_ }
  | Stmt.Copy _ | Stmt.Fill _ | Stmt.Mma _ | Stmt.Unop _ | Stmt.Accum _
  | Stmt.Sync _ -> stmt

and rewrite_list analysis hoist l =
  match l with
  | [] -> l
  | s :: tl ->
    let s' = rewrite analysis hoist s in
    let tl' = rewrite_list analysis hoist tl in
    if s' == s && tl' == tl then l else s' :: tl'

let run (analysis : Analysis.t) (kernel : Kernel.t) =
  match analysis.Analysis.groups with
  | [] -> kernel
  | _ :: _ ->
    let hoist = ref [] in
    let body = rewrite analysis hoist kernel.Kernel.body in
    assert (!hoist = []);
    { kernel with Kernel.body }
