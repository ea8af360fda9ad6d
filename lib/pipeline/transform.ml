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

(* Pipeline loop variables are unique per kernel, so deriving the prologue
   variable from the loop variable keeps names deterministic. *)
let prologue_var_of base = base ^ "_pro"

(* A region read/written in statement [s] mentions one of [names]. Used to
   find the using block of a group (analysis step 4). *)
let stmt_reads_any names stmt =
  let reads = ref false in
  let check (r : Stmt.region) = if Names.mem r.Stmt.buffer names then reads := true in
  Stmt.iter
    (fun s ->
      match s with
      | Stmt.Copy { src; _ } -> check src
      | Stmt.Mma { a; b; _ } -> check a; check b
      | Stmt.Unop { src; _ } -> check src
      | Stmt.Accum { dst; src } -> check dst; check src
      | Stmt.Seq _ | Stmt.For _ | Stmt.Alloc _ | Stmt.If _ | Stmt.Fill _
      | Stmt.Sync _ -> ())
    stmt;
  !reads

let is_member_copy names = function
  | Stmt.Copy { dst; _ } -> Names.mem dst.Stmt.buffer names
  | _ -> false

(* A statement belongs to the group's loading block if it contains one of
   the group's producing copies anywhere inside (e.g. nested under a
   partitioning loop). *)
let contains_member_copy names stmt =
  let found = ref false in
  Stmt.iter (fun s -> if is_member_copy names s then found := true) stmt;
  !found

let children_of = function
  | Stmt.Seq ss -> ss
  | s -> [ s ]

(* --- Index arithmetic of steps 2 and 3 --- *)

(* Rewrite the producing copy of a member of group [g].

   [shifted] is the unwrapped future iteration index (loop var + stages - 1
   in the steady state, or the prologue variable in the prologue).
   [outer] describes the producing group when this is an inner level:
   [`Fused (og, base)] rebuilds the outer stage index as
   [(base + shifted / extent) mod og.stages]; [`Kept] leaves the stage
   slice produced by the outer transformation untouched; [`None_] means the
   source is not a pipelined buffer. *)
let rewrite_producer_copy (g : Analysis.group) ~shifted ~dst_stage ~outer ~dst
    ~src =
  let n = g.Analysis.stages in
  let extent = Expr.const g.Analysis.loop_extent in
  let wrapped = Expr.modulo shifted extent in
  let shift_offset e = Expr.subst g.Analysis.loop_var wrapped e in
  let shift_slice (s : Stmt.slice) = { s with Stmt.offset = shift_offset s.Stmt.offset } in
  let src' =
    match outer with
    | `None_ | `Kept ->
      { src with Stmt.slices = List.map shift_slice src.Stmt.slices }
    | `Fused ((og : Analysis.group), base) ->
      (match src.Stmt.slices with
       | _stage_slice :: rest ->
         let carried =
           Expr.modulo
             (Expr.add base (Expr.div shifted extent))
             (Expr.const og.Analysis.stages)
         in
         { src with
           Stmt.slices = Stmt.point_slice carried :: List.map shift_slice rest }
       | [] -> src)
  in
  let dst' =
    { dst with
      Stmt.slices =
        Stmt.point_slice (Expr.modulo dst_stage (Expr.const n)) :: dst.Stmt.slices }
  in
  (dst', src')

(* Step 2+3 applied to the steady-state body of the pipeline loop: producing
   copies load [stages-1] iterations ahead; all other accesses to the
   group's buffers read stage [v mod stages]. *)
let rewrite_loop_body (analysis : Analysis.t) (g : Analysis.group) body =
  let names = Analysis.member_names g in
  let v = Expr.var g.Analysis.loop_var in
  let n = g.Analysis.stages in
  let shifted = Expr.add v (Expr.const (n - 1)) in
  (* Rolling stage indices. A fused inner pipeline runs holistically across
     outer iterations, so its ring position is the *global* fused iteration
     index u * extent + v — the local index alone is only correct when the
     stage count divides the loop extent (as in paper Fig. 7, where the
     u * extent term vanishes modulo the stage count). *)
  let ring_base =
    match
      Option.bind g.Analysis.outer (fun oid ->
          if g.Analysis.fused then Analysis.find_group analysis oid else None)
    with
    | Some og ->
      Expr.add
        (Expr.mul (Expr.var og.Analysis.loop_var)
           (Expr.const g.Analysis.loop_extent))
        v
    | None -> v
  in
  let ring_shifted = Expr.add ring_base (Expr.const (n - 1)) in
  let read_stage = Expr.modulo ring_base (Expr.const n) in
  let outer_mode src_buffer =
    match Analysis.group_of_buffer analysis src_buffer with
    | Some og when g.Analysis.fused && g.Analysis.outer = Some og.Analysis.id ->
      `Fused (og, Expr.var og.Analysis.loop_var)
    | Some _ -> `Kept
    | None -> `None_
  in
  let add_read_stage (r : Stmt.region) =
    if Names.mem r.Stmt.buffer names then
      { r with Stmt.slices = Stmt.point_slice read_stage :: r.Stmt.slices }
    else r
  in
  (* Leaves untouched by the group rewrite come back physically unchanged,
     so [Stmt.map] (sharing-preserving) leaves their spines alone too. *)
  let rewrite stmt =
    match stmt with
    | Stmt.Copy ({ dst; src; _ } as c) when Names.mem dst.Stmt.buffer names ->
      let dst', src' =
        rewrite_producer_copy g ~shifted ~dst_stage:ring_shifted
          ~outer:(outer_mode src.Stmt.buffer) ~dst ~src
      in
      Stmt.Copy { c with dst = dst'; src = src'; kind = Stmt.Async_copy }
    | Stmt.Copy c ->
      let src = add_read_stage c.src in
      if src == c.src then stmt else Stmt.Copy { c with src }
    | Stmt.Mma m ->
      let c = add_read_stage m.c in
      let a = add_read_stage m.a in
      let b = add_read_stage m.b in
      if c == m.c && a == m.a && b == m.b then stmt else Stmt.Mma { c; a; b }
    | Stmt.Unop u ->
      let src = add_read_stage u.src in
      if src == u.src then stmt else Stmt.Unop { u with src }
    | s -> s
  in
  Stmt.map rewrite body

(* Step 4: build the prologue of group [g] from the (pre-step-2/3) body of
   its pipeline loop. The skeleton keeps only the group's producing copies
   and the loop structure needed to reach them. [hoist] indicates a fused
   inner pipeline whose prologue runs once in front of the outermost loop,
   with the outer loop variable pinned to zero. *)
let build_prologue (analysis : Analysis.t) (g : Analysis.group) body =
  let names = Analysis.member_names g in
  let n = g.Analysis.stages in
  let pvar = prologue_var_of g.Analysis.loop_var in
  let shifted = Expr.var pvar in
  let fused_outer =
    match g.Analysis.outer with
    | Some oid when g.Analysis.fused -> Analysis.find_group analysis oid
    | _ -> None
  in
  let rec skeleton stmt =
    match stmt with
    | Stmt.Seq ss ->
      (match List.filter_map skeleton ss with
       | [] -> None
       | kept -> Some (Stmt.seq kept))
    | Stmt.For r ->
      Option.map (fun b -> Stmt.For { r with body = b }) (skeleton r.body)
    | Stmt.If r -> Option.map (fun b -> Stmt.If { r with then_ = b }) (skeleton r.then_)
    | Stmt.Alloc _ -> None
    | Stmt.Copy ({ dst; src; _ } as c) when Names.mem dst.Stmt.buffer names ->
      let outer =
        match fused_outer with
        | Some og -> `Fused (og, Expr.zero)
        | None ->
          (match Analysis.group_of_buffer analysis src.Stmt.buffer with
           | Some _ -> `Kept
           | None -> `None_)
      in
      let dst', src' =
        rewrite_producer_copy g ~shifted ~dst_stage:shifted ~outer ~dst ~src
      in
      Some (Stmt.Copy { c with dst = dst'; src = src'; kind = Stmt.Async_copy })
    | Stmt.Copy _ | Stmt.Fill _ | Stmt.Mma _ | Stmt.Unop _ | Stmt.Accum _
    | Stmt.Sync _ -> None
  in
  let loads =
    match skeleton body with
    | Some s -> s
    | None -> Stmt.seq []
  in
  let loads =
    (* A hoisted prologue runs before the outer loop starts: pin the outer
       loop variable to its first iteration. *)
    match fused_outer with
    | Some og -> Stmt.subst_var og.Analysis.loop_var Expr.zero loads
    | None -> loads
  in
  let loads =
    if g.Analysis.synchronized then
      Stmt.seq
        [ Stmt.Sync (Stmt.Producer_acquire g.Analysis.id);
          loads;
          Stmt.Sync (Stmt.Producer_commit g.Analysis.id) ]
    else loads
  in
  Stmt.For { var = pvar; extent = Expr.const (n - 1); kind = Stmt.Sequential;
             body = loads }

(* Step 5 for a synchronized group: guard the loading block with producer
   primitives, place consumer_wait before the first user and
   consumer_release after the last, and drop the plain barriers of the
   unpipelined program. [boundary_wait] carries the inner-fusion variant:
   the wait condition moves into the fused inner loop and only the release
   stays at the end of the body (paper Fig. 7 lines 19-22 and 30). *)
let inject_sync (g : Analysis.group) ~fused_inner body =
  let names = Analysis.member_names g in
  let children = children_of body in
  let children =
    List.filter (fun s -> match s with Stmt.Sync Stmt.Barrier -> false | _ -> true)
      children
  in
  (* Wrap the contiguous run of children containing producing copies. *)
  let rec wrap_producers acc = function
    | [] -> List.rev acc
    | s :: rest when contains_member_copy names s ->
      let run, rest' =
        let rec take run = function
          | x :: r when contains_member_copy names x -> take (x :: run) r
          | r -> (List.rev run, r)
        in
        take [ s ] rest
      in
      List.rev_append acc
        ((Stmt.Sync (Stmt.Producer_acquire g.Analysis.id) :: run)
         @ [ Stmt.Sync (Stmt.Producer_commit g.Analysis.id) ]
         @ wrap_producers [] rest')
    | s :: rest -> wrap_producers (s :: acc) rest
  in
  let children = wrap_producers [] children in
  let children =
    if fused_inner then children
    else begin
      (* consumer_wait before the first child that reads the group. *)
      let rec add_wait = function
        | [] -> []
        | s :: rest when stmt_reads_any names s ->
          Stmt.Sync (Stmt.Consumer_wait g.Analysis.id) :: s :: rest
        | s :: rest -> s :: add_wait rest
      in
      add_wait children
    end
  in
  (* consumer_release after the last child that reads the group; with a
     fused inner pipeline the release closes the whole body. *)
  let children =
    if fused_inner then children @ [ Stmt.Sync (Stmt.Consumer_release g.Analysis.id) ]
    else begin
      let rec add_release = function
        | [] -> []
        | s :: rest ->
          if List.exists (stmt_reads_any names) rest then s :: add_release rest
          else if stmt_reads_any names s then
            s :: Stmt.Sync (Stmt.Consumer_release g.Analysis.id) :: rest
          else s :: add_release rest
      in
      add_release children
    end
  in
  Stmt.seq children

(* The boundary consumer_wait of a fused inner pipeline: executed inside the
   inner loop when the prefetch crosses into the next outer stage. *)
let boundary_wait (outer : Analysis.group) (inner : Analysis.group) =
  let boundary = inner.Analysis.loop_extent - (inner.Analysis.stages - 1) in
  Stmt.If
    { cond =
        { Stmt.lhs = Expr.var inner.Analysis.loop_var;
          cmp = Stmt.Eq;
          rhs = Expr.const boundary };
      then_ = Stmt.Sync (Stmt.Consumer_wait outer.Analysis.id) }

(* Step 1: prepend the stage dimension to every pipelined buffer. *)
let expand_allocs (analysis : Analysis.t) body =
  let rewrite stmt =
    match stmt with
    | Stmt.Alloc { buffer; body } ->
      (match Analysis.group_of_buffer analysis buffer.Buffer.name with
       | Some g ->
         Stmt.Alloc { buffer = Buffer.with_stage_dim g.Analysis.stages buffer; body }
       | None -> stmt)
    | s -> s
  in
  Stmt.map rewrite body

(* --- Top-down driver --- *)

let run (analysis : Analysis.t) (kernel : Kernel.t) =
  if analysis.Analysis.groups = [] then kernel
  else begin
    let group_for_loop var =
      List.find_opt
        (fun (g : Analysis.group) -> String.equal g.Analysis.loop_var var)
        analysis.Analysis.groups
    in
    let fused_inner_of (g : Analysis.group) =
      List.find_opt
        (fun (i : Analysis.group) ->
          i.Analysis.fused && i.Analysis.outer = Some g.Analysis.id)
        analysis.Analysis.groups
    in
    (* Returns the rewritten statement plus prologue statements that must be
       hoisted in front of the enclosing (outer) pipeline loop. *)
    let rec rewrite stmt : Stmt.t * Stmt.t list =
      match stmt with
      | Stmt.For r ->
        (match group_for_loop r.var with
         | None ->
           let body', hoisted = rewrite r.body in
           let stmt' =
             if body' == r.body then stmt else Stmt.For { r with body = body' }
           in
           (stmt', hoisted)
         | Some g ->
           let prologue = build_prologue analysis g r.body in
           let body = rewrite_loop_body analysis g r.body in
           (* Recurse for inner pipeline levels. *)
           let body, hoisted_inner = rewrite body in
           let fused_inner = fused_inner_of g in
           let body =
             if g.Analysis.synchronized then
               inject_sync g ~fused_inner:(fused_inner <> None) body
             else body
           in
           let body =
             match fused_inner with
             | None -> body
             | Some inner ->
               (* The boundary wait goes in front of the inner loop's other
                  statements, as a direct child of the inner loop body. *)
               let add_boundary = function
                 | Stmt.For fr when String.equal fr.var inner.Analysis.loop_var ->
                   Stmt.For
                     { fr with
                       body = Stmt.seq [ boundary_wait g inner; fr.body ] }
                 | s -> s
               in
               Stmt.map add_boundary body
           in
           let loop = Stmt.For { r with body } in
           if g.Analysis.fused && g.Analysis.outer <> None then
             (* Hoist this group's prologue (and anything hoisted through
                us) in front of the outer pipeline loop. The hoisted
                prologue reads the outer group's first stage, so a wait for
                it must run first when the outer group is synchronized. *)
             let wait_outer =
               match
                 Option.bind g.Analysis.outer (Analysis.find_group analysis)
               with
               | Some og when og.Analysis.synchronized ->
                 [ Stmt.Sync (Stmt.Consumer_wait og.Analysis.id) ]
               | Some _ | None -> []
             in
             (loop, hoisted_inner @ wait_outer @ [ prologue ])
           else
             (* This group's own prologue runs first (it issues the loads
                the hoisted inner prologue will wait on), then the material
                hoisted out of inner levels, then the steady-state loop. *)
             (Stmt.seq ((prologue :: hoisted_inner) @ [ loop ]), []))
      | Stmt.Seq ss ->
        let ss', hoisted =
          List.fold_left
            (fun (acc, hs) s ->
              let s', h = rewrite s in
              (s' :: acc, hs @ h))
            ([], []) ss
        in
        let ss' = List.rev ss' in
        let stmt' =
          if hoisted = [] && List.for_all2 (fun a b -> a == b) ss ss' then stmt
          else Stmt.seq ss'
        in
        (stmt', hoisted)
      | Stmt.Alloc r ->
        let body', hoisted = rewrite r.body in
        let stmt' =
          if body' == r.body then stmt else Stmt.Alloc { r with body = body' }
        in
        (stmt', hoisted)
      | Stmt.If r ->
        let then', hoisted = rewrite r.then_ in
        let stmt' =
          if then' == r.then_ then stmt else Stmt.If { r with then_ = then' }
        in
        (stmt', hoisted)
      | Stmt.Copy _ | Stmt.Fill _ | Stmt.Mma _ | Stmt.Unop _ | Stmt.Accum _
      | Stmt.Sync _ ->
        (stmt, [])
    in
    let body, hoisted = rewrite kernel.Kernel.body in
    assert (hoisted = []);
    let body = expand_allocs analysis body in
    Kernel.map_body (fun _ -> body) kernel
  end
