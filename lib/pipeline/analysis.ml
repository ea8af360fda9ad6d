(* Analysis phase of the pipelining program transformation (paper
   Sec. III-A) plus re-verification of the legality rules of Sec. II-A.

   Given a kernel and the hints attached by the schedule transformation,
   this module:
   - locates the producing copy of each pipelined buffer (step 2),
   - determines the sequential load-and-use loop of each buffer (step 3),
   - groups buffers that share a pipeline loop into pipeline groups (the
     hardware has one scope-based barrier object per scope, paper rule 3),
   - derives the multi-level structure: which group feeds which (step 2's
     producer reconstruction), and whether inner-pipeline fusion applies.

   Steps 4 and 5 (load/use block boundaries and prologue positions) are
   structural and resolved during the transformation itself. *)

open Alcop_ir

type rejection = {
  buffer : string;
  rule : int;  (** which of the paper's three rules failed; 0 = structural *)
  reason : string;
}

exception Rejected of rejection

let reject buffer rule fmt =
  Format.kasprintf (fun reason -> raise (Rejected { buffer; rule; reason })) fmt

let pp_rejection fmt r =
  Format.fprintf fmt "cannot pipeline %s (rule %d): %s" r.buffer r.rule r.reason

(* One enclosing loop at a copy site, innermost first in a stack. *)
type frame = {
  var : string;
  extent : Expr.t;
  kind : Stmt.loop_kind;
}

type copy_site = {
  dst : Stmt.region;
  src : Stmt.region;
  fused : string option;
  stack : frame list;  (** enclosing loops, innermost first *)
}

type buffer_info = {
  buffer : Buffer.t;
  hint : Hints.hint;
  site : copy_site;
  loop_var : string;
  loop_extent : int;
  producer : string;
}

type group = {
  id : string;
  scope : Buffer.scope;
  loop_var : string;
  loop_extent : int;
  loop_depth : int;  (** number of loops enclosing the pipeline loop *)
  stages : int;
  members : buffer_info list;
  synchronized : bool;
  outer : string option;  (** id of the group producing this group's data *)
  fused : bool;  (** inner-pipeline fusion with [outer] (paper Fig. 3d) *)
}

type t = {
  groups : group list;  (** outermost first *)
}

let find_group t id = List.find_opt (fun g -> String.equal g.id id) t.groups

let group_of_buffer t name =
  List.find_opt
    (fun g ->
      List.exists (fun m -> String.equal m.buffer.Buffer.name name) g.members)
    t.groups

let member_names g = List.map (fun m -> m.buffer.Buffer.name) g.members

(* Bytes one pipeline stage of this group occupies: the sum of the
   pre-expansion member buffers. The transformation multiplies this by
   [stages] when it prepends the stage dimension, so this is the footprint
   the observatory compares occupancy high-water marks against. *)
let stage_footprint_bytes g =
  List.fold_left (fun acc m -> acc + Buffer.size_bytes m.buffer) 0 g.members

(* Collect the producing copies of all hinted buffers, with their loop
   stacks. *)
let collect_sites (hints : Hints.t) body =
  let sites = Names.Tbl.create 8 in
  let rec walk stack stmt =
    match stmt with
    | Stmt.Seq ss -> List.iter (walk stack) ss
    | Stmt.For { var; extent; kind; body } ->
      walk ({ var; extent; kind } :: stack) body
    | Stmt.Alloc { body; _ } -> walk stack body
    | Stmt.If { then_; _ } -> walk stack then_
    | Stmt.Copy { dst; src; fused; _ } ->
      if Hints.mem hints dst.Stmt.buffer then
        Names.Tbl.add sites dst.Stmt.buffer { dst; src; fused; stack }
    | Stmt.Fill _ | Stmt.Mma _ | Stmt.Unop _ | Stmt.Accum _ | Stmt.Sync _ -> ()
  in
  walk [] body;
  sites

let region_mentions_var (r : Stmt.region) v =
  List.exists (fun (s : Stmt.slice) -> Expr.mentions v s.Stmt.offset) r.Stmt.slices

(* Step 3: the sequential load-and-use loop. Starting from the producing
   copy, walk the enclosing loops from inside to outside; skip loops whose
   variable indexes into the buffer (the buffer is partitioned, not reused,
   along them); the first non-indexing loop must be sequential (paper
   rule 2). *)
let find_pipeline_loop buffer (site : copy_site) =
  let rec search = function
    | [] ->
      reject buffer 2
        "no sequential load-and-use loop: the buffer is loaded outside of \
         any reusing loop"
    | f :: rest ->
      if region_mentions_var site.dst f.var then search rest
      else (
        match f.kind with
        | Stmt.Sequential -> f
        | Stmt.Parallel _ ->
          reject buffer 2
            "the load-and-use loop %s is parallel (bound to %s); pipelining \
             requires a sequential loop"
            f.var
            (match f.kind with
             | Stmt.Parallel b -> Stmt.binding_to_string b
             | _ -> assert false)
        | Stmt.Unrolled ->
          reject buffer 2 "the load-and-use loop %s is unrolled" f.var)
  in
  search site.stack

(* Rule 3 sub-check: within a synchronized group, the producing copies must
   sit at matching synchronization positions: the direct children of the
   pipeline loop's body that contain them must form one contiguous run, and
   none of those children may also read the group (a loading block must be
   separable from the using block so one acquire/commit pair can guard
   it). *)
let check_sync_positions kernel (g : group) =
  let names = member_names g in
  let contains_member_copy stmt =
    let found = ref false in
    Stmt.iter
      (fun s ->
        match s with
        | Stmt.Copy { dst; _ } when Names.mem dst.Stmt.buffer names ->
          found := true
        | _ -> ())
      stmt;
    !found
  in
  let reads_member stmt =
    let found = ref false in
    let check (r : Stmt.region) =
      if Names.mem r.Stmt.buffer names then found := true
    in
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
    !found
  in
  let count_member_copies stmt =
    Stmt.count
      (function
        | Stmt.Copy { dst; _ } -> Names.mem dst.Stmt.buffer names
        | _ -> false)
      stmt
  in
  let check_children children =
    let flags = List.map contains_member_copy children in
    let mixed =
      List.exists2
        (fun is_load child -> is_load && reads_member child)
        flags children
    in
    let rec span seen_run in_run = function
      | [] -> true
      | true :: rest ->
        if seen_run && not in_run then false else span true true rest
      | false :: rest -> span seen_run false rest
    in
    (* all member copies inside the contiguous run of loading children *)
    let n_here =
      List.fold_left2
        (fun acc is_load child ->
          if is_load then acc + count_member_copies child else acc)
        0 flags children
    in
    (not mixed) && n_here = List.length names && span false false flags
  in
  let found = ref false in
  let ok = ref true in
  Stmt.iter
    (fun s ->
      match s with
      | Stmt.For { var; body; _ } when String.equal var g.loop_var ->
        found := true;
        let children = match body with Stmt.Seq ss -> ss | s -> [ s ] in
        if not (check_children children) then ok := false
      | _ -> ())
    kernel.Kernel.body;
  if not !found then ok := false;
  if not !ok then
    reject
      (String.concat "+" names)
      3
      "buffers share the %s synchronization scope but their barriers would \
       sit at distinct positions in loop %s"
      (Buffer.scope_to_string g.scope)
      g.loop_var

(* Rule 1 (asynchronous production) plus its structural preconditions: the
   buffer is declared, produced by exactly one memory copy, that copy
   carries no fused element-wise op (Fig. 5 case 1 forces such copies to be
   synchronous), and the buffer's scope has an asynchronous copy path on
   this hardware. *)
let check_rule1 ~(hw : Alcop_hw.Hw_config.t) kernel
    (sites : copy_site Names.Tbl.t) (h : Hints.hint) =
  let buffer =
    match Kernel.find_buffer kernel h.Hints.buffer with
    | Some b -> b
    | None -> reject h.Hints.buffer 0 "buffer is not declared"
  in
  if not (Alcop_hw.Hw_config.scope_is_async hw buffer.Buffer.scope) then
    reject h.Hints.buffer 1
      "scope %s has no asynchronous copy on %s"
      (Buffer.scope_to_string buffer.Buffer.scope)
      hw.Alcop_hw.Hw_config.name;
  let site =
    match Names.Tbl.find_all sites h.Hints.buffer with
    | [ s ] -> s
    | [] ->
      reject h.Hints.buffer 1
        "buffer is not produced by a memory copy"
    | _ ->
      reject h.Hints.buffer 0
        "buffer has multiple producing copies"
  in
  (match site.fused with
   | Some op ->
     reject h.Hints.buffer 1
       "producing copy carries fused op %s and is therefore not an \
        asynchronous memory copy" op
   | None -> ());
  (buffer, site)

(* Rule 2: the sequential load-and-use loop, with a constant extent. *)
let check_rule2 (h : Hints.hint) site =
  let loop = find_pipeline_loop h.Hints.buffer site in
  let loop_extent =
    match Expr.eval_const loop.extent with
    | Some e when e >= 1 -> e
    | _ ->
      reject h.Hints.buffer 0
        "extent of pipeline loop %s is not a positive constant"
        loop.var
  in
  (loop, loop_extent)

let info_of_hint ~hw kernel sites (h : Hints.hint) =
  let buffer, site = check_rule1 ~hw kernel sites h in
  let loop, loop_extent = check_rule2 h site in
  { buffer; hint = h; site; loop_var = loop.var;
    loop_extent; producer = site.src.Stmt.buffer }

(* Rule 3 and the multi-level structure, over the per-buffer infos. *)
let group_infos ~(hw : Alcop_hw.Hw_config.t) (kernel : Kernel.t) infos =
  begin
    (* Group by (pipeline loop, scope). *)
    let keys =
      List.sort_uniq compare
        (List.map (fun (i : buffer_info) -> (i.loop_var, i.buffer.Buffer.scope)) infos)
    in
    let groups =
      List.map
        (fun (loop_var, scope) ->
          let members =
            List.filter
              (fun (i : buffer_info) ->
                String.equal i.loop_var loop_var
                && Buffer.scope_equal i.buffer.Buffer.scope scope)
              infos
          in
          let stages =
            match
              List.sort_uniq compare
                (List.map (fun m -> m.hint.Hints.stages) members)
            with
            | [ s ] -> s
            | _ ->
              reject
                (String.concat "+" (List.map (fun m -> m.buffer.Buffer.name) members))
                3 "buffers in one synchronization group request different \
                   stage counts"
          in
          let depth =
            match members with
            | m :: _ ->
              let rec depth_of = function
                | [] -> 0
                | f :: rest ->
                  if String.equal f.var loop_var then List.length rest
                  else depth_of rest
              in
              depth_of m.site.stack
            | [] -> 0
          in
          { id =
              String.concat "."
                [ "pipe"; Buffer.scope_to_string scope; loop_var ];
            scope; loop_var; loop_extent = (List.hd members).loop_extent;
            loop_depth = depth; stages; members;
            synchronized = Alcop_hw.Hw_config.scope_needs_matching_sync hw scope;
            outer = None; fused = false })
        keys
    in
    (* Rule 3: a synchronized scope has a single barrier object, so all its
       pipelined buffers must form one group. *)
    List.iter
      (fun scope ->
        let of_scope =
          List.filter (fun g -> Buffer.scope_equal g.scope scope) groups
        in
        match of_scope with
        | [] | [ _ ] -> ()
        | _ :: _ :: _ ->
          reject
            (String.concat "+" (List.concat_map member_names of_scope))
            3
            "buffers in scope %s are pipelined on different loops (%s) but \
             the scope has a single barrier object"
            (Buffer.scope_to_string scope)
            (String.concat ", " (List.map (fun g -> g.loop_var) of_scope)))
      (List.filter
         (fun s -> Alcop_hw.Hw_config.scope_needs_matching_sync hw s)
         [ Buffer.Global; Buffer.Shared; Buffer.Register ]);
    (* Multi-level structure: a group is inner to another if its members'
       producers are the other group's buffers. *)
    let groups =
      List.map
        (fun g ->
          let producer_group =
            List.find_opt
              (fun og ->
                not (String.equal og.id g.id)
                && List.for_all
                     (fun m -> Names.mem m.producer (member_names og))
                     g.members)
              groups
          in
          match producer_group with
          | None -> g
          | Some og ->
            (* The inner pipeline must be nested inside the outer pipeline
               loop for fusion to make sense. *)
            let nested =
              List.for_all
                (fun m ->
                  List.exists
                    (fun f -> String.equal f.var og.loop_var)
                    m.site.stack)
                g.members
            in
            if not nested then g
            else begin
              let want_fuse =
                List.for_all (fun m -> m.hint.Hints.inner_fuse) g.members
              in
              let can_fuse = g.stages - 1 <= g.loop_extent in
              if want_fuse && not can_fuse then
                reject g.id 0
                  "inner-pipeline fusion requires stages-1 <= extent of %s \
                   (%d-1 > %d)"
                  g.loop_var g.stages g.loop_extent;
              { g with outer = Some og.id; fused = want_fuse }
            end)
        groups
    in
    (* Outermost groups first: the transformation processes them in order. *)
    let groups =
      List.sort (fun a b -> compare a.loop_depth b.loop_depth) groups
    in
    List.iter (fun g -> if g.synchronized then check_sync_positions kernel g) groups;
    groups
  end

(* The analysis proper; legality violations surface as [Rejected] from the
   rule checks deep inside. [run] is the result-returning entry point the
   compiler consumes. *)
let run_internal ~(hw : Alcop_hw.Hw_config.t) ~(hints : Hints.t)
    (kernel : Kernel.t) =
  if hints = [] then { groups = [] }
  else begin
    let sites = collect_sites hints kernel.Kernel.body in
    let infos = List.map (info_of_hint ~hw kernel sites) (List.rev hints) in
    { groups = group_infos ~hw kernel infos }
  end

let run ~hw ~hints kernel =
  match run_internal ~hw ~hints kernel with
  | analysis -> Ok analysis
  | exception Rejected r -> Error r

(* --- Structured per-buffer legality verdicts --------------------------

   [run] stops at the first rejection, which is right for the compiler but
   useless for diagnosis: the user wants to know, for every hinted buffer,
   which of the paper's three rules passed or failed and why. [verdicts]
   re-runs the same checks rule by rule, never raising, and reports one
   verdict per buffer. Deterministic for a given kernel, so reports can be
   golden-tested. *)

type rule_check = {
  rule : int;  (** 1, 2 or 3 — the slot in the report *)
  passed : bool;
  detail : string;
}

type buffer_verdict = {
  verdict_buffer : string;
  verdict_scope : string;
  pipelined : bool;
  verdict_group : string option;
  checks : rule_check list;  (** rules 1, 2, 3 in order *)
}

let failed_check slot (r : rejection) =
  let detail =
    if r.rule = 0 then "structural: " ^ r.reason else r.reason
  in
  { rule = slot; passed = false; detail }

let skipped_check slot =
  { rule = slot; passed = false; detail = "not evaluated (earlier rule failed)" }

let verdicts ~(hw : Alcop_hw.Hw_config.t) ~(hints : Hints.t) (kernel : Kernel.t) =
  let sites = collect_sites hints kernel.Kernel.body in
  let per_hint =
    List.map
      (fun (h : Hints.hint) ->
        let r1 =
          match check_rule1 ~hw kernel sites h with
          | pair -> Ok pair
          | exception Rejected r -> Error r
        in
        let r2 =
          match r1 with
          | Ok (_, site) ->
            (match check_rule2 h site with
             | pair -> Ok pair
             | exception Rejected r -> Error r)
          | Error _ -> Error { buffer = h.Hints.buffer; rule = 2; reason = "" }
        in
        (h, r1, r2))
      (List.rev hints)
  in
  let infos =
    List.filter_map
      (fun ((h : Hints.hint), r1, r2) ->
        match r1, r2 with
        | Ok (buffer, site), Ok (loop, loop_extent) ->
          Some
            { buffer; hint = h; site; loop_var = loop.var; loop_extent;
              producer = site.src.Stmt.buffer }
        | _ -> None)
      per_hint
  in
  let grouping =
    match group_infos ~hw kernel infos with
    | groups -> Ok { groups }
    | exception Rejected r -> Error r
  in
  List.map
    (fun ((h : Hints.hint), r1, r2) ->
      let name = h.Hints.buffer in
      let scope =
        match Kernel.find_buffer kernel name with
        | Some b -> Buffer.scope_to_string b.Buffer.scope
        | None -> "undeclared"
      in
      let c1 =
        match r1 with
        | Ok _ ->
          { rule = 1; passed = true;
            detail =
              Printf.sprintf
                "produced by one asynchronous memory copy (scope %s on %s)"
                scope hw.Alcop_hw.Hw_config.name }
        | Error r -> failed_check 1 r
      in
      let c2 =
        match r1, r2 with
        | Error _, _ -> skipped_check 2
        | Ok _, Ok ((loop : frame), extent) ->
          { rule = 2; passed = true;
            detail =
              Printf.sprintf "sequential load-and-use loop %s (extent %d)"
                loop.var extent }
        | Ok _, Error r -> failed_check 2 r
      in
      let c3, group_id =
        if not (c1.passed && c2.passed) then (skipped_check 3, None)
        else
          match grouping with
          | Ok t ->
            (match group_of_buffer t name with
             | Some g ->
               ( { rule = 3; passed = true;
                   detail =
                     Printf.sprintf "group %s: %d stages on loop %s%s" g.id
                       g.stages g.loop_var
                       (if g.synchronized then ", synchronized" else "") },
                 Some g.id )
             | None ->
               (* unreachable: every info lands in a group *)
               (skipped_check 3, None))
          | Error r ->
            let culprits = String.split_on_char '+' r.buffer in
            if Names.mem name culprits then (failed_check 3 r, None)
            else
              ( { rule = 3; passed = true;
                  detail =
                    "no barrier conflict attributed to this buffer (group \
                     analysis failed elsewhere)" },
                None )
      in
      { verdict_buffer = name; verdict_scope = scope;
        pipelined = c1.passed && c2.passed && c3.passed;
        verdict_group = group_id; checks = [ c1; c2; c3 ] })
    per_hint

let rule_title = function
  | 1 -> "asynchronous copy"
  | 2 -> "sequential load-and-use loop"
  | 3 -> "synchronization scope"
  | _ -> "structural"

let pp_buffer_verdict fmt (v : buffer_verdict) =
  Format.fprintf fmt "buffer %s (scope %s): %s@\n" v.verdict_buffer
    v.verdict_scope
    (match v.verdict_group with
     | Some g when v.pipelined -> Printf.sprintf "PIPELINED in %s" g
     | _ when v.pipelined -> "PIPELINED"
     | _ -> "NOT PIPELINED");
  List.iteri
    (fun i (c : rule_check) ->
      Format.fprintf fmt "  rule %d (%s): %s - %s" c.rule (rule_title c.rule)
        (if c.passed then "PASS" else "FAIL")
        c.detail;
      if i < 2 then Format.fprintf fmt "@\n")
    v.checks

let pp_verdicts fmt vs =
  List.iteri
    (fun i v ->
      if i > 0 then Format.fprintf fmt "@\n";
      Format.fprintf fmt "%a" pp_buffer_verdict v)
    vs
