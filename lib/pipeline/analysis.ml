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

(* The lookups below recurse by hand instead of taking a closure: the
   pass runs them for every loop and copy it visits. *)
let rec find_group_in id = function
  | [] -> None
  | g :: rest -> if String.equal g.id id then Some g else find_group_in id rest

let find_group t id = find_group_in id t.groups

let rec has_member (members : buffer_info list) name =
  match members with
  | [] -> false
  | m :: rest -> String.equal m.buffer.Buffer.name name || has_member rest name

let mem_buffer g name = has_member g.members name

let rec group_of_buffer_in name = function
  | [] -> None
  | g :: rest ->
    if has_member g.members name then Some g else group_of_buffer_in name rest

let group_of_buffer t name = group_of_buffer_in name t.groups

let member_names g = List.map (fun m -> m.buffer.Buffer.name) g.members

(* Bytes one pipeline stage of this group occupies: the sum of the
   pre-expansion member buffers. The transformation multiplies this by
   [stages] when it prepends the stage dimension, so this is the footprint
   the observatory compares occupancy high-water marks against. *)
let stage_footprint_bytes g =
  List.fold_left (fun acc m -> acc + Buffer.size_bytes m.buffer) 0 g.members

(* --- Where a group's buffers are loaded and read --- *)

let rec loads_group g stmt =
  match stmt with
  | Stmt.Copy { dst; _ } -> has_member g.members dst.Stmt.buffer
  | Stmt.Seq ss -> loads_group_list g ss
  | Stmt.For { body; _ } | Stmt.Alloc { body; _ } | Stmt.If { then_ = body; _ } ->
    loads_group g body
  | Stmt.Fill _ | Stmt.Mma _ | Stmt.Unop _ | Stmt.Accum _ | Stmt.Sync _ -> false

and loads_group_list g = function
  | [] -> false
  | s :: rest -> loads_group g s || loads_group_list g rest

let reads_region g (r : Stmt.region) = has_member g.members r.Stmt.buffer

let rec reads_group g stmt =
  match stmt with
  | Stmt.Copy { src; _ } | Stmt.Unop { src; _ } -> reads_region g src
  | Stmt.Mma { a; b; _ } -> reads_region g a || reads_region g b
  | Stmt.Accum { dst; src } -> reads_region g dst || reads_region g src
  | Stmt.Seq ss -> reads_group_list g ss
  | Stmt.For { body; _ } | Stmt.Alloc { body; _ } | Stmt.If { then_ = body; _ } ->
    reads_group g body
  | Stmt.Fill _ | Stmt.Sync _ -> false

and reads_group_list g = function
  | [] -> false
  | s :: rest -> reads_group g s || reads_group_list g rest

let rec count_loads g stmt =
  match stmt with
  | Stmt.Copy { dst; _ } -> if has_member g.members dst.Stmt.buffer then 1 else 0
  | Stmt.Seq ss -> count_loads_list g 0 ss
  | Stmt.For { body; _ } | Stmt.Alloc { body; _ } | Stmt.If { then_ = body; _ } ->
    count_loads g body
  | Stmt.Fill _ | Stmt.Mma _ | Stmt.Unop _ | Stmt.Accum _ | Stmt.Sync _ -> 0

and count_loads_list g n = function
  | [] -> n
  | s :: rest -> count_loads_list g (n + count_loads g s) rest

(* --- Step 2: the producing copies of the hinted buffers --- *)

let rec hinted (hints : Hints.t) name =
  match hints with
  | [] -> false
  | h :: rest -> String.equal h.Hints.buffer name || hinted rest name

let rec has_hinted_copy hints stmt =
  match stmt with
  | Stmt.Copy { dst; _ } -> hinted hints dst.Stmt.buffer
  | Stmt.Seq ss -> has_hinted_copy_list hints ss
  | Stmt.For { body; _ } | Stmt.Alloc { body; _ } | Stmt.If { then_ = body; _ } ->
    has_hinted_copy hints body
  | Stmt.Fill _ | Stmt.Mma _ | Stmt.Unop _ | Stmt.Accum _ | Stmt.Sync _ -> false

and has_hinted_copy_list hints = function
  | [] -> false
  | s :: rest -> has_hinted_copy hints s || has_hinted_copy_list hints rest

(* The producing copies of all hinted buffers with their loop stacks,
   last copy first. A frame is built only for a loop that encloses one. *)
let rec collect hints stack acc stmt =
  match stmt with
  | Stmt.Seq ss -> collect_list hints stack acc ss
  | Stmt.For { var; extent; kind; body } ->
    if has_hinted_copy hints body then
      collect hints ({ var; extent; kind } :: stack) acc body
    else acc
  | Stmt.Alloc { body; _ } | Stmt.If { then_ = body; _ } ->
    collect hints stack acc body
  | Stmt.Copy { dst; src; fused; _ } ->
    if hinted hints dst.Stmt.buffer then { dst; src; fused; stack } :: acc
    else acc
  | Stmt.Fill _ | Stmt.Mma _ | Stmt.Unop _ | Stmt.Accum _ | Stmt.Sync _ -> acc

and collect_list hints stack acc = function
  | [] -> acc
  | s :: rest -> collect_list hints stack (collect hints stack acc s) rest

let collect_sites hints body = collect hints [] [] body

let rec has_site name = function
  | [] -> false
  | (s : copy_site) :: rest ->
    String.equal s.dst.Stmt.buffer name || has_site name rest

let rec site_of name = function
  | [] -> reject name 1 "buffer is not produced by a memory copy"
  | (s : copy_site) :: rest ->
    if not (String.equal s.dst.Stmt.buffer name) then site_of name rest
    else if has_site name rest then
      reject name 0 "buffer has multiple producing copies"
    else s

let rec slices_mention v = function
  | [] -> false
  | (s : Stmt.slice) :: rest -> Expr.mentions v s.Stmt.offset || slices_mention v rest

(* Step 3: the sequential load-and-use loop. Starting from the producing
   copy, walk the enclosing loops from inside to outside; skip loops whose
   variable indexes into the buffer (the buffer is partitioned, not reused,
   along them); the first non-indexing loop must be sequential (paper
   rule 2). *)
let rec search_loop buffer (dst : Stmt.region) = function
  | [] ->
    reject buffer 2
      "no sequential load-and-use loop: the buffer is loaded outside of \
       any reusing loop"
  | f :: rest ->
    if slices_mention f.var dst.Stmt.slices then search_loop buffer dst rest
    else (
      match f.kind with
      | Stmt.Sequential -> f
      | Stmt.Parallel b ->
        reject buffer 2
          "the load-and-use loop %s is parallel (bound to %s); pipelining \
           requires a sequential loop"
          f.var (Stmt.binding_to_string b)
      | Stmt.Unrolled ->
        reject buffer 2 "the load-and-use loop %s is unrolled" f.var)

let find_pipeline_loop buffer (site : copy_site) =
  search_loop buffer site.dst site.stack

let loop_extent_of buffer loop =
  match Expr.eval_const loop.extent with
  | Some e when e >= 1 -> e
  | _ ->
    reject buffer 0 "extent of pipeline loop %s is not a positive constant"
      loop.var

(* Rule 1 (asynchronous production) plus its structural preconditions: the
   buffer is declared, produced by exactly one memory copy, that copy
   carries no fused element-wise op (Fig. 5 case 1 forces such copies to be
   synchronous), and the buffer's scope has an asynchronous copy path on
   this hardware. *)
let check_rule1 ~(hw : Alcop_hw.Hw_config.t) kernel sites (h : Hints.hint) =
  let name = h.Hints.buffer in
  let buffer =
    match Kernel.find_buffer kernel name with
    | Some b -> b
    | None -> reject name 0 "buffer is not declared"
  in
  if not (Alcop_hw.Hw_config.scope_is_async hw buffer.Buffer.scope) then
    reject name 1 "scope %s has no asynchronous copy on %s"
      (Buffer.scope_to_string buffer.Buffer.scope)
      hw.Alcop_hw.Hw_config.name;
  let site = site_of name sites in
  (match site.fused with
   | Some op ->
     reject name 1
       "producing copy carries fused op %s and is therefore not an \
        asynchronous memory copy" op
   | None -> ());
  (buffer, site)

(* Rule 2: the sequential load-and-use loop, with a constant extent. *)
let check_rule2 (h : Hints.hint) site =
  let loop = find_pipeline_loop h.Hints.buffer site in
  (loop, loop_extent_of h.Hints.buffer loop)

let info_of_hint ~hw kernel sites (h : Hints.hint) =
  let buffer, site = check_rule1 ~hw kernel sites h in
  let loop = find_pipeline_loop h.Hints.buffer site in
  { buffer; hint = h; site; loop_var = loop.var;
    loop_extent = loop_extent_of h.Hints.buffer loop;
    producer = site.src.Stmt.buffer }

(* [List.map], in order, without the partial application. *)
let rec infos_of ~hw kernel sites = function
  | [] -> []
  | h :: rest ->
    let info = info_of_hint ~hw kernel sites h in
    info :: infos_of ~hw kernel sites rest

(* --- Pipeline groups, rule 3 and the multi-level structure ---

   Infos that share a (pipeline loop, scope) key form one group. The infos
   are partitioned once into per-key member lists, kept in ascending
   (loop variable, scope) order, the order [List.sort_uniq compare] gives
   the pairs; each list keeps its members in info order and becomes the
   group's [members]. *)

let scope_rank = function
  | Buffer.Global -> 0
  | Buffer.Shared -> 1
  | Buffer.Register -> 2

let key_compare (a : buffer_info) (b : buffer_info) =
  let c = String.compare a.loop_var b.loop_var in
  if c <> 0 then c
  else Int.compare (scope_rank a.buffer.Buffer.scope) (scope_rank b.buffer.Buffer.scope)

(* A key's member list is never empty; its head stands for the key. *)
let key_of : buffer_info list -> buffer_info = function
  | m :: _ -> m
  | [] -> invalid_arg "Analysis.key_of"

(* [i] in front of its key's members, the keys kept in order. *)
let rec add_to_key i = function
  | [] -> [ [ i ] ]
  | ms :: rest as keys ->
    let c = key_compare i (key_of ms) in
    if c = 0 then (i :: ms) :: rest
    else if c < 0 then [ i ] :: keys
    else ms :: add_to_key i rest

(* Added last first, so every member list ends up in info order. *)
let rec partition = function
  | [] -> []
  | i :: rest -> add_to_key i (partition rest)

let key_id (k : buffer_info) =
  String.concat "." [ "pipe"; Buffer.scope_to_string k.buffer.Buffer.scope; k.loop_var ]

let key_names ms = List.map (fun (m : buffer_info) -> m.buffer.Buffer.name) ms

let rec stages_agree stages = function
  | [] -> true
  | (m : buffer_info) :: rest ->
    m.hint.Hints.stages = stages && stages_agree stages rest

(* Each key's members must request one stage count. *)
let rec check_stages = function
  | [] -> ()
  | ms :: rest ->
    if not (stages_agree (key_of ms).hint.Hints.stages ms) then
      reject (String.concat "+" (key_names ms)) 3
        "buffers in one synchronization group request different stage counts";
    check_stages rest

let rec keys_in_scope scope n = function
  | [] -> n
  | ms :: rest ->
    keys_in_scope scope
      (if Buffer.scope_equal (key_of ms).buffer.Buffer.scope scope then n + 1
       else n)
      rest

(* Rule 3: a synchronized scope has a single barrier object, so all its
   pipelined buffers must form one group. *)
let check_scope ~(hw : Alcop_hw.Hw_config.t) keys scope =
  if Alcop_hw.Hw_config.scope_needs_matching_sync hw scope
     && keys_in_scope scope 0 keys >= 2
  then begin
    let of_scope =
      List.filter
        (fun ms -> Buffer.scope_equal (key_of ms).buffer.Buffer.scope scope)
        keys
    in
    reject
      (String.concat "+" (List.concat_map key_names of_scope))
      3
      "buffers in scope %s are pipelined on different loops (%s) but the \
       scope has a single barrier object"
      (Buffer.scope_to_string scope)
      (String.concat ", " (List.map (fun ms -> (key_of ms).loop_var) of_scope))
  end

(* Every member of [ms] is produced from a buffer of [og]. *)
let rec produced_by og = function
  | [] -> true
  | (m : buffer_info) :: rest ->
    has_member og m.producer && produced_by og rest

let rec in_stack var = function
  | [] -> false
  | f :: rest -> String.equal f.var var || in_stack var rest

(* Every member is loaded inside loop [var]. *)
let rec nested_in var = function
  | [] -> true
  | (m : buffer_info) :: rest -> in_stack var m.site.stack && nested_in var rest

let rec wants_fusion = function
  | [] -> true
  | (m : buffer_info) :: rest -> m.hint.Hints.inner_fuse && wants_fusion rest

(* The first key, in key order, other than [ms] whose buffers produce all
   of those of [ms]. *)
let rec producer_key ms = function
  | [] -> None
  | og :: rest ->
    if og != ms && produced_by og ms then Some og else producer_key ms rest

let rec depth_of var = function
  | [] -> 0
  | f :: rest -> if String.equal f.var var then List.length rest else depth_of var rest

(* A group is inner to the first group whose buffers produce all of its
   own, when its copies sit inside that group's loop; it is fused with it
   (paper Fig. 3d) when all its hints ask for it. *)
let make_group ~(hw : Alcop_hw.Hw_config.t) keys ms =
  let m0 = key_of ms in
  let scope = m0.buffer.Buffer.scope in
  let id = key_id m0 in
  let outer =
    match producer_key ms keys with
    | Some og when nested_in (key_of og).loop_var ms ->
      Some (key_id (key_of og))
    | Some _ | None -> None
  in
  let fused = outer <> None && wants_fusion ms in
  if fused && m0.hint.Hints.stages - 1 > m0.loop_extent then
    reject id 0
      "inner-pipeline fusion requires stages-1 <= extent of %s (%d-1 > %d)"
      m0.loop_var m0.hint.Hints.stages m0.loop_extent;
  { id; scope; loop_var = m0.loop_var; loop_extent = m0.loop_extent;
    loop_depth = depth_of m0.loop_var m0.site.stack;
    stages = m0.hint.Hints.stages; members = ms;
    synchronized = Alcop_hw.Hw_config.scope_needs_matching_sync hw scope;
    outer; fused }

(* Stable insertion by loop depth: outermost groups first, key order
   among equals, as [List.sort] on [loop_depth] gives. *)
let rec insert_by_depth g = function
  | [] -> [ g ]
  | h :: rest as l ->
    if g.loop_depth < h.loop_depth then g :: l else h :: insert_by_depth g rest

let rec build_groups ~hw keys acc = function
  | [] -> acc
  | ms :: rest ->
    build_groups ~hw keys (insert_by_depth (make_group ~hw keys ms) acc) rest

(* Rule 3 sub-check: within a synchronized group, the producing copies must
   sit at matching synchronization positions: the direct children of the
   pipeline loop's body that contain them must form one contiguous run, and
   none of those children may also read the group (a loading block must be
   separable from the using block so one acquire/commit pair can guard
   it). [phase] is 0 before the run of loading children, 1 in it, 2 after
   it. *)
let rec separable_run g n phase count = function
  | [] -> count = n
  | c :: rest ->
    if loads_group g c then
      phase < 2 && (not (reads_group g c))
      && separable_run g n 1 (count + count_loads g c) rest
    else separable_run g n (if phase = 1 then 2 else phase) count rest

let separable g body =
  let n = List.length g.members in
  match body with
  | Stmt.Seq ss -> separable_run g n 0 0 ss
  | s -> loads_group g s && (not (reads_group g s)) && count_loads g s = n

(* Over every loop of [g.loop_var]: 0 when none was seen, 1 when all seen
   were separable, 2 when one was not. *)
let rec sync_scan g state stmt =
  match stmt with
  | Stmt.For { var; body; _ } ->
    let state =
      if not (String.equal var g.loop_var) then state
      else if state = 2 || not (separable g body) then 2
      else 1
    in
    sync_scan g state body
  | Stmt.Seq ss -> sync_scan_list g state ss
  | Stmt.Alloc { body; _ } | Stmt.If { then_ = body; _ } -> sync_scan g state body
  | Stmt.Copy _ | Stmt.Fill _ | Stmt.Mma _ | Stmt.Unop _ | Stmt.Accum _
  | Stmt.Sync _ -> state

and sync_scan_list g state = function
  | [] -> state
  | s :: rest -> sync_scan_list g (sync_scan g state s) rest

let rec check_sync_positions kernel = function
  | [] -> ()
  | g :: rest ->
    if g.synchronized && sync_scan g 0 kernel.Kernel.body <> 1 then
      reject
        (String.concat "+" (member_names g))
        3
        "buffers share the %s synchronization scope but their barriers would \
         sit at distinct positions in loop %s"
        (Buffer.scope_to_string g.scope)
        g.loop_var;
    check_sync_positions kernel rest

(* Rule 3 and the multi-level structure, over the per-buffer infos, in the
   order the checks have always run: stage counts per group, one group
   per synchronized scope, fusion, then barrier positions per group,
   outermost first. *)
let group_infos ~hw kernel infos =
  let keys = partition infos in
  check_stages keys;
  check_scope ~hw keys Buffer.Global;
  check_scope ~hw keys Buffer.Shared;
  check_scope ~hw keys Buffer.Register;
  let groups = build_groups ~hw keys [] keys in
  check_sync_positions kernel groups;
  groups

(* The analysis proper; legality violations surface as [Rejected] from the
   rule checks deep inside. [run] is the result-returning entry point the
   compiler consumes. *)
let run_internal ~hw ~(hints : Hints.t) (kernel : Kernel.t) =
  match hints with
  | [] -> { groups = [] }
  | _ :: _ ->
    let sites = collect_sites hints kernel.Kernel.body in
    let infos = infos_of ~hw kernel sites (List.rev hints) in
    { groups = group_infos ~hw kernel infos }

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
