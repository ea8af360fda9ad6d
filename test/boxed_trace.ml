(* Boxed view of packed trace programs, and an independent packer.

   The library has one trace representation, the packed [Trace.program].
   Tests and hand-built traces use this boxed event type instead:
   [decode] reads a program back event by event, and [pack] builds one
   from events. [pack] computes batch ordinals and ring depths with a
   recurrence of its own — a FIFO of committed batches per group, sharing
   no code with the extractor's builder — so the property
   "pack (decode p) == extract_program columns" in [Test_packed] checks
   the extractor against a second implementation, the way [Legacy_sim]
   checks the replay engine. *)

open Alcop_gpusim

type event =
  | Load of {
      level : Trace.level;
      bytes : int;
      async : bool;
      group : string option;
    }
  | Store of { bytes : int }
  | Commit of { group : string; sync : bool }
      (** [sync] distinguishes scope-synchronized pipeline commits from
          scoreboard-synthesized register-pipeline ones *)
  | Wait_oldest of { group : string; sync : bool }
  | Acquire of { group : string; stages : int }
  | Release of string
  | Barrier
  | Compute of { flops : int }

let pp_event fmt = function
  | Load { level; bytes; async; group } ->
    Format.fprintf fmt "load[%s] %dB%s%s"
      (match level with
       | Trace.From_global -> "global"
       | Trace.From_shared -> "shared")
      bytes
      (if async then " async" else "")
      (match group with None -> "" | Some g -> " @" ^ g)
  | Store { bytes } -> Format.fprintf fmt "store %dB" bytes
  | Commit { group = g; sync } ->
    Format.fprintf fmt "commit @%s%s" g (if sync then "" else " soft")
  | Wait_oldest { group = g; sync } ->
    Format.fprintf fmt "wait @%s%s" g (if sync then "" else " soft")
  | Acquire { group; stages } ->
    Format.fprintf fmt "acquire @%s (%d)" group stages
  | Release g -> Format.fprintf fmt "release @%s" g
  | Barrier -> Format.fprintf fmt "barrier"
  | Compute { flops } -> Format.fprintf fmt "compute %d flops" flops

let event_at (p : Trace.program) i =
  let g = p.Trace.group.{i} in
  let op = p.Trace.opcode.{i} in
  let flag f = p.Trace.flags.{i} land f <> 0 in
  if op = Trace.op_load then
    Load
      { level =
          (if flag Trace.flag_shared then Trace.From_shared
           else Trace.From_global);
        bytes = p.Trace.arg.{i};
        async = flag Trace.flag_async;
        group = (if g >= 0 then Some p.Trace.groups.(g) else None) }
  else if op = Trace.op_store then Store { bytes = p.Trace.arg.{i} }
  else if op = Trace.op_commit then
    Commit { group = p.Trace.groups.(g); sync = flag Trace.flag_sync_group }
  else if op = Trace.op_wait then
    Wait_oldest
      { group = p.Trace.groups.(g); sync = flag Trace.flag_sync_group }
  else if op = Trace.op_acquire then
    Acquire { group = p.Trace.groups.(g); stages = p.Trace.arg.{i} }
  else if op = Trace.op_release then Release p.Trace.groups.(g)
  else if op = Trace.op_barrier then Barrier
  else Compute { flops = p.Trace.arg.{i} }

let decode (p : Trace.program) = Array.init p.Trace.n (event_at p)

let group_of = function
  | Load { group = Some g; _ }
  | Commit { group = g; _ }
  | Wait_oldest { group = g; _ }
  | Acquire { group = g; _ }
  | Release g -> Some g
  | Load { group = None; _ } | Store _ | Barrier | Compute _ -> None

(* One pipeline group while packing. Batches are numbered in commit
   order: an async load joins the batch the group's next commit closes,
   and a wait consumes the oldest committed batch no earlier wait took,
   or nothing when none is left. *)
type pipe = {
  mutable commits : int;
  mutable waits : int;
  unconsumed : int Queue.t;  (** committed batches no wait took yet *)
  mutable depth : int;  (** peak length of [unconsumed], at least 1 *)
  mutable stages : int;  (** largest acquire argument, 0 when none *)
  mutable sync : bool;  (** some protocol event of the group is synced *)
  mutable open_bytes : int;  (** async-load bytes of the open batch *)
  mutable bytes : int;  (** peak async-load bytes of one batch *)
}

(* The program of [events]. Groups are interned in first-use order. The
   group table comes from the events alone: a group is synchronized when
   any of its protocol events carries [sync] (acquire and release always
   do), its stage count is the largest acquire argument (its ring depth
   when it has none), and its byte footprint is the peak async-load byte
   sum of one batch. *)
let pack (events : event array) : Trace.program =
  let index = Hashtbl.create 4 and names = ref [] in
  Array.iter
    (fun e ->
      match group_of e with
      | Some g when not (Hashtbl.mem index g) ->
        Hashtbl.add index g (Hashtbl.length index);
        names := g :: !names
      | Some _ | None -> ())
    events;
  let groups = Array.of_list (List.rev !names) in
  let pipes =
    Array.map
      (fun _ ->
        { commits = 0; waits = 0; unconsumed = Queue.create (); depth = 1;
          stages = 0; sync = false; open_bytes = 0; bytes = 0 })
      groups
  in
  let n = Array.length events in
  let col () = Bigarray.Array1.create Bigarray.int Bigarray.c_layout n in
  let opcode = col () and arg = col () and group = col () and flags = col ()
  and batch = col () in
  Array.iteri
    (fun i e ->
      let g =
        match group_of e with Some name -> Hashtbl.find index name | None -> -1
      in
      let synced s =
        if s then begin
          pipes.(g).sync <- true;
          Trace.flag_sync_group
        end
        else 0
      in
      let op, a, f, b =
        match e with
        | Load { level; bytes; async; _ } ->
          let f =
            (if async then Trace.flag_async else 0)
            lor
            match level with
            | Trace.From_shared -> Trace.flag_shared
            | Trace.From_global -> 0
          in
          if async && g >= 0 then begin
            let p = pipes.(g) in
            p.open_bytes <- p.open_bytes + bytes;
            (Trace.op_load, bytes, f, p.commits)
          end
          else (Trace.op_load, bytes, f, -1)
        | Store { bytes } -> (Trace.op_store, bytes, 0, -1)
        | Commit { sync; _ } ->
          let p = pipes.(g) in
          let closed = p.commits in
          p.commits <- closed + 1;
          Queue.push closed p.unconsumed;
          p.depth <- max p.depth (Queue.length p.unconsumed);
          p.bytes <- max p.bytes p.open_bytes;
          p.open_bytes <- 0;
          (Trace.op_commit, 0, synced sync, closed)
        | Wait_oldest { sync; _ } ->
          let p = pipes.(g) in
          let consumed =
            match Queue.take_opt p.unconsumed with Some c -> c | None -> -1
          in
          let ordinal = p.waits in
          p.waits <- ordinal + 1;
          (Trace.op_wait, consumed, synced sync, ordinal)
        | Acquire { stages; _ } ->
          pipes.(g).stages <- max pipes.(g).stages stages;
          (Trace.op_acquire, stages, synced true, -1)
        | Release _ -> (Trace.op_release, 0, synced true, -1)
        | Barrier -> (Trace.op_barrier, 0, 0, -1)
        | Compute { flops } -> (Trace.op_compute, flops, 0, -1)
      in
      opcode.{i} <- op;
      arg.{i} <- a;
      group.{i} <- g;
      flags.{i} <- f;
      batch.{i} <- b)
    events;
  { Trace.n; opcode; arg; group; flags; batch; groups;
    group_depth = Array.map (fun p -> p.depth) pipes;
    group_stages =
      Array.map (fun p -> if p.stages > 0 then p.stages else p.depth) pipes;
    group_sync = Array.map (fun p -> p.sync) pipes;
    group_bytes = Array.map (fun p -> p.bytes) pipes }
