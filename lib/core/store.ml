(* On-disk artifact store. See the interface for the contract.

   Layout:  <root>/<ns>/<first-2-hex>/<key>.json, with temp files for
   in-flight writes living at <root>/.tmp.<pid>.<seq> so the final
   [rename] is within one filesystem and therefore atomic. Everything
   here is best-effort: an I/O failure is a miss (reads) or disables the
   store after one warning line (writes); no exception escapes. *)

type stats = {
  hits : int;
  misses : int;
  writes : int;
  corrupt : int;
  errors : int;
}

(* Process-global: temp names embed (pid, seq) and must be unique even
   when several handles over the same root race within one process. *)
let tmp_seq = Atomic.make 0

type t = {
  root : string;
  lock : Mutex.t;
  mutable enabled : bool;
  mutable hits : int;
  mutable misses : int;
  mutable writes : int;
  mutable corrupt : int;
  mutable errors : int;
}

let max_bytes = 64 * 1024 * 1024

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let nonempty = function
  | Some s when s <> "" -> Some s
  | _ -> None

let default_root () =
  match nonempty (Sys.getenv_opt "ALCOP_STORE") with
  | Some d -> d
  | None ->
    (match nonempty (Sys.getenv_opt "XDG_CACHE_HOME") with
     | Some c -> Filename.concat c "alcop"
     | None ->
       (match nonempty (Sys.getenv_opt "HOME") with
        | Some h ->
          Filename.concat (Filename.concat h ".cache") "alcop"
        | None ->
          Filename.concat (Filename.get_temp_dir_name ()) "alcop-store"))

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    let parent = Filename.dirname dir in
    if parent <> dir then mkdir_p parent;
    try Sys.mkdir dir 0o755
    with Sys_error _ when Sys.is_directory dir -> ()  (* lost a mkdir race *)
  end
  else if not (Sys.is_directory dir) then
    raise (Sys_error (dir ^ ": not a directory"))

let disable t msg =
  locked t (fun () ->
      t.errors <- t.errors + 1;
      if t.enabled then begin
        t.enabled <- false;
        Printf.eprintf "alcop: artifact store disabled: %s\n%!" msg
      end)

let create ?root () =
  let root = match root with Some r -> r | None -> default_root () in
  let t =
    { root;
      lock = Mutex.create ();
      enabled = true;
      hits = 0; misses = 0; writes = 0; corrupt = 0; errors = 0 }
  in
  (* Probe writability up front so an unusable store warns once at open
     rather than surprising the first write. *)
  (try
     mkdir_p root;
     let probe =
       Filename.concat root
         (Printf.sprintf ".probe.%d.%d" (Unix.getpid ())
            (Atomic.fetch_and_add tmp_seq 1))
     in
     Out_channel.with_open_bin probe (fun oc ->
         Out_channel.output_string oc "ok");
     Sys.remove probe
   with Sys_error msg -> disable t msg);
  t

let enabled t = t.enabled
let root t = t.root

let stats t =
  locked t (fun () ->
      { hits = t.hits; misses = t.misses; writes = t.writes;
        corrupt = t.corrupt; errors = t.errors })

let shard key = if String.length key >= 2 then String.sub key 0 2 else "xx"

let entry_path t ~ns key =
  Filename.concat
    (Filename.concat (Filename.concat t.root ns) (shard key))
    (key ^ ".json")

let delete_quietly path = try Sys.remove path with Sys_error _ -> ()

let mark_corrupt t ~ns key =
  (* The caller read the bytes (counted as a hit) then failed to parse
     them; reclassify that read as corrupt rather than served. *)
  locked t (fun () ->
      t.corrupt <- t.corrupt + 1;
      if t.hits > 0 then t.hits <- t.hits - 1);
  delete_quietly (entry_path t ~ns key)

let read t ~ns key =
  if not t.enabled then None
  else begin
    let path = entry_path t ~ns key in
    match In_channel.with_open_bin path In_channel.input_all with
    | data ->
      locked t (fun () -> t.hits <- t.hits + 1);
      Some data
    | exception Sys_error _ ->
      if Sys.file_exists path then begin
        (* present but unreadable — same treatment as unparseable *)
        locked t (fun () -> t.corrupt <- t.corrupt + 1);
        delete_quietly path
      end
      else locked t (fun () -> t.misses <- t.misses + 1);
      None
  end

let write t ~ns key data =
  if t.enabled then begin
    let path = entry_path t ~ns key in
    let tmp =
      Filename.concat t.root
        (Printf.sprintf ".tmp.%d.%d" (Unix.getpid ())
           (Atomic.fetch_and_add tmp_seq 1))
    in
    try
      mkdir_p (Filename.dirname path);
      Out_channel.with_open_bin tmp (fun oc ->
          Out_channel.output_string oc data);
      Sys.rename tmp path;
      locked t (fun () -> t.writes <- t.writes + 1)
    with Sys_error msg ->
      delete_quietly tmp;
      disable t msg
  end

let remove t ~ns key =
  if t.enabled then delete_quietly (entry_path t ~ns key)

(* --- walking, usage accounting and eviction --- *)

let readdir_quietly dir =
  try Sys.readdir dir with Sys_error _ -> [||]

let is_dir_quietly p = try Sys.is_directory p with Sys_error _ -> false

(* Every entry file with (path, mtime, size); temp files and the probe
   live directly under the root and are never visited. *)
let walk t =
  let acc = ref [] in
  Array.iter
    (fun ns ->
      if ns <> "" && ns.[0] <> '.' then begin
        let ns_dir = Filename.concat t.root ns in
        if is_dir_quietly ns_dir then
          Array.iter
            (fun sh ->
              let sh_dir = Filename.concat ns_dir sh in
              if is_dir_quietly sh_dir then
                Array.iter
                  (fun f ->
                    let p = Filename.concat sh_dir f in
                    match Unix.stat p with
                    | { Unix.st_kind = Unix.S_REG; st_mtime; st_size; _ } ->
                      acc := (p, st_mtime, st_size) :: !acc
                    | _ | (exception Unix.Unix_error _) -> ())
                  (readdir_quietly sh_dir))
            (readdir_quietly ns_dir)
      end)
    (readdir_quietly t.root);
  !acc

let usage t =
  List.fold_left
    (fun (n, bytes) (_, _, size) -> (n + 1, bytes + size))
    (0, 0) (walk t)

let gc t ?(max_bytes = max_bytes) () =
  let files = walk t in
  let total = List.fold_left (fun b (_, _, s) -> b + s) 0 files in
  if total <= max_bytes then 0
  else begin
    (* oldest first; path is the tie-break so the order is total *)
    let by_age =
      List.sort
        (fun (p1, m1, _) (p2, m2, _) ->
          match compare (m1 : float) m2 with 0 -> compare p1 p2 | c -> c)
        files
    in
    let removed = ref 0 in
    let remaining = ref total in
    List.iter
      (fun (p, _, size) ->
        if !remaining > max_bytes then begin
          delete_quietly p;
          remaining := !remaining - size;
          incr removed
        end)
      by_age;
    !removed
  end
