(** Persistent on-disk artifact store: warm compiles across processes.

    A store is a directory of small JSON entries, named by content
    fingerprint and grouped into namespaces; the one namespace in use,
    [compile/], holds the session's evaluation records. Entries are
    sharded by the first two hex characters of the key so no directory
    grows unboundedly, and written atomically (unique temp file in the
    store root, then [rename]), so concurrent processes hammering the same
    key never observe a torn entry — a reader sees either the old bytes,
    the new bytes, or nothing.

    Failure policy: the store is an accelerator, never a correctness
    dependency. An unreadable or corrupt entry is a miss (plus a skip
    counter); an unwritable directory disables the store with a one-line
    warning and every operation becomes a no-op. Nothing in here raises
    on I/O trouble.

    The default root honors [$ALCOP_STORE], then [$XDG_CACHE_HOME/alcop],
    then [~/.cache/alcop]. *)

type t

type stats = {
  hits : int;      (** entry present and read back *)
  misses : int;    (** entry absent *)
  writes : int;    (** entries written (tmp+rename completed) *)
  corrupt : int;   (** unreadable/unparseable entries skipped (and deleted) *)
  errors : int;    (** I/O errors on the write path *)
}

val default_root : unit -> string
(** Test-only: the environment-precedence test reads it; {!create} applies
    it.
    [$ALCOP_STORE], else [$XDG_CACHE_HOME/alcop], else [$HOME/.cache/alcop],
    else a per-user directory under the system temp dir. *)

val create : ?root:string -> unit -> t
(** Open (creating if needed) the store rooted at [root] (default
    {!default_root}).
    If the root cannot be created or written, prints one warning line to
    stderr and returns a disabled store. *)

val enabled : t -> bool
val root : t -> string

val max_bytes : int
(** The default {!gc} target: 64 MiB. *)

val read : t -> ns:string -> string -> string option
(** The entry's bytes, or [None] when absent/unreadable. An entry that
    exists but cannot be read counts as corrupt and is deleted. *)

val write : t -> ns:string -> string -> string -> unit
(** Atomically (tmp + rename) persist an entry. Last writer wins; errors
    disable the store after one stderr warning. *)

val remove : t -> ns:string -> string -> unit
(** Delete one entry if present (used by benchmarks to re-cold a key). *)

val mark_corrupt : t -> ns:string -> string -> unit
(** Record that the caller failed to parse the entry's bytes, and delete
    the bad file so the next process pays the miss only once. *)

val entry_path : t -> ns:string -> string -> string
(** Test-only: corruption and gc tests edit entries on disk.
    Where the entry lives (whether or not it exists). *)

val stats : t -> stats

val usage : t -> int * int
(** [(entries, bytes)] currently on disk, by walking the store. *)

val gc : t -> ?max_bytes:int -> unit -> int
(** Evict least-recently-modified entries until total size fits under
    [max_bytes] (default {!max_bytes}). Returns the number
    of files removed. Safe to run concurrently with readers/writers:
    losing a race to a concurrent delete is not an error. *)
