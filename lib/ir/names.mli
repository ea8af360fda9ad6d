(** Name lookups for the compile path: a [String.equal]-based
    replacement for [List.mem] on names, and a string-keyed hash table.
    Each scans or hashes exactly as its generic counterpart does, so
    results and orders are unchanged. *)

val mem : string -> string list -> bool

module Tbl : Hashtbl.S with type key = string
(** Hashes with [String.hash] (equal to [Hashtbl.hash] on strings):
    same buckets, [find_all] order and iteration order as [Hashtbl]. *)
