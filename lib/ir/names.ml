(* Name lookups for the compile path.

   Buffer, loop-variable and pipeline-group names are strings, and the
   passes look them up in short lists and small tables many times per
   compile. [mem] compares with [String.equal] rather than the
   polymorphic [compare] behind [List.mem]; it scans in the same order
   and answers the same. [Tbl] hashes with [String.hash],
   which equals [Hashtbl.hash] on strings, so a table keeps the bucket
   layout, [find_all] order and iteration order of a generic [Hashtbl]. *)

let rec mem name = function
  | [] -> false
  | n :: rest -> String.equal n name || mem name rest

module Tbl = Hashtbl.Make (String)
