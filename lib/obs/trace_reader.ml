(* Streaming JSONL reader: the inverse of [Sinks.jsonl]. Parses sink
   output back into [Obs.event]s and reconstructs the derived state —
   span trees, final counter/gauge values, point events, histograms — so
   analyses ("why is variant A faster", "did this change regress a pass")
   run on logs instead of on a live process.

   Parsing is line-by-line on [Json.of_string]; a malformed line (torn
   write, truncation, bit rot) is skipped and *counted*, never raised
   mid-stream — a reader that dies on line 48 of a 50k-line log helps
   nobody. The count travels with the result ([tr_skipped], the [int]
   halves of the tuples below) so callers surface one warning instead of
   silently pretending the log was whole. *)

(* --- file / JSONL plumbing --- *)

let read_all path =
  match open_in path with
  | exception Sys_error msg -> Error msg
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> Ok (really_input_string ic (in_channel_length ic)))

let json_of_file path =
  match read_all path with
  | Error _ as e -> e
  | Ok contents ->
    (match Json.of_string (String.trim contents) with
     | Ok j -> Ok j
     | Error e -> Error (path ^ ": " ^ e))

(* Fold over a JSONL file one parsed line at a time, never holding the
   file whole; malformed lines are skipped and counted. *)
let fold_jsonl_file path ~init ~f =
  match open_in path with
  | exception Sys_error msg -> Error msg
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let skipped = ref 0 in
        let rec go acc =
          match input_line ic with
          | exception End_of_file -> Ok (acc, !skipped)
          | line when String.trim line = "" -> go acc
          | line ->
            (match Json.of_string line with
             | Ok j -> go (f acc j)
             | Error _ ->
               incr skipped;
               go acc)
        in
        go init)

(* --- events --- *)

let field_str key j =
  match Json.member key j with Some (Json.Str s) -> Some s | _ -> None

let field_num key j = Option.bind (Json.member key j) Json.number

let field_int key j =
  match Json.member key j with Some (Json.Int i) -> Some i | _ -> None

let field_obj key j =
  match Json.member key j with Some (Json.Obj fields) -> fields | _ -> []

let event_of_json j =
  let require what = function
    | Some v -> Ok v
    | None -> Error ("event missing " ^ what)
  in
  let ( let* ) = Result.bind in
  match field_str "type" j with
  | None -> Error "event without a \"type\" field"
  | Some "span_begin" ->
    let* name = require "name" (field_str "name" j) in
    let* ts = require "ts" (field_num "ts" j) in
    let* depth = require "depth" (field_int "depth" j) in
    Ok (Obs.Span_begin { name; ts; depth })
  | Some "span" ->
    let* name = require "name" (field_str "name" j) in
    let* ts = require "ts" (field_num "ts" j) in
    let* dur = require "dur" (field_num "dur" j) in
    let* depth = require "depth" (field_int "depth" j) in
    Ok (Obs.Span_end { name; ts; dur; depth; fields = field_obj "fields" j })
  | Some "counter" ->
    let* name = require "name" (field_str "name" j) in
    let* incr = require "incr" (field_int "incr" j) in
    let* total = require "total" (field_int "total" j) in
    let* ts = require "ts" (field_num "ts" j) in
    Ok (Obs.Counter { name; incr; total; ts })
  | Some "gauge" ->
    let* name = require "name" (field_str "name" j) in
    let* value = require "value" (field_num "value" j) in
    let* ts = require "ts" (field_num "ts" j) in
    Ok (Obs.Gauge { name; value; ts })
  | Some "point" ->
    let* name = require "name" (field_str "name" j) in
    let* ts = require "ts" (field_num "ts" j) in
    Ok (Obs.Point { name; ts; fields = field_obj "fields" j })
  | Some "hist" ->
    let* name = require "name" (field_str "name" j) in
    let* value = require "value" (field_num "value" j) in
    let* ts = require "ts" (field_num "ts" j) in
    Ok (Obs.Hist { name; value; ts })
  | Some other -> Error ("unknown event type " ^ other)

let events_of_jsonl text =
  let lines = String.split_on_char '\n' text in
  let skipped = ref 0 in
  let rec go acc = function
    | [] -> (List.rev acc, !skipped)
    | line :: rest when String.trim line = "" -> go acc rest
    | line :: rest ->
      (match Result.bind (Json.of_string line) event_of_json with
       | Ok ev -> go (ev :: acc) rest
       | Error _ ->
         incr skipped;
         go acc rest)
  in
  go [] lines

let events_of_file path =
  match
    fold_jsonl_file path ~init:([], 0) ~f:(fun (evs, bad) j ->
        match event_of_json j with
        | Ok ev -> (ev :: evs, bad)
        | Error _ -> (evs, bad + 1))
  with
  | Error _ as e -> e
  | Ok ((evs, bad), skipped) -> Ok (List.rev evs, bad + skipped)

(* --- trace reconstruction --- *)

type span = {
  sp_name : string;
  sp_start : float;
  sp_dur : float;
  sp_depth : int;
  sp_fields : (string * Json.t) list;
  sp_children : span list;
}

type point = {
  pt_name : string;
  pt_ts : float;
  pt_fields : (string * Json.t) list;
}

type trace = {
  tr_events : int;
  tr_skipped : int;
  tr_spans : span list;
  tr_counters : (string * int) list;
  tr_gauges : (string * float) list;
  tr_points : point list;
  tr_hists : (string * Obs.histogram) list;
}

(* Span_end events arrive in completion (post) order carrying their
   nesting depth, so the forest rebuilds with one pending-children table:
   a span closing at depth d adopts everything pending at depth d+1.
   Spans that never closed (truncated log) are simply absent; orphans at
   depth > 0 whose parent never closed surface as extra roots. *)
let trace_of_events events =
  let pending : (int, span list) Hashtbl.t = Hashtbl.create 8 in
  let take depth =
    match Hashtbl.find_opt pending depth with
    | Some spans ->
      Hashtbl.remove pending depth;
      List.rev spans
    | None -> []
  in
  let push depth span =
    Hashtbl.replace pending depth
      (span :: Option.value ~default:[] (Hashtbl.find_opt pending depth))
  in
  let counters : (string, int) Hashtbl.t = Hashtbl.create 8 in
  let gauges : (string, float) Hashtbl.t = Hashtbl.create 8 in
  let hists : (string, Obs.histogram) Hashtbl.t = Hashtbl.create 8 in
  let points = ref [] in
  let n = ref 0 in
  List.iter
    (fun ev ->
      incr n;
      match (ev : Obs.event) with
      | Obs.Span_begin _ -> ()
      | Obs.Span_end { name; ts; dur; depth; fields } ->
        let children = take (depth + 1) in
        push depth
          { sp_name = name; sp_start = ts; sp_dur = dur; sp_depth = depth;
            sp_fields = fields; sp_children = children }
      | Obs.Counter { name; total; _ } -> Hashtbl.replace counters name total
      | Obs.Gauge { name; value; _ } -> Hashtbl.replace gauges name value
      | Obs.Hist { name; value; _ } ->
        let h =
          Option.value ~default:(Obs.hist_empty ()) (Hashtbl.find_opt hists name)
        in
        Hashtbl.replace hists name (Obs.hist_observe h value)
      | Obs.Point { name; ts; fields } ->
        points := { pt_name = name; pt_ts = ts; pt_fields = fields } :: !points)
    events;
  let roots =
    Hashtbl.fold (fun _ spans acc -> List.rev_append spans acc) pending []
    |> List.sort (fun a b -> compare (a.sp_start, a.sp_depth) (b.sp_start, b.sp_depth))
  in
  let sorted_assoc fold_tbl project =
    List.sort compare (fold_tbl (fun k v acc -> (k, project v) :: acc) [])
  in
  { tr_events = !n;
    tr_skipped = 0;
    tr_spans = roots;
    tr_counters = sorted_assoc (fun f -> Hashtbl.fold f counters) Fun.id;
    tr_gauges = sorted_assoc (fun f -> Hashtbl.fold f gauges) Fun.id;
    tr_points = List.rev !points;
    tr_hists = sorted_assoc (fun f -> Hashtbl.fold f hists) Fun.id }

let trace_of_jsonl text =
  let evs, skipped = events_of_jsonl text in
  Ok { (trace_of_events evs) with tr_skipped = skipped }

let load path =
  Result.map
    (fun (evs, skipped) -> { (trace_of_events evs) with tr_skipped = skipped })
    (events_of_file path)

(* --- small conveniences over a trace --- *)

let rec iter_spans f spans =
  List.iter
    (fun s ->
      f s;
      iter_spans f s.sp_children)
    spans

let span_count trace =
  let n = ref 0 in
  iter_spans (fun _ -> incr n) trace.tr_spans;
  !n

