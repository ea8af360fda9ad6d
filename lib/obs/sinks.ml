(* Built-in sinks: JSONL event log, Chrome trace-event export, pretty
   console summary. All serialization goes through [Json] so escaping and
   float formatting are uniform across sinks and tuning logs. *)

let file_writer path =
  let oc = open_out path in
  ((fun s -> output_string oc s), fun () -> close_out oc)

(* --- JSONL --- *)

let fields_obj fields = Json.Obj fields

let json_of_event (ev : Obs.event) =
  match ev with
  | Obs.Span_begin { name; ts; depth } ->
    Json.Obj
      [ ("type", Json.Str "span_begin"); ("name", Json.Str name);
        ("ts", Json.Float ts); ("depth", Json.Int depth) ]
  | Obs.Span_end { name; ts; dur; depth; fields } ->
    Json.Obj
      [ ("type", Json.Str "span"); ("name", Json.Str name);
        ("ts", Json.Float ts); ("dur", Json.Float dur);
        ("depth", Json.Int depth); ("fields", fields_obj fields) ]
  | Obs.Counter { name; incr; total; ts } ->
    Json.Obj
      [ ("type", Json.Str "counter"); ("name", Json.Str name);
        ("incr", Json.Int incr); ("total", Json.Int total);
        ("ts", Json.Float ts) ]
  | Obs.Gauge { name; value; ts } ->
    Json.Obj
      [ ("type", Json.Str "gauge"); ("name", Json.Str name);
        ("value", Json.Float value); ("ts", Json.Float ts) ]
  | Obs.Point { name; ts; fields } ->
    Json.Obj
      [ ("type", Json.Str "point"); ("name", Json.Str name);
        ("ts", Json.Float ts); ("fields", fields_obj fields) ]
  | Obs.Hist { name; value; ts } ->
    Json.Obj
      [ ("type", Json.Str "hist"); ("name", Json.Str name);
        ("value", Json.Float value); ("ts", Json.Float ts) ]

let jsonl write =
  { Obs.emit = (fun ev -> write (Json.to_string (json_of_event ev) ^ "\n"));
    close = (fun () -> ()) }

let jsonl_file path =
  let write, close = file_writer path in
  let s = jsonl write in
  { s with Obs.close = close }

(* --- Chrome trace events --- *)

(* Reserved routing fields: a producer may attach ["#pid"] / ["#tid"]
   (ints) to a span or point to place it on a specific track, and
   ["#process_name"] / ["#thread_name"] (strings) to label that track via
   Chrome "M" metadata events (emitted once per track). Reserved fields
   are stripped from the exported [args]. *)
let is_reserved (k, _) = String.length k > 0 && k.[0] = '#'

let reserved_int fields key ~default =
  match List.assoc_opt key fields with Some (Json.Int i) -> i | _ -> default

let reserved_str fields key =
  match List.assoc_opt key fields with Some (Json.Str s) -> Some s | _ -> None

(* Timestamps are relative to the first event seen, so the trace opens at
   t=0 regardless of the clock's epoch. [ts_to_us] converts a clock delta
   to Chrome microseconds: the default clock is wall-clock seconds, but a
   simulated-time producer (e.g. the gpusim profiler, whose clock is
   cycles) passes its own scale. *)
let chrome_trace ?(ts_to_us = fun d -> d *. 1e6) write =
  let recorded : (float * Json.t) list ref = ref [] in
  let origin = ref None in
  let meta_seen : (int * int * string, unit) Hashtbl.t = Hashtbl.create 8 in
  let us ts =
    let o = match !origin with Some o -> o | None -> origin := Some ts; ts in
    ts_to_us (ts -. o)
  in
  let push ts j = recorded := (ts, j) :: !recorded in
  let meta ~pid ~tid kind label =
    if not (Hashtbl.mem meta_seen (pid, tid, kind)) then begin
      Hashtbl.replace meta_seen (pid, tid, kind) ();
      (* metadata sorts before every timed event *)
      push neg_infinity
        (Json.Obj
           [ ("name", Json.Str kind); ("ph", Json.Str "M");
             ("pid", Json.Int pid); ("tid", Json.Int tid);
             ("args", Json.Obj [ ("name", Json.Str label) ]) ])
    end
  in
  (* Resolve routing for an event's fields: (pid, tid, cleaned args). *)
  let route fields =
    let pid = reserved_int fields "#pid" ~default:1 in
    let tid = reserved_int fields "#tid" ~default:1 in
    (match reserved_str fields "#process_name" with
     | Some label -> meta ~pid ~tid:0 "process_name" label
     | None -> ());
    (match reserved_str fields "#thread_name" with
     | Some label -> meta ~pid ~tid "thread_name" label
     | None -> ());
    (pid, tid, List.filter (fun f -> not (is_reserved f)) fields)
  in
  let common name ph ts ~pid ~tid =
    [ ("name", Json.Str name); ("ph", Json.Str ph); ("ts", Json.Float ts);
      ("pid", Json.Int pid); ("tid", Json.Int tid) ]
  in
  let emit (ev : Obs.event) =
    match ev with
    | Obs.Span_begin { ts; _ } ->
      (* spans are written as complete events at Span_end, whose ts is the
         span's *start* — anchor the origin here or events recorded inside
         the first span would push it later and make that ts negative *)
      ignore (us ts)
    | Obs.Span_end { name; ts; dur; fields; _ } ->
      let t = us ts in
      let pid, tid, args = route fields in
      push t
        (Json.Obj
           (common name "X" t ~pid ~tid
            @ [ ("dur", Json.Float (ts_to_us dur)); ("args", fields_obj args) ]))
    | Obs.Counter { name; total; ts; _ } ->
      let t = us ts in
      push t
        (Json.Obj
           (common name "C" t ~pid:1 ~tid:1
            @ [ ("args", Json.Obj [ ("value", Json.Int total) ]) ]))
    | Obs.Gauge { name; value; ts } ->
      let t = us ts in
      push t
        (Json.Obj
           (common name "C" t ~pid:1 ~tid:1
            @ [ ("args", Json.Obj [ ("value", Json.Float value) ]) ]))
    | Obs.Hist { name; value; ts } ->
      (* each observation renders as a counter sample, so the observed
         value's trajectory is visible as a track *)
      let t = us ts in
      push t
        (Json.Obj
           (common name "C" t ~pid:1 ~tid:1
            @ [ ("args", Json.Obj [ ("value", Json.Float value) ]) ]))
    | Obs.Point { name; ts; fields } ->
      let t = us ts in
      let pid, tid, args = route fields in
      push t
        (Json.Obj
           (common name "i" t ~pid ~tid
            @ [ ("s", Json.Str "t"); ("args", fields_obj args) ]))
  in
  let close () =
    let events =
      List.stable_sort (fun (a, _) (b, _) -> compare a b) (List.rev !recorded)
    in
    write
      (Json.to_string
         (Json.Obj
            [ ("traceEvents", Json.List (List.map snd events));
              ("displayTimeUnit", Json.Str "ms") ]));
    write "\n"
  in
  { Obs.emit; close }

let chrome_trace_file ?ts_to_us path =
  let write, close_file = file_writer path in
  let s = chrome_trace ?ts_to_us write in
  { s with Obs.close = (fun () -> s.Obs.close (); close_file ()) }

let emit_all (sink : Obs.sink) events =
  List.iter sink.Obs.emit events;
  sink.Obs.close ()
