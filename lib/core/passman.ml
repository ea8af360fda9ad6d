(* The pass manager: compile phases as first-class, instrumented passes.
   See the interface for the contract. *)

module Obs = Alcop_obs.Obs

type info = {
  name : string;
  title : string;
  produces_ir : bool;
}

let pipeline =
  [ { name = "schedule"; produces_ir = false;
      title = "construct the GEMM schedule (tiling, pipelining hints)" };
    { name = "lower"; produces_ir = true;
      title = "lower the schedule to the canonical tensor-core loop nest" };
    { name = "pipeline"; produces_ir = true;
      title = "multi-stage multi-level pipelining transformation" };
    { name = "trace"; produces_ir = false;
      title = "extract the representative threadblock event trace" };
    { name = "timing"; produces_ir = false;
      title = "event-driven timing simulation" } ]

let find name = List.find_opt (fun p -> String.equal p.name name) pipeline

let names = List.map (fun p -> p.name) pipeline

let ir_pass_names =
  List.filter_map (fun p -> if p.produces_ir then Some p.name else None)
    pipeline

(* --- IR dump hook --- *)

let dump_hook : (string * (string -> Alcop_ir.Kernel.t -> unit)) option ref =
  ref None

let set_dump ~after f =
  match find after with
  | Some { produces_ir = true; _ } ->
    dump_hook := Some (after, f);
    Ok ()
  | Some { produces_ir = false; _ } ->
    Error
      (Printf.sprintf "pass %s produces no IR to dump (IR passes: %s)" after
         (String.concat ", " ir_pass_names))
  | None ->
    Error
      (Printf.sprintf "unknown pass %s (passes: %s)" after
         (String.concat ", " names))

let clear_dump () = dump_hook := None

(* --- running one pass --- *)

let run ~name ?ir_of f =
  (* Host-profile allocation sampling is independent of [Obs.enabled]:
     it writes per-domain shards, not the Obs tables, so turning it on
     never changes the telemetry stream (doc/hostprof.md). *)
  let f =
    if Alcop_obs.Hostprof.on () then
      fun () -> Alcop_obs.Hostprof.pass_sample name f
    else f
  in
  let result =
    if not (Obs.enabled ()) then f ()
    else
      Obs.with_span ("compile." ^ name) @@ fun () ->
      let t0 = Obs.now () in
      let r = f () in
      let ms = 1e3 *. (Obs.now () -. t0) in
      Obs.gauge ("pass." ^ name ^ ".ms") ms;
      (* the gauge keeps only the latest run; the histogram keeps the
         distribution across a session's many compiles *)
      Obs.observe ("pass." ^ name ^ ".ms") ms;
      Obs.count ("pass." ^ name ^ ".runs");
      r
  in
  (match (ir_of, !dump_hook) with
   | Some extract, Some (after, dump) when String.equal after name ->
     Option.iter (dump name) (extract result)
   | _ -> ());
  result
