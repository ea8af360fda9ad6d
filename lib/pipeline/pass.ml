(* The complete pipelining pass: analysis followed by transformation.

   This is the compiler pass a user of the library calls; it corresponds to
   the "pipelining program transformation" box of the ALCOP architecture
   (paper Fig. 4). *)

open Alcop_ir

type result = {
  kernel : Kernel.t;
  analysis : Analysis.t;
}

let groups r = r.analysis.Analysis.groups

let run ~hw ~hints kernel =
  match Analysis.run ~hw ~hints kernel with
  | Ok analysis ->
    let kernel = Transform.run analysis kernel in
    Validate.check_exn kernel;
    Alcop_obs.Obs.count "pipeline.pass.ok";
    Alcop_obs.Obs.count ~n:(List.length analysis.Analysis.groups)
      "pipeline.groups";
    Ok { kernel; analysis }
  | Error rejection ->
    Alcop_obs.Obs.count "pipeline.pass.rejected";
    Alcop_obs.Obs.count
      (Printf.sprintf "pipeline.rejected.rule%d" rejection.Analysis.rule);
    Error rejection
