(* Pipelining hints: the product of the schedule transformation (paper
   Sec. II). Each hint marks one buffer as pipelined and records the number
   of stages; [inner_fuse] asks for inner-pipeline fusion (paper Fig. 3d)
   when this buffer's pipeline is nested inside another pipeline. *)

type hint = {
  buffer : string;
  stages : int;
  inner_fuse : bool;
}

type t = hint list

let make ?(inner_fuse = true) ~buffer ~stages () =
  if stages < 2 then invalid_arg "Hints.make: a pipeline needs at least 2 stages";
  { buffer; stages; inner_fuse }

let empty : t = []

let add t hint =
  if List.exists (fun h -> String.equal h.buffer hint.buffer) t then
    invalid_arg ("Hints.add: duplicate hint for buffer " ^ hint.buffer)
  else hint :: t

let find t buffer = List.find_opt (fun h -> String.equal h.buffer buffer) t

let mem t buffer = find t buffer <> None

let buffers t = List.map (fun h -> h.buffer) t
