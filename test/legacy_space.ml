(* Frozen copy of the string-keyed space index and knob-neighbour move.

   This is [Space.index] and [Space.neighbour] exactly as they stood
   before the mixed-radix integer key landed: each point is keyed by its
   [Params.to_string] form in a [Hashtbl], and a move rebuilds the
   candidate with [Tiling.make]/[Params.make] and looks its string up. It
   exists only as the reference side of the neighbour-equivalence tests in
   [Test_tune]: from the same random state, the integer index must return
   the same sequence of indices. Do not "improve" it; its value is that it
   does not change. *)

open Alcop_sched

type indexed = {
  points : Alcop_perfmodel.Params.t array;
  index_of : (string, int) Hashtbl.t;
}

let index points =
  let index_of = Hashtbl.create (Array.length points) in
  Array.iteri
    (fun i p -> Hashtbl.replace index_of (Alcop_perfmodel.Params.to_string p) i)
    points;
  { points; index_of }

let knob_values (p : Alcop_perfmodel.Params.t) =
  let t = p.Alcop_perfmodel.Params.tiling in
  [| t.Tiling.tb_m; t.Tiling.tb_n; t.Tiling.tb_k; t.Tiling.warp_m;
     t.Tiling.warp_n; t.Tiling.warp_k; p.Alcop_perfmodel.Params.smem_stages;
     p.Alcop_perfmodel.Params.reg_stages; t.Tiling.split_k |]

let of_knobs (p : Alcop_perfmodel.Params.t) knobs =
  let tiling =
    Tiling.make ~tb_m:knobs.(0) ~tb_n:knobs.(1) ~tb_k:knobs.(2)
      ~warp_m:knobs.(3) ~warp_n:knobs.(4) ~warp_k:knobs.(5)
      ~split_k:knobs.(8) ()
  in
  Alcop_perfmodel.Params.make ~swizzle:p.Alcop_perfmodel.Params.swizzle ~tiling
    ~smem_stages:knobs.(6) ~reg_stages:knobs.(7) ()

let neighbour (idx : indexed) rng i =
  let p = idx.points.(i) in
  let knobs = knob_values p in
  let axis_options = [|
    [ 16; 32; 64; 128; 256 ]; [ 16; 32; 64; 128; 256 ]; [ 16; 32; 64 ];
    [ 16; 32; 64; 128 ]; [ 16; 32; 64; 128 ]; [ 16; 32 ];
    [ 1; 2; 3; 4 ]; [ 1; 2 ]; [ 1; 2; 4 ];
  |] in
  let rec attempt tries =
    if tries = 0 then Random.State.int rng (Array.length idx.points)
    else begin
      let axis = Random.State.int rng 9 in
      let options = axis_options.(axis) in
      let v = List.nth options (Random.State.int rng (List.length options)) in
      if v = knobs.(axis) then attempt (tries - 1)
      else begin
        let knobs' = Array.copy knobs in
        knobs'.(axis) <- v;
        match of_knobs p knobs' with
        | candidate ->
          (match
             Hashtbl.find_opt idx.index_of
               (Alcop_perfmodel.Params.to_string candidate)
           with
           | Some j -> j
           | None -> attempt (tries - 1))
        | exception Invalid_argument _ -> attempt (tries - 1)
      end
    end
  in
  attempt 12
