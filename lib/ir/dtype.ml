(* Element data types of tensors. ALCOP's evaluation uses half precision on
   tensor cores; we carry the type mainly to compute byte volumes for the
   memory system and to document kernel signatures. *)

type t =
  | F16
  | F32
  | I32
  | I8

let size_bytes = function
  | F16 -> 2
  | F32 -> 4
  | I32 -> 4
  | I8 -> 1

let to_string = function
  | F16 -> "f16"
  | F32 -> "f32"
  | I32 -> "i32"
  | I8 -> "i8"

let of_string = function
  | "f16" -> Some F16
  | "f32" -> Some F32
  | "i32" -> Some I32
  | "i8" -> Some I8
  | _ -> None

let pp fmt t = Format.pp_print_string fmt (to_string t)

(* Quantization grid used by the functional interpreter to emulate reduced
   precision: f16 values are rounded to the nearest representable half float
   so that pipelined and non-pipelined executions agree bit-for-bit even when
   the accumulation order is preserved but storage precision matters. *)
let quantize t (x : float) =
  match t with
  | F32 -> x
  | F16 ->
    (* Round to 11 bits of mantissa (1 implicit + 10 stored). *)
    if x = 0.0 || not (Float.is_finite x) then x
    else
      let m, e = Float.frexp x in
      let scale = Float.ldexp 1.0 11 in
      Float.ldexp (Float.round (m *. scale) /. scale) e
  | I32 -> Float.round x
  | I8 ->
    let r = Float.round x in
    Float.max (-128.) (Float.min 127. r)
