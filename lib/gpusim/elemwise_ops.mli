(** Registry of element-wise functions that can be fused into copies (paper
    Fig. 5's f) or materialized as separate stages. *)

val find_exn : string -> float -> float
(** @raise Invalid_argument on unknown names. *)

