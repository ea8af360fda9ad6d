(** Integer index expressions used for loop extents and buffer offsets.

    Division and modulo follow the floor convention, matching CUDA index
    arithmetic on non-negative loop variables. *)

type t =
  | Const of int
  | Var of string
  | Add of t * t
  | Sub of t * t
  | Mul of t * t
  | Div of t * t
  | Mod of t * t
  | Min of t * t
  | Max of t * t

val equal : t -> t -> bool

val const : int -> t
val var : string -> t
val zero : t
val one : t

(** Smart constructors with light constant folding. *)

val add : t -> t -> t
val sub : t -> t -> t
(** Test-only: tests write index expressions with it. *)

val mul : t -> t -> t
val div : t -> t -> t
val modulo : t -> t -> t
val min_ : t -> t -> t
(** Test-only: tests write index expressions with it. *)

val max_ : t -> t -> t
(** Test-only: tests write index expressions with it. *)

val floordiv_int : int -> int -> int
val floormod_int : int -> int -> int

val eval : (string -> int option) -> t -> int
(** Evaluate under an environment. @raise Invalid_argument on unbound
    variables or division by zero. *)

val eval_const : t -> int option
(** [eval_const e] is the value of [e] if it mentions no variables. *)

val subst : string -> t -> t -> t
(** [subst x r e] replaces every free occurrence of [x] in [e] with [r],
    re-simplifying on the way up. A subtree that does not mention [x]
    comes back physically unchanged, so [subst x r e == e] then. *)

val free_vars : t -> string list
(** Free variables in first-occurrence order. *)

val mentions : string -> t -> bool

val simplify : t -> t

val pp : Format.formatter -> t -> unit
val to_string : t -> string
