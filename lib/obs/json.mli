(** Minimal JSON tree: the one emitter (escaping, float formatting, null)
    shared by the tuning logs, every observability sink, the compile keys
    and the artifact store, and the one parser, which reads artifact-store
    records, trace JSONL ([Trace_reader]) and selfbench records ([Benchdb]).
    The repository carries no external JSON dependency. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val float_repr : float -> string
(** Test-only: the fingerprint tests check float stability with it.
    The exact float text {!to_string} emits: the shortest of ["%.12g"] /
    ["%.17g"] that re-parses to the identical double (["null"] for
    non-finite values). Equal doubles always produce equal strings, which
    is what makes it safe as a canonical form for content fingerprints. *)

val to_string : t -> string
(** Compact (single-line) serialization. Non-finite floats serialize as
    [null] — JSON has no NaN/infinity. Finite floats use the shortest of
    ["%.12g"] / ["%.17g"] that re-parses to the identical double, so
    serialize-then-parse round-trips every finite [Float] exactly. *)

val of_string : string -> (t, string) result
(** Parse one JSON document. Numbers with a fraction or exponent parse as
    [Float], others as [Int] (or [Float] when they overflow an int). A
    [\u] escape takes exactly four hex digits. A malformed document is
    an [Error] whose payload names the offset. *)

val member : string -> t -> t option
(** Field lookup on an [Obj]; [None] on anything else. *)

val number : t -> float option
(** [Int] or [Float] as a float. *)
