(** Content-addressed fingerprints of compilation inputs.

    A fingerprint is the MD5 digest of a canonical JSON rendering of
    everything that determines a compilation's result: the operator
    specification, the schedule point, the hardware configuration (as its
    own digest, {!hw_digest}) and the extra register pressure a compiler
    variant models. Two compile requests receive the same fingerprint
    exactly when the compiler would produce bit-identical output for both
    — which is what makes fingerprints safe as keys of the {!Session}
    artifact cache.

    Floats (hardware rates, latencies) are rendered with
    {!Alcop_obs.Json.float_repr}, the shortest round-tripping form, so
    equal doubles always canonicalize to equal text and the digest never
    depends on printf locale or precision accidents. *)

type t
(** An MD5 digest; total order and equality are structural. *)

val to_hex : t -> string
(** 32 lowercase hex characters. *)

val equal : t -> t -> bool
(** Test-only: tests compare keys; the session table hashes them
    structurally. *)

val hw_digest : Alcop_hw.Hw_config.t -> string
(** Hex MD5 of the canonical JSON document of a hardware config — the
    ["hw"] field of every compile key. The last config digested is
    memoized on physical equality, so repeated calls with one config
    value render it once. *)

val schema_version : int
(** Test-only: tests pin the current key layout.
    Version tag folded into {!compile_key}. Bumped whenever compiler
    semantics, artifact representation or the key's serialization change
    (v2: packed-program traces; v3: the hw config enters as
    {!hw_digest}), so cache entries can never replay across them. *)

val compile_key :
  hw:Alcop_hw.Hw_config.t ->
  extra_regs_per_thread:int ->
  Alcop_perfmodel.Params.t ->
  Alcop_sched.Op_spec.t ->
  t
(** The cache key of one [Compiler.compile] invocation, under the current
    {!schema_version}. *)

val compile_key_v :
  version:int ->
  hw:Alcop_hw.Hw_config.t ->
  extra_regs_per_thread:int ->
  Alcop_perfmodel.Params.t ->
  Alcop_sched.Op_spec.t ->
  t
(** Test-only: the schema-bump test proves with it that old-version keys
    cannot alias current ones.
    {!compile_key} under an explicit schema version. *)
