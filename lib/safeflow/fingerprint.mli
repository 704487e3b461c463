(** Stable, content-addressed identities for analysis findings.

    A fingerprint names {e what} a finding is about — diagnostic code,
    function, the symbol or witness involved, and the source span
    normalized to the enclosing function — never {e where in the run} it
    was produced.  Fingerprints are therefore invariant under:

    - propagation visit order (checked against the phase-3 test oracle)
      and parallelism settings;
    - cache state (no cache / cold / warm / dirty);
    - reordering of findings within a report;
    - reordering of functions within the source file, and unrelated
      edits that only shift other functions' line numbers (spans are
      recorded relative to the enclosing function's first line);

    which is exactly what lets {!Diffreport} track a finding across
    commits.  Construction reuses {!Digest_ir} machinery: each
    fingerprint is the hex MD5 of a canonical encoding of pure data. *)

open Minic

type finding =
  | Violation of Report.violation
  | Warning of Report.warning
  | Dependency of Report.dependency
  | Info of Report.info

val code : finding -> string  (** the diagnostic code ({!Report.rules}) *)

val loc : finding -> Loc.t

val func : finding -> string  (** enclosing function *)

val message : finding -> string
(** one-line human description (no embedded locations) *)

(** Normalization context: function name ↦ first source line, used to
    express finding spans relative to their enclosing function. *)
type ctx

val ctx_of_program : Ssair.Ir.program -> ctx

val ctx_empty : ctx
(** degrades gracefully: spans stay absolute for unknown functions *)

val compute : ctx -> finding -> string
(** hex fingerprint (32 chars) *)

val of_report : ctx -> Report.t -> (string * finding) list
(** every finding of the report paired with its fingerprint, in the
    report's canonical order (violations, then warnings, then
    dependencies, then infos) *)

val version : string
(** the fingerprint construction version, recorded in SARIF
    [partialFingerprints] keys and findings-file headers;
    ["safeflow-fingerprint/1"] *)
