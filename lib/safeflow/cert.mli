(** Certificate emission ([safeflow analyze --emit-certs DIR]).

    A bundle is a directory holding one JSON certificate per finding and
    per discharged A1/A2 obligation or P1–P3 site, an [absenv.json]
    snapshot of the value-range fixpoint, and a [manifest.json] binding
    every certificate (by content digest) to the {!Digest_ir} program
    fingerprint.  The schema is {!Checker.schema} ([safeflow-cert/1]);
    bundles are validated by the independent [checker] library
    ([safeflow check-cert]), which re-verifies every certificate against
    freshly parsed IR using only local checks.

    Before anything is written to disk, the whole bundle is self-checked
    in memory with {!Checker.validate}; a certificate the independent
    checker would reject is demoted to the manifest's [skipped] list
    (with the rejection reason) rather than shipped — the emitter never
    publishes a certificate it cannot replay. *)

val schema : string
(** {!Checker.schema}, re-exported for the CLI *)

val explain_schema : string
(** ["safeflow-explain/1"] — the [safeflow explain --json] document *)

val steps_json : Report.path_step list -> Jsonlite.t
(** witness steps with their {!Checker.step_link} hash chain; shared by
    witness certificates and [explain --json] so both encode paths
    identically *)

val check_finding_binding :
  Ssair.Ir.program -> Jsonlite.t -> (unit, string) result
(** [check_finding_binding ir] is the [?check_finding] callback for
    {!Checker.validate}: reconstruct the finding a certificate records,
    recompute its {!Fingerprint.compute} against the freshly parsed
    program, and require it to equal the certificate id.  Used both by
    the emitter's self-check and by [safeflow check-cert]. *)

type summary = {
  cs_dir : string;  (** the bundle directory *)
  cs_written : int;  (** certificates written (excluding absenv/manifest) *)
  cs_kinds : (string * int) list;  (** written certificates per kind, sorted *)
  cs_skipped : (string * string) list;
      (** (certificate id, reason) for obligations the emitter could not
          certify; also listed in the manifest *)
}

val emit_bundle :
  ?config:Config.t ->
  label:string ->
  dir:string ->
  Driver.analysis ->
  (summary, string) result
(** Emit the certificate bundle for one analyzed system.  [label] is the
    source path recorded in the manifest.  [Error _] means the manifest
    or absenv failed their own self-check (individual certificate
    failures only demote to [skipped]).  A directory that cannot be
    written raises [Sys_error] or [Unix.Unix_error]. *)

val explain_json : label:string -> Driver.analysis -> Jsonlite.t
(** the [safeflow explain --json] document: every finding with its
    fingerprint id, dependencies carrying their full witness chain in
    the certificate step encoding *)
