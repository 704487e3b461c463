(** Differential finding reports and suppression baselines.

    Findings are serialized to a plain-text, line-oriented format
    (["safeflow-findings/1"]) keyed by {!Fingerprint} identities, so two
    runs — across commits, cache states or machines — can be
    diffed into {e new} / {e fixed} / {e unchanged} classes.  The classes
    drive CI gating: a checked-in baseline file suppresses known
    findings, and the exit code reflects only what is new.

    File format: a header line [# safeflow-findings/1 <fingerprint
    version>], then one finding per line:
    [<fingerprint> <code> <file>:<line>:<col> <message>]. *)

type entry = {
  e_fp : string;     (** hex fingerprint ({!Fingerprint.compute}) *)
  e_code : string;   (** diagnostic code *)
  e_where : string;  (** printed location, [file:line:col] *)
  e_msg : string;    (** one-line message *)
}

val format_version : string
(** ["safeflow-findings/1"] *)

val entries_of_report : Fingerprint.ctx -> file:string -> Report.t -> entry list
(** the report's findings as entries, in canonical report order *)

val to_string : entry list -> string

val save : string -> entry list -> unit

val parse : string -> entry list
(** parse findings-file content.
    @raise Failure on a missing or incompatible header *)

val looks_like_findings : string -> bool
(** content sniff: does this text start with the findings header?
    (used by [safeflow diff] to accept findings files and sources) *)

val load : string -> entry list
(** {!parse} of a file's content *)

(** A classified delta between two runs.  Multiplicity is respected: if
    a fingerprint occurs twice before and once after, one occurrence is
    fixed and one unchanged. *)
type diff = {
  d_new : entry list;
  d_fixed : entry list;
  d_unchanged : entry list;
}

val diff : baseline:entry list -> current:entry list -> diff

val pp_diff : Format.formatter -> diff -> unit

(** {1 CI gating} *)

val is_error_code : string -> bool
(** [true] for codes whose registered level is [`Error]
    (E-CRITICAL-DEP and the restriction violations) *)

val gate : fail_on:[ `Never | `Error | `Warning ] -> entry list -> int
(** exit code for a finding set (the whole report, or [diff.d_new] when
    a baseline is in play): 0 when nothing gates, 1 when an error-level
    finding gates, 2 when only warning-level findings gate *)
