(** Diagnostics produced by the analysis, using the paper's terminology:
    warnings (unmonitored non-core reads), error dependencies
    (data-dependent critical data) and control-only dependencies (the
    false-positive class needing value-flow-graph review). *)

open Minic

type restriction = P1 | P2 | P3 | A1 | A2

val pp_restriction : Format.formatter -> restriction -> unit

type violation = {
  v_rule : restriction;
  v_func : string;
  v_loc : Loc.t;
  v_msg : string;
}

type warning = {
  w_func : string;
  w_region : string;
  w_loc : Loc.t;
  w_context : string list;  (** monitor assumptions active at the read *)
}

type dep_kind = Data | Control_only

val pp_dep_kind : Format.formatter -> dep_kind -> unit

(** One step of a structured value-flow witness.  Steps chain by
    identity: step [i+1].p_parent = Some (step [i].p_key), except across
    synthetic narrative steps (empty [p_key]). *)
type path_step = {
  p_desc : string;           (** printed entity, e.g. ["decision:%12"] *)
  p_why : string option;     (** why taint reached this step; [None] at sources *)
  p_key : string;            (** opaque entity identity; [""] if synthetic *)
  p_parent : string option;  (** [p_key] of the preceding step *)
}

val synthetic_step : string -> path_step
(** a narrative-only step (no underlying taint entity) *)

val path_step_string : path_step -> string
(** ["desc (why)"], or just ["desc"] when there is no why — exactly the
    legacy [d_trace] element format *)

val path_strings : path_step list -> string list

type dependency = {
  d_kind : dep_kind;
  d_sink : string;        (** the critical datum (assert or implicit sink) *)
  d_func : string;
  d_loc : Loc.t;
  d_trace : string list;  (** one value-flow path, source first *)
  d_path : path_step list;
      (** the same path, structured (source first, sink last); phase 3
          populates it so [d_trace = path_strings d_path] *)
}

(** Informational note (never gates): audit-trail entry emitted under
    [--verbose], e.g. [I-RANGE-PROVED] for each A1/A2 obligation the
    range analysis discharged without an Omega query. *)
type info = {
  i_code : string;
  i_func : string;
  i_loc : Loc.t;
  i_msg : string;
}

type t = {
  violations : violation list;
  warnings : warning list;
  dependencies : dependency list;
  infos : info list;  (** empty unless [--verbose] *)
  regions : (string * int * bool) list;  (** name, size, noncore *)
  annotation_lines : int;
  stats : (string * int) list;
}

val errors : t -> dependency list
(** the [Data] dependencies — the paper's "error dependencies" *)

val control_deps : t -> dependency list
(** the [Control_only] dependencies — candidate false positives *)

(** {1 Diagnostic codes}

    Every finding carries a stable diagnostic code, the unit of rule
    metadata in the SARIF export and the leading component of finding
    fingerprints ({!Fingerprint}).  Codes are derived from the finding,
    never stored, so report and cache layouts are unchanged. *)

val code_unmonitored_read : string  (** ["W-UNMONITORED-READ"] *)

val code_critical_dep : string  (** ["E-CRITICAL-DEP"] *)

val code_control_dep : string  (** ["C-CONTROL-DEP"] *)

val code_range_proved : string  (** ["I-RANGE-PROVED"] *)

val code_of_restriction : restriction -> string
(** ["V-P1"] … ["V-A2"] *)

val code_of_violation : violation -> string

val code_of_warning : warning -> string

val code_of_dependency : dependency -> string

val code_of_info : info -> string

(** Registry entry backing the SARIF [tool.driver.rules] array and the
    documentation table in DESIGN.md. *)
type rule = {
  rule_id : string;
  rule_name : string;       (** PascalCase identifier (SARIF [name]) *)
  rule_summary : string;    (** one sentence *)
  rule_help : string;       (** what a reviewer should do about it *)
  rule_level : [ `Error | `Warning | `Note ];
}

val rules : rule list
(** every code the analysis can emit, exactly once each *)

val rule_of_code : string -> rule
(** total: unknown codes get a degenerate warning-level entry *)

(** {1 Canonical finding order}

    Total orders by (file, line, col), then diagnostic code, then the
    remaining fields.  Emission sites and the driver sort with these so
    reports are byte-identically ordered whatever produced them. *)

val compare_loc : Loc.t -> Loc.t -> int
(** (file, line, col) *)

val compare_violation : violation -> violation -> int

val compare_warning : warning -> warning -> int

val compare_dependency : dependency -> dependency -> int

val compare_info : info -> info -> int

val pp_violation : Format.formatter -> violation -> unit

val pp_info : Format.formatter -> info -> unit

val pp_warning : Format.formatter -> warning -> unit

val pp_dependency : Format.formatter -> dependency -> unit

val pp : Format.formatter -> t -> unit

val to_string : t -> string

val pp_witness : Format.formatter -> dependency -> unit
(** one dependency with its step-by-step witness path *)

val pp_explain : Format.formatter -> t -> unit
(** reviewer-facing rendering (the [explain] CLI subcommand): every
    read-site warning, then every dependency's full witness path *)
