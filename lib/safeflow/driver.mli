(** End-to-end pipeline: MiniC source → SSA IR → region model →
    phases 1–3 → report.  The staged functions exist so benchmarks can
    time each phase (experiment B1). *)

type prepared = {
  ir : Ssair.Ir.program;
  annotation_lines : int;
  loc_total : int;
}

val count_annotations : Minic.Ast.program -> int
(** annotation clauses in a parsed program (the paper's "lines of
    annotation": each clause occupies one line in our systems) *)

val count_loc : string -> int
(** non-empty source lines *)

val prepare_source : ?file:string -> string -> prepared
(** frontend + lowering + SSA + IR verification *)

val prepare_file : string -> prepared

(** {1 Staged pipeline} *)

val stage_shm : prepared -> Shm.t

val stage_phase1 : ?config:Config.t -> prepared -> Shm.t -> Phase1.t

val stage_pointsto : prepared -> Pointsto.t

val stage_absint : ?config:Config.t -> ?cache:Cache.t -> prepared -> Absint.t option
(** interprocedural value-range analysis, or [None] when disabled by
    {!Config.t.absint}; with [~cache], per-function summaries are
    memoized in the ["absint"] namespace *)

val stage_phase2 :
  ?config:Config.t ->
  ?cache:Cache.t ->
  ?digests:Digest_ir.t ->
  ?absint:Absint.t ->
  prepared ->
  Phase1.t ->
  Phase2.result

val stage_phase3 :
  ?config:Config.t ->
  ?cache:Cache.t ->
  ?digests:Digest_ir.t ->
  ?absint:Absint.t ->
  prepared ->
  Shm.t ->
  Phase1.t ->
  Pointsto.t ->
  Phase3.result
(** phase 3 ({!Vfgraph}); with [~cache] and [~digests] the whole result
    is memoized in the ["phase3"] namespace, so a hit returns it as is *)

(** {1 One-shot analysis} *)

type analysis = {
  report : Report.t;  (** canonical order: (file, line, fingerprint) *)
  phase3 : Phase3.result;  (** taint state, for VFG export *)
  prepared : prepared;
  shm : Shm.t;
  phase1 : Phase1.t;
  pointsto : Pointsto.t;
  coverage : Coverage.t;  (** monitoring-coverage metrics *)
  ledger : Ledger.entry list;
      (** phase-2 obligation audit trail ([safeflow audit] /
          [safeflow hotspots]); observability only — never consulted
          when building [report] *)
  absint : Absint.t option;
      (** the value-range analysis the run used ([None] when
          {!Config.t.absint} is off); certificate emission serializes
          its summaries *)
}

val canonicalize : Fingerprint.ctx -> Report.t -> Report.t
(** the final report order, (file, line, fingerprint); {!analyze}
    applies it to every report it returns *)

val analyzed_functions : Phase3.result -> Phase1.t -> string list
(** the function universe phase 3 analyzed: discovered (function,
    context) pairs minus exempt functions; sorted *)

val analyze : ?config:Config.t -> ?cache:Cache.t -> ?file:string -> string -> analysis
(** With [~cache], every stage consults the content-addressed cache: the
    prepared IR is keyed on the source text, phase 1 / phase 2 /
    points-to / phase 3 on program and per-function digests
    ({!Digest_ir}).  Reports are bit-identical with and without the
    cache; a warm rerun of an unchanged system skips phases 1–3 and goes
    straight to taint propagation. *)

val analyze_file : ?config:Config.t -> ?cache:Cache.t -> string -> analysis

val analyze_files_par : ?config:Config.t -> ?cache:Cache.t -> string list -> analysis list
(** analyze several systems concurrently (one [Domain] per hardware
    thread, bounded by [Domain.recommended_domain_count]); results are
    returned in input order.  A shared [~cache] is safe: all cache
    operations are mutex-guarded. *)

(** {1 Summary engine (paper §3.3's ESP-style optimization)} *)

val stage_summary :
  ?config:Config.t -> prepared -> Shm.t -> Phase1.t -> Pointsto.t -> Summary.result

val analyze_summary :
  ?config:Config.t -> ?file:string -> string -> Report.t * Summary.result
(** one-shot analysis using per-function value-flow summaries; warnings
    match {!analyze}, dependencies are data-flow only *)
