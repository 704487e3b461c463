(** End-to-end pipeline: MiniC source → SSA IR → region model →
    phases 1–3 → report.  The staged functions exist so benchmarks can
    time each phase (experiment B1). *)

type prepared = {
  ir : Ssair.Ir.program;
  index : Ssair.Index.t;  (** the index of [ir] every later stage reads *)
  annotation_lines : int;
  loc_total : int;
}

val count_annotations : Minic.Ast.program -> int
(** annotation clauses in a parsed program (the paper's "lines of
    annotation": each clause occupies one line in our systems) *)

val count_loc : string -> int
(** non-empty source lines *)

val prepare_source : ?file:string -> string -> prepared
(** frontend + lowering + SSA + IR verification, then the program index *)

val prepare_file : string -> prepared

(** {1 Staged pipeline} *)

val stage_shm : prepared -> Shm.t

val stage_phase1 : ?config:Config.t -> prepared -> Shm.t -> Phase1.t

val stage_pointsto : prepared -> Pointsto.t

val stage_absint :
  ?config:Config.t -> ?cache:Cache.t -> ?key:string -> prepared -> Absint.t option
(** interprocedural value-range analysis, or [None] when disabled by
    {!Config.t.absint}.  With [~cache] and [~key], the whole program's
    summaries ({!Absint.summaries}) are the ["absint"] entry under
    [key]: a hit rebuilds the result from it ({!Absint.of_summaries})
    and computes no fixpoint, a miss runs {!Absint.analyze} once and
    stores the entry.  Without a key it only computes. *)

val stage_phase2 :
  ?config:Config.t ->
  ?cache:Cache.t ->
  ?digests:Digest_ir.t ->
  ?absint:Absint.t ->
  prepared ->
  Phase1.t ->
  Phase2.result
(** phase 2; [?cache] and [?digests] are ignored (kept for callers that
    still pass them): only {!analyze} caches, per analysed input *)

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
(** phase 3 ({!Vfgraph}); [?cache] and [?digests] are ignored, as for
    {!stage_phase2} *)

(** {1 One-shot analysis} *)

type detail = {
  prepared : prepared;
  shm : Shm.t;
  phase1 : Phase1.t;
  phase2 : Phase2.result;
      (** restriction verdicts, the ledger and the record of how each
          A1/A2 obligation was decided, which certificate emission reads;
          the records are not part of the ["analysis"] cache entry *)
  pointsto : Pointsto.t;
  phase3 : Phase3.result;  (** taint state, for VFG export *)
  absint : Absint.t option;
      (** the value-range analysis the run used ([None] when
          {!Config.t.absint} is off); certificate emission serializes
          its summaries *)
}
(** the intermediate results behind a report; only [--emit-certs],
    [--vfg], [explain --json] and [initcheck] need them *)

type analysis = {
  report : Report.t;  (** canonical order: (file, line, fingerprint) *)
  coverage : Coverage.t;  (** monitoring-coverage metrics *)
  ledger : Ledger.entry list;
      (** phase-2 obligation audit trail ([safeflow audit] /
          [safeflow hotspots]); observability only — never consulted
          when building [report] *)
  fingerprints : Fingerprint.ctx;  (** the context [report]'s fingerprints use *)
  detail : detail Lazy.t;
      (** already computed when the run computed the report; after a
          cache hit, forcing it reruns the stages (with the absint
          entry) *)
}

val canonicalize : Fingerprint.ctx -> Report.t -> Report.t
(** the final report order, (file, line, fingerprint); {!analyze}
    applies it to every report it returns *)

val analyzed_functions : Phase3.result -> Phase1.t -> string list
(** the function universe phase 3 analyzed: discovered (function,
    context) pairs minus exempt functions; sorted *)

val analyze : ?config:Config.t -> ?cache:Cache.t -> ?file:string -> string -> analysis
(** With [~cache], one ["analysis"] entry per analysed input, keyed on
    the source key (file label and text, {!Digest_ir.source_key}) and
    the semantic configuration, holds the report, coverage, ledger and
    fingerprint context.  A hit returns them and runs no stage.  A miss
    runs every stage and stores the entry; absint goes through the
    ["absint"] entry keyed on the source key alone ({!stage_absint}), so
    a forced [detail] after a hit, or a rerun of the same source under
    another configuration, computes no fixpoint, while any edit misses
    it and analyzes the whole program again.  Reports are bit-identical
    with and without the cache.

    Raises [Invalid_argument] off the main domain: no analysis state is
    synchronised, and SafeFlow's parallelism is forked processes
    ({!Fleet.analyze_inputs}). *)

val analyze_file : ?config:Config.t -> ?cache:Cache.t -> string -> analysis
