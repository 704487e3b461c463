(** Monitoring-coverage metrics (per analyzed system).

    The paper's report answers "which reads are unmonitored"; these
    metrics answer "how much of the attack surface does monitoring
    cover", making precision work measurable in findings rather than
    seconds:

    - the fraction of non-core shared-memory read sites that are
      monitored in every context they are analyzed under (an unmonitored
      site is exactly a {!Report.warning} site);
    - per-region annotation coverage: how many bytes of each non-core
      region are covered by some [assume(core(...))] monitor assumption
      anywhere in the program;
    - the control-dependence-only error count — the paper's
      likely-false-positive class (§3.4.1), worth charting over time.

    Metrics are cache- and parallelism-independent: read sites are
    counted syntactically over the analyzed function universe (the
    phase-3 pair discovery), and warnings
    are taken from the canonical report. *)

type region_coverage = {
  rc_region : string;
  rc_size : int;               (** bytes *)
  rc_read_sites : int;         (** read sites targeting this region *)
  rc_unmonitored_sites : int;  (** of those, warning sites *)
  rc_assumed_bytes : int;
      (** bytes covered by monitor assumptions somewhere in the program *)
}

type t = {
  cov_read_sites : int;       (** non-core read sites in analyzed functions *)
  cov_monitored_sites : int;  (** read sites that never warn *)
  cov_regions : region_coverage list;  (** non-core regions, sorted by name *)
  cov_errors : int;           (** data dependencies (E-CRITICAL-DEP) *)
  cov_control_only : int;     (** control-only deps — likely false positives *)
  cov_warnings : int;
  cov_bounds : Ledger.recon;
      (** A1/A2 bounds-obligation discharge accounting (ranges vs Omega):
          the tally of phase 2's ledger *)
}

val compute :
  ?bounds:Ledger.recon ->
  prog:Ssair.Ir.program ->
  shm:Shm.t ->
  p1:Phase1.t ->
  pts:Pointsto.t ->
  analyzed:string list ->
  Report.t ->
  t
(** [analyzed] is the function universe phase 3 visited (pair discovery
    minus exempt functions); read sites outside it are dead to the
    analysis and not counted.  [bounds] is phase 2's discharge
    tally, {!Phase2.result.bounds} (all zero when phase 2 was skipped). *)

val monitored_fraction : t -> float
(** monitored / total read sites; [1.0] when there are no reads *)

val stats : t -> (string * int) list
(** the headline integers merged into {!Report.t.stats}:
    [noncore_read_sites], [monitored_read_sites], [control_only_deps] *)

val pp : Format.formatter -> t -> unit
(** the [--stats] rendering *)

val to_json : t -> Jsonlite.value
(** one JSON object, a [coverage:FILE] section of [--stats-json] *)
