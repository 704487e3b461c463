(** Fleet mode: analyze many subject systems — a directory or manifest of
    independently-built core components — sharded across forked worker
    processes ([jobs]), all sharing one content-addressed disk cache.
    Its runner, {!analyze_inputs}, also runs [safeflow analyze]'s
    inputs.

    {2 Sharding model}

    Each input goes through one per-input function, in the worker that
    analyses it: read, {!Driver.analyze} with the input's path as the
    {!Cache.with_origin} origin, write the certificate bundle and DOT
    file, and the caller's [render], whose pure-data result is all that
    crosses the pipe.  An input that yields no result, or whose worker
    dies, is a {!Forkmap.failure}; the others still come back.  Under
    one normalized label, members with identical sources form one group
    (they share every cache key), and the groups are dealt over [jobs]
    stripes, largest first, each to the least loaded stripe, a
    duplicate weighing an eighth of a distinct member
    ({!Forkmap.stripes}); so a group's first member stores its entries
    and its duplicates hit them on the same worker.  A sequential run ([jobs = 1]) stays in-process —
    the mode used by tests that need deterministic single-process cache
    statistics.

    {2 Shared cache and cross-system dedupe}

    Every worker opens its own {!Cache.t} on the same directory; the
    disk tier is the shared medium and is safe under concurrent
    multi-process access (atomic temp+rename writes, read-validate,
    generation stamping — see {!Cache}).  To make
    identical members key identically (cache entries are per analysed
    input), all members are analyzed under one normalized
    [source_label] (default ["<system>"]) while the member's real path
    is installed as the {!Cache.with_origin} origin — so a hit whose
    entry was written by a different member is counted as a
    cross-system hit ([cache.cross_hits]).

    Reports are unaffected by sharding, caching, or label choice: a
    fleet run's reports are byte-identical to sequential no-cache
    analyses of the same sources under the same label (asserted by
    [test/test_fleet.ml] and the CI fleet smoke job).

    {2 Observability}

    Two side channels, both strictly write-only with respect to
    analysis results (reports are byte-identical with them on or off):

    - {b Events} ([?on_event]): workers write {!Events} NDJSON lines
      (worker/member lifecycle, cache deltas, heartbeats) to a
      dedicated pipe ({!Forkmap.map}) and the parent hands each line to
      [on_event].  The CLI tees these to [--log-json] and a live
      [--progress] line.
    - {b Telemetry}: when {!Telemetry.enabled}, each worker records
      spans and counters as usual and ships a {!Telemetry.snapshot}
      back with its results; the parent merges them into the
      fleet-wide view used by [--stats], [--stats-json]
      (schema v3 [workers] section) and the multi-pid [--trace].

    Workers also tag their verbose stderr notes with a
    [\[worker N\]] {!Logctx} prefix. *)

type cert_counts = {
  cc_written : int;  (** certificates in the member's bundle *)
  cc_passed : int;
  cc_failed : int;
  cc_skipped : int;
      (** without [check_certs], the bundle's skipped-obligation count;
          with it, the checker's view of the same *)
}
(** per-member certificate accounting under [?emit_certs]; pass/fail
    are zero unless [?check_certs] revalidated the bundle *)

type member_result = {
  mr_path : string;  (** the member's real on-disk path *)
  mr_report : string;  (** rendered {!Report.pp} output *)
  mr_entries : Diffreport.entry list;
      (** fingerprinted findings, located at [mr_path] (not the
          normalized label), for baselines and gating *)
  mr_errors : int;
  mr_warnings : int;
  mr_ledger : Ledger.entry list;
      (** the member's phase-2 obligation audit trail, shipped verbatim
          over the worker result channel ([safeflow hotspots] ranks
          fleet-wide from these) *)
  mr_certs : cert_counts option;  (** present only under [?emit_certs] *)
}

type cache_totals = {
  ct_hits : int;
  ct_misses : int;
  ct_stale : int;
  ct_corrupt : int;
  ct_cross : int;  (** hits on entries written by a different member *)
}

type result = {
  f_results : member_result list;
      (** the members that produced a report, in input order: those that
          succeeded and those whose writes failed after rendering (also
          in [f_failures]) *)
  f_failures : Forkmap.failure list;
      (** the members that failed, in input order *)
  f_systems : int;
  f_jobs : int;  (** worker processes; 1 for an in-process run *)
  f_elapsed_s : float;
  f_analyses_per_sec : float;
  f_cache : cache_totals;  (** summed over all shards and namespaces *)
}

val analyze_inputs :
  ?config:Config.t ->
  ?cache_dir:string ->
  ?jobs:int ->
  ?source_label:string ->
  ?on_event:(string -> unit) ->
  ?bundle:(string -> string) ->
  ?check_certs:bool ->
  ?vfg:string ->
  render:(string -> Driver.analysis -> 'r) ->
  string list ->
  ('r * cert_counts option * cache_totals, Forkmap.failure * ('r * cache_totals) option)
  Stdlib.result
  array
(** [analyze_inputs ~render paths], in input order, each result with
    its certificate counts and the cache traffic its input caused, on
    [min jobs n] workers (default 1: in this process).  Each input is
    analyzed under [source_label] (grouped by content) or else under its
    own path; each worker opens its own cache on [cache_dir]; input
    [p]'s bundle goes to [bundle p] ([check_certs] revalidates it) and
    its DOT file to [vfg] (give it with one input).  [render p a] runs
    in the worker, after the analysis and before those writes, so an
    input whose writes fail keeps its row, and the cache traffic its
    analysis caused, next to its failure; a failure before rendering
    has neither. *)

val run :
  ?config:Config.t ->
  ?cache_dir:string ->
  ?jobs:int ->
  ?source_label:string ->
  ?on_event:(string -> unit) ->
  ?emit_certs:string ->
  ?check_certs:bool ->
  string list ->
  result
(** [run paths] analyzes every member through {!analyze_inputs} under
    [source_label] and aggregates; a member that failed is in
    [f_failures] and the others still report, as does a member whose
    writes failed.  Cache totals are
    meaningful only with [~cache_dir]; without it every member is
    analyzed cold.  [on_event] receives each {!Events} line (no trailing
    newline) on the parent, in arrival order; it is called from the
    parent's single thread, never concurrently.

    [~emit_certs:ROOT] writes each member's certificate bundle
    ({!Cert.emit_bundle}) to [Cert.bundle_dir ROOT path].
    [~check_certs:true] additionally revalidates every bundle in the
    worker with {!Cert.check_bundle} against a {e fresh} parse of
    the member (the [fleet.certs_pass]/[_fail]/[_skipped] telemetry
    counters and the [member_done] event's cert fields record the
    outcome).  Note the bundle's digests bind to the IR as analyzed under
    [source_label]; standalone [safeflow check-cert] on a fleet bundle
    therefore needs [--source-label] with the same label. *)

val cannot_write : string -> exn -> string
(** ["cannot write PATH: REASON"] for what a write of [PATH] raised *)

val members_of_dir : string -> string list
(** the [.c] files of a directory, sorted by name *)

val members_of_manifest : string -> string list
(** one path per line, [#] comments and blank lines skipped; relative
    paths resolve against the manifest's directory *)
