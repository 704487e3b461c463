(** Fleet mode: analyze many subject systems — a directory or manifest of
    independently-built core components — sharded across OS processes
    ([jobs]) and OCaml 5 domains per process ([shard_domains]), all
    sharing one content-addressed disk cache.

    {2 Sharding model}

    Member [i] of an [n]-member fleet belongs to shard [i mod jobs].
    Each shard is one forked worker process; inside a worker the
    members are drained by a work-stealing pool of [shard_domains]
    domains.  Workers marshal their per-member results back to the
    parent through temp files and exit with [Unix._exit], so parent
    buffers are never double-flushed.  The parent never spawns domains
    itself (the OCaml 5 runtime forbids [Unix.fork] in a process that
    ever did): with [jobs = 1] but [shard_domains > 1] a single forked
    child hosts the domains, and only a fully sequential run
    ([jobs = 1], [shard_domains = 1]) stays in-process — the mode used
    by tests that need deterministic single-process cache statistics.
    If fork itself is unavailable because earlier code in the process
    already spawned a domain, the run degrades to in-process.

    {2 Shared cache and cross-system dedupe}

    Every worker opens its own {!Cache.t} on the same directory; the
    disk tier is the shared medium and is safe under concurrent
    multi-process multi-domain access (atomic temp+rename writes,
    read-validate, generation stamping — see {!Cache}).  To make
    content-identical functions from {e different} members key
    identically, all members are analyzed under one normalized
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
      dedicated pipe; single writes below [PIPE_BUF] keep concurrent
      lines atomic.  The parent drains the pipe to EOF {e before}
      reaping workers (every worker holds a write end until [_exit],
      so EOF means all workers are gone — draining cannot deadlock
      against a full pipe) and hands each line to [on_event].  The CLI
      tees these to [--log-json] and a live [--progress] line.
    - {b Telemetry}: when {!Telemetry.enabled}, each worker calls
      {!Telemetry.begin_worker} after the fork, records spans and
      counters as usual, and ships a {!Telemetry.snapshot} back with
      its results; the parent merges them ({!Telemetry.merge_worker})
      into the fleet-wide view used by [--stats], [--stats-json]
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
  f_results : member_result list;  (** in input order *)
  f_systems : int;
  f_jobs : int;
  f_shard_domains : int;
  f_elapsed_s : float;
  f_analyses_per_sec : float;
  f_cache : cache_totals;  (** summed over all shards and namespaces *)
}

val run :
  ?config:Config.t ->
  ?cache_dir:string ->
  ?jobs:int ->
  ?shard_domains:int ->
  ?source_label:string ->
  ?on_event:(string -> unit) ->
  ?emit_certs:string ->
  ?check_certs:bool ->
  string list ->
  result
(** [run paths] analyzes every member and aggregates.  A member whose
    analysis raises fails the whole run with the original message
    (prefixed by its shard).  Cache totals are meaningful only with
    [~cache_dir]; without it every member is analyzed cold.
    [on_event] receives each {!Events} line (no trailing newline) on
    the parent, in arrival order; it is called from the parent's single
    thread, never concurrently.

    [~emit_certs:ROOT] writes each member's certificate bundle
    ({!Cert.emit_bundle}) to [ROOT/<basename-without-extension>]; an
    emission error fails that member.  [~check_certs:true] additionally
    revalidates every bundle in the worker with {!Checker.validate_bundle}
    against a {e fresh} parse of the member (the
    [fleet.certs_pass]/[_fail]/[_skipped] telemetry counters and the
    [member_done] event's cert fields record the outcome).  Note the
    bundle's digests bind to the IR as analyzed under [source_label];
    standalone [safeflow check-cert] on a fleet bundle therefore needs
    [--source-label] with the same label. *)

val members_of_dir : string -> string list
(** the [.c] files of a directory, sorted by name *)

val members_of_manifest : string -> string list
(** one path per line, [#] comments and blank lines skipped; relative
    paths resolve against the manifest's directory *)
