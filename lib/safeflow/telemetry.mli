(** Analysis telemetry: hierarchical phase spans, atomic counters and
    gauges, exportable as a Chrome-trace JSON, a human-readable tree, or
    a machine-readable stats JSON.

    The subsystem is {b disabled by default} and designed to be
    zero-overhead when off: {!span} runs its thunk directly after one
    atomic flag read, and counter updates reduce to the same flag read.
    Nothing here ever feeds back into {!Report.t}, so reports are
    byte-identical whether telemetry is on or off (asserted by
    [test/test_engine_equiv.ml]).

    Spans use a monotonic clock (CLOCK_MONOTONIC via a C stub) and a
    per-domain span stack ([Domain.DLS]), so instrumented code running on
    worker domains — the multi-system driver, fleet shard domains —
    records correctly-nested spans for its own domain without
    synchronizing with other domains; finished spans are merged into one
    global list under a mutex.  Counters are process-global atomics
    keyed by name, shared by all domains.

    Fleet aggregation (PR 8): telemetry is per-process, so a forked
    fleet worker records into its own copy of this state.  Workers call
    {!begin_worker} right after the fork (clearing inherited parent
    data while keeping the trace epoch, which — CLOCK_MONOTONIC being
    system-wide — keeps worker and parent spans on one timeline),
    capture a versioned {!snapshot} at exit, and ship it to the parent
    over the result channel.  The parent folds each one in with
    {!merge_worker}: counters summed, gauges max'd, float gauges max'd,
    spans kept per worker.  The merged view drives {!pp_stats}, a
    multi-process Chrome trace with real pids, and the [workers]
    section of the v3 stats JSON. *)

(** {1 Master switch} *)

val enabled : unit -> bool

val set_enabled : bool -> unit
(** enabling also (re)starts the trace epoch; disable before comparing
    reports against an uninstrumented run is {e not} necessary — reports
    never contain telemetry *)

val reset : unit -> unit
(** drop all recorded spans and zero every counter (registrations are
    kept); restarts the trace epoch *)

val now_ns : unit -> int64
(** monotonic clock, nanoseconds since an arbitrary epoch *)

(** {1 Spans} *)

val span : ?args:(string * string) list -> string -> (unit -> 'a) -> 'a
(** [span name f] times [f ()] as a child of the innermost open span on
    the current domain.  Exceptions propagate; the span is closed either
    way.  When disabled this is [f ()]. *)

type span_record = {
  s_id : int;
  s_parent : int;  (** -1 for a root span *)
  s_name : string;
  s_args : (string * string) list;
  s_domain : int;  (** domain id the span ran on *)
  s_start_ns : int64;  (** relative to the trace epoch *)
  s_dur_ns : int64;
}

val spans : unit -> span_record list
(** finished spans, in start order *)

(** {1 Counters and gauges} *)

type counter

val counter : string -> counter
(** registered process-global counter; the same name always returns the
    same counter.  Registration is idempotent and happens at module
    initialization time for the built-in inventory, so every registered
    counter appears (possibly as 0) in {!counters} and the stats JSON. *)

val gauge : string -> counter
(** like {!counter}, but marks the name as having gauge semantics:
    {!merge_worker} combines gauge values across workers by [max]
    instead of summing them.  Update with {!record_max}. *)

val incr : counter -> unit
(** +1 when enabled, no-op when disabled *)

val add : counter -> int -> unit

val record_max : counter -> int -> unit
(** gauge semantics: retain the maximum observed value *)

val value : counter -> int

val counters : unit -> (string * int) list
(** every registered counter with its current value, sorted by name *)

val is_gauge : string -> bool
(** whether the name was registered with {!gauge} (or adopted from a
    merged worker snapshot) *)

val record_float_max : string -> float -> unit
(** named floating-point gauge with max-retain semantics — for
    measurements an int counter would truncate (analyses/sec).
    No-op when disabled. *)

val float_gauges : unit -> (string * float) list
(** recorded float gauges, sorted by name; the [gauges] object of the
    stats JSON *)

(** {1 Latency histograms}

    Log2-bucketed latency histograms (PR 9): bucket [i] counts
    observations with duration in [2^i, 2^(i+1)) ns, 64 buckets.  Like
    counters they are process-global, lock-free to update, and no-ops
    when telemetry is off.  Unlike a single span total, a histogram
    keeps the full latency distribution, and because the representation
    is pure bucket counts it merges across fleet workers bucket-wise —
    percentiles are recomputed from the merged buckets, never averaged. *)

type histogram

val histogram : string -> histogram
(** registered process-global histogram; idempotent by name, like
    {!counter} *)

val observe_ns : histogram -> int64 -> unit
(** record one observation (nanoseconds; negative values clamp to 0).
    No-op when disabled. *)

val time_hist : histogram -> (unit -> 'a) -> 'a
(** [time_hist h f] runs [f ()] and records its wall time into [h].
    Exceptions propagate; the observation is recorded either way.  When
    disabled this is [f ()]. *)

type hist_view = {
  hv_name : string;
  hv_count : int;
  hv_sum_ns : int;
  hv_buckets : int array;  (** [hist] bucket counts, length 64 *)
  hv_p50_ns : int;  (** bucket-ceiling estimate of the 50th percentile *)
  hv_p90_ns : int;
  hv_p99_ns : int;
}

val histograms : unit -> hist_view list
(** every registered histogram with its current buckets and recomputed
    percentiles, sorted by name; the [histograms] object of the v4
    stats JSON *)

(** {1 Sections} *)

val set_section : string -> string -> unit
(** [set_section name json] attaches a raw JSON fragment under the
    [sections] object of the stats JSON; setting an existing
    name replaces it.  Used for the per-file monitoring-coverage blocks
    ({!Coverage.to_json}).  Unlike counters, sections are recorded even
    while telemetry is disabled — they carry analysis-derived data, not
    timings. *)

val sections : unit -> (string * string) list
(** recorded sections, first-set order *)

(** {1 Fleet snapshots}

    Cross-process aggregation for fleet mode: a forked worker packages
    its telemetry state as a {!snapshot} and the parent merges it. *)

val snapshot_version : int
(** bumped whenever the {!snapshot} layout changes; {!merge_worker}
    rejects snapshots from a different version instead of
    mis-interpreting them *)

type snapshot = {
  sn_version : int;
  sn_pid : int;  (** pid of the recording process *)
  sn_counters : (string * int) list;
  sn_gauge_names : string list;  (** names with gauge (max-merge) semantics *)
  sn_fgauges : (string * float) list;
  sn_hists : (string * int * int * int array) list;
      (** per-histogram (name, count, sum_ns, buckets); merged
          bucket-wise by {!merge_worker} *)
  sn_spans : span_record list;
  sn_sections : (string * string) list;
}

val snapshot : unit -> snapshot
(** capture the current process's telemetry state (counters, gauges,
    finished spans, sections) for shipping to a fleet parent *)

val begin_worker : unit -> unit
(** called by a forked worker before doing any work: clears span /
    counter / section / worker state inherited from the parent's
    address space, but {e keeps} the trace epoch and the enabled flag,
    so worker span timestamps stay on the parent's timeline *)

val merge_worker : label:string -> snapshot -> bool
(** fold a worker snapshot into this process's telemetry: counters are
    summed, gauge-flagged counters and float gauges are max'd, sections
    are adopted when the parent has no section of that name, and the
    snapshot is retained verbatim for the per-worker stats breakdown
    and the multi-pid Chrome trace.  Returns [false] (and merges
    nothing) on a {!snapshot_version} mismatch. *)

type worker_view = { w_label : string; w_snapshot : snapshot }

val workers : unit -> worker_view list
(** merged worker snapshots, in merge order *)

(** {1 Export} *)

val write_chrome_trace : string -> unit
(** write all finished spans as Chrome trace-event JSON (load in
    [chrome://tracing] or Perfetto); one track per domain.  With merged
    worker snapshots present, worker spans are emitted under their real
    [pid] (with [process_name] metadata records), so a fleet run
    renders as side-by-side per-process timelines. *)

val write_stats_json : string -> unit
(** machine-readable snapshot: schema tag, pid, all counters, float
    gauges, per-name aggregated span timings (fleet-wide when worker
    snapshots were merged) and the per-worker breakdown — the file
    checked by the CI schema smoke test *)

val stats_json_schema : string
(** the [schema] field value written by {!write_stats_json} *)

val pp_stats : Format.formatter -> unit -> unit
(** human-readable span tree (sibling spans aggregated by name, with
    call counts and total wall time) followed by the counter table *)
