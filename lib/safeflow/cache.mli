(** Content-addressed analysis cache: an on-disk tier shared safely by
    concurrent readers {e and} writers — the forked workers of a fleet or
    multi-file run, and any other process on the same directory — backed
    by an in-memory table for what the disk does not hold.

    Entries are keyed by [(namespace, digest)] where the digest is
    computed by {!Digest_ir} over everything the cached computation
    reads; a stale input therefore changes the key and the entry is
    simply never found again — there is no explicit invalidation, and
    no entry is ever rewritten.  Two namespaces are in use: one
    ["analysis"] entry per analysed input and configuration, and one
    ["absint"] entry per program (see {!Driver.analyze}).

    The store is type-unsafe by construction (one table holds values of
    many types); safety is by the namespace discipline: a namespace is
    only ever read and written with one type.  A [t] is not synchronised:
    it is used from the main domain only ({!create} refuses any other),
    and processes share entries through the disk tier, never a [t].

    {b Memory holds only what disk does not.}  With a disk tier, [store]
    writes the file and keeps nothing in memory, and a disk hit is not
    copied into memory, so a long-lived process (a fleet worker) does
    not grow with the number of entries it has seen.  The memory table
    serves memory-only caches (no directory, or one that could not be
    created) and values whose disk write failed.

    {b Disk-tier concurrency protocol.}  On-disk entries (one file per
    entry) live under a {e generation-stamped} subdirectory of the cache
    root named from {!format_version} and the compiler version, so
    processes with incompatible marshalled layouts never touch the same
    files.  Within a generation, writers marshal straight into a temp
    file whose name is unique per process {e and} per write (pid +
    counter), flush and close it with errors checked, and only
    then publish it with an atomic [rename(2)]; a write that fails (a
    full disk, a file-size limit) publishes nothing.  A key that already
    exists on disk is left alone (same key ⇒ same value), so a file, and
    any hard link to it, keeps its bytes for as long as it exists.  Each file starts with the hex MD5 of everything after it,
    then a versioned header recording the cache format, compiler
    version and entry key, then the payload.  Readers validate
    lock-free: the digest is checked by streaming the file before
    [Marshal] reads any of it, and a file that is absent, truncated,
    corrupt, or written by a different format/compiler is discarded and
    the result recomputed.  Discards are never silent to the
    observability layer: {e stale} (header mismatch) and {e corrupt}
    (digest or unmarshal failure) recoveries are counted separately — in
    {!detailed_stats} and in the ["cache.<ns>.stale"/".corrupt"]
    telemetry counters — and [~verbose] adds a one-line stderr note per
    discarded file.

    {b Cross-system dedupe accounting.}  Entries are keyed by content
    digest, so identical programs appearing in many systems are analyzed
    once fleet-wide.  Each entry records the {e origin} system whose
    analysis stored it (see {!with_origin}); a hit whose origin differs
    from the current one is a {e cross hit} — work some other system
    already paid for — counted in {!detailed_stats}, {!cross_hits} and
    the ["cache.cross_hits"] telemetry counter. *)

type t

val create :
  ?dir:string ->
  ?verbose:bool ->
  ?on_recovery:(kind:string -> ns:string -> key:string -> unit) ->
  unit ->
  t
(** Raises [Invalid_argument] when called off the main domain.
    [create ()] is memory-only; [create ~dir ()] adds a disk tier rooted
    at [dir] (created if missing — a directory another process created
    first counts as success; any other creation failure degrades
    silently to memory-only), with entries under [dir]'s generation subdirectory.
    [~verbose] (default false) reports each discarded stale/corrupt disk
    entry on stderr; it never affects results.  [~on_recovery] is called
    once per discarded disk entry with [kind] (["stale"] or ["corrupt"])
    and the entry's namespace and key — fleet workers use it to emit
    [cache.recovered] events; exceptions it raises are swallowed, and it
    must not call back into this cache (it runs in the middle of a
    lookup). *)

val find : t -> ns:string -> key:string -> 'a option
(** memory first, then disk; a disk hit is not copied into memory.  The
    caller must request the type that [store] put in [ns]. *)

val store : t -> ns:string -> key:string -> 'a -> unit
(** the value must be pure data (no closures).  With a disk tier the
    value goes to a pid+sequence-unique temp file published by atomic
    rename and is not kept in memory; a key already present on disk is
    not rewritten.  A memory-only cache, or a failed disk write, keeps
    the value in memory instead. *)

val stats : t -> (string * (int * int)) list
(** per-namespace (hits, misses) counters, sorted by namespace — kept
    here rather than in {!Report.t.stats} so warm and cold reports stay
    bit-identical.  [misses] counts every lookup that was not a hit,
    including stale/corrupt recoveries. *)

type ns_stats = {
  hits : int;
  misses : int;
  stale : int;
  corrupt : int;
  cross : int;  (** hits on entries another system's analysis stored *)
}
(** [stale + corrupt <= misses] (both are recovered misses) and
    [cross <= hits] *)

val detailed_stats : t -> (string * ns_stats) list
(** like {!stats} but splitting out stale/corrupt disk recoveries and
    cross-system hits *)

val cross_hits : t -> int
(** total cross-system hits over all namespaces *)

val reset_stats : t -> unit

(** {1 Origin tracking} *)

val with_origin : string -> (unit -> 'a) -> 'a
(** [with_origin sys f] runs [f] with the process's current origin set to
    [sys] (the identity of the system being analyzed — the fleet member
    path, or the source label for a plain run).  Stores record the
    origin; hits compare against it.  The previous origin is restored on
    exit.  An empty origin (the default) disables
    cross-hit attribution for that code. *)

val current_origin : unit -> string
(** the current origin ("" when unset) *)

(** {1 Format identity} *)

val format_version : int

val generation : string
(** the generation stamp: cache format + compiler version.  Processes
    with different stamps share a cache root but never share entries. *)
