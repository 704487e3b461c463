(** Structured fleet event stream: newline-delimited JSON
    ([safeflow-events/3]).

    Fleet workers emit these on a dedicated pipe; the parent tees them
    to [--log-json FILE] and feeds {!Progress}.  Each constructor
    returns one complete JSON object on one line (no trailing newline)
    with an ["ev"] discriminator and a wall-clock ["t"] (seconds).
    Lines are far below [PIPE_BUF], so one {!write_line} per line is
    atomic across concurrently-writing workers. *)

val schema : string
(** ["safeflow-events/3"]; carried in the [fleet_start] event *)

val fleet_start : systems:int -> jobs:int -> string

val worker_start : worker:int -> pid:int -> members:int -> string

val member_start : worker:int -> path:string -> string

val member_done :
  worker:int ->
  path:string ->
  status:string ->
  errors:int ->
  warnings:int ->
  findings:int ->
  cache_hits:int ->
  cache_misses:int ->
  ?certs:int * int * int ->
  elapsed_ms:float ->
  unit ->
  string
(** [status] is ["ok"], or for a member that produced no result the
    {!Forkmap.cause} in lower case (["rejected"], ["unwritable"],
    ["crashed"]), with zero counts and no [certs].
    [cache_hits]/[cache_misses] are the delta observed while analyzing
    this member (a worker analyzes its members one at a time, so the
    delta is exact).  [certs], present only under [--emit-certs --check-certs],
    is the member's (passed, failed, skipped) certificate validation
    counts. *)

val cache_recovered : worker:int -> ns:string -> key:string -> kind:string -> string
(** a stale or corrupt disk-cache entry was discarded and recomputed
    ([kind] is ["stale"] or ["corrupt"]); wired through
    {!Cache.create}'s [on_recovery] so [--log-json] captures silent
    recoveries fleet-wide *)

val heartbeat : worker:int -> done_:int -> total:int -> string

val worker_done : worker:int -> members:int -> errors:int -> warnings:int -> string

val fleet_done : systems:int -> elapsed_s:float -> analyses_per_sec:float -> string

val write_line : Unix.file_descr -> string -> unit
(** write [line ^ "\n"] with a single [Unix.write]; EPIPE/EBADF are
    swallowed (callers in workers also ignore [SIGPIPE]) so a vanished
    reader never kills an analysis *)
