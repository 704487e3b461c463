(** Forked worker processes: SafeFlow's one parallelism mechanism.

    [map] runs each stripe of items in its own forked process and
    gathers the per-item results in the parent.  A worker shares nothing
    with its parent after the fork, so analysis state, telemetry and
    cache handles need no synchronisation, and a fault stays inside the
    process that hit it.  Its one caller is {!Fleet.analyze_inputs}, the
    runner that [analyze] (one input or several), [fleet] and [hotspots]
    all use.

    {2 Protocol}

    The parent flushes [stdout] and [stderr] (buffers duplicated into a
    child would be written twice) and forks one worker per stripe.  A
    worker calls {!Telemetry.begin_worker}, runs the caller's function
    on its stripe, and marshals the per-item results, plus a
    {!Telemetry.snapshot} when telemetry is on, into a temp file.  It
    leaves with [Unix._exit], so no [at_exit] handler runs twice.

    With [?on_event], workers also get an [emit] function that writes
    one line to a shared pipe ({!Events.write_line}: single writes below
    [PIPE_BUF] are atomic).  The parent drains the pipe to EOF before it
    reaps: every worker holds a write end until it exits, so EOF means
    all workers are gone, and draining cannot deadlock against a full
    pipe.  The parent then reaps every worker, reads the result files,
    and merges each snapshot with {!Telemetry.merge_worker} under the
    label ["worker N"]. *)

val stripes : ?key:(int -> string) -> workers:int -> int -> int array array
(** [stripes ~workers n] assigns items [0 .. n-1] to [workers] stripes,
    round-robin.  With [~key], items with equal keys form one group, so
    equal items always land on one worker, and the groups are dealt
    largest first (ties in first-appearance order), each to the stripe
    with the least load so far.  A group's load is its first item plus
    an eighth of an item for each further one, since equal items after
    the first are cache hits in a fleet; so the stripes balance distinct
    work first and items with it.  Every stripe lists its items in
    increasing order; a stripe may be empty. *)

type cause =
  | Rejected  (** the frontend rejected the input, or it could not be read *)
  | Unwritable  (** an output file for the input could not be written *)
  | Crashed  (** its analysis raised, or its worker died *)

val exit_code : cause -> int
(** the exit code of a run whose first failure has this cause: 3 for
    [Rejected] (a frontend failure), 4 for [Unwritable], 5 for
    [Crashed] *)

type failure = {
  input : string;  (** the input's path *)
  cause : cause;
  message : string;  (** the whole line a run prints for it on stderr *)
}
(** an input that produced no result: what [analyze] and [fleet] print
    and exit on ({!exit_code}) *)

val map :
  ?on_event:(string -> unit) ->
  stripes:int array array ->
  name:(int -> string) ->
  (worker:int -> emit:(string -> unit) option -> int array -> ('b, failure) result array) ->
  ('b, failure) result array
(** [map ~stripes ~name f] forks one worker per stripe; worker [j] runs
    [f ~worker:j ~emit stripes.(j)], which returns one result per item of
    its stripe, in stripe order.  The results come back indexed by item.
    ['b] must be pure data (no closures): it crosses the process
    boundary through [Marshal].

    [emit] is [Some] exactly when [on_event] is given; the parent calls
    [on_event] on each line, in arrival order, from its single thread.

    A worker that is killed, exits abnormally, leaves no readable result
    file, or whose [f] raises, turns every item [i] of its stripe into a
    [Crashed] failure for input [name i] (["PATH: worker 1 killed by
    signal KILL"]); the other stripes' results still come back. *)
