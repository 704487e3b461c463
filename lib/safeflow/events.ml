(* Structured fleet event stream: one JSON object per line
   (schema "safeflow-events/3"), written by workers onto a dedicated
   pipe and consumed by the parent for live progress and --log-json.

   Lines stay far below PIPE_BUF, so a single Unix.write per line is
   atomic across concurrently-writing workers — no framing or locking
   needed.  Timestamps are wall-clock seconds (Unix.gettimeofday),
   self-labelled "t"; they are for humans and post-hoc analysis, not
   for correlating with telemetry spans (those use the monotonic
   epoch). *)

(* v2: [fleet_start] no longer carries "shard_domains" (workers are
   single-threaded processes); v3: [member_done] carries a "status",
   and a member that failed has one too *)
let schema = "safeflow-events/3"

module J = Jsonlite

let event ev fields =
  J.render (J.Vobj (("ev", J.Vstr ev) :: ("t", J.Vfixed (3, Unix.gettimeofday ())) :: fields))

let fleet_start ~systems ~jobs =
  event "fleet_start"
    [ ("schema", J.Vstr schema); ("systems", J.Vint systems); ("jobs", J.Vint jobs) ]

let worker_start ~worker ~pid ~members =
  event "worker_start"
    [ ("worker", J.Vint worker); ("pid", J.Vint pid); ("members", J.Vint members) ]

let member_start ~worker ~path =
  event "member_start" [ ("worker", J.Vint worker); ("path", J.Vstr path) ]

let member_done ~worker ~path ~status ~errors ~warnings ~findings ~cache_hits ~cache_misses
    ?certs ~elapsed_ms () =
  event "member_done"
    ([
       ("worker", J.Vint worker);
       ("path", J.Vstr path);
       ("status", J.Vstr status);
       ("errors", J.Vint errors);
       ("warnings", J.Vint warnings);
       ("findings", J.Vint findings);
       ("cache_hits", J.Vint cache_hits);
       ("cache_misses", J.Vint cache_misses);
     ]
    @ (match certs with
      | None -> []
      | Some (pass, fail, skipped) ->
        [
          ("certs_pass", J.Vint pass);
          ("certs_fail", J.Vint fail);
          ("certs_skipped", J.Vint skipped);
        ])
    @ [ ("elapsed_ms", J.Vfixed (3, elapsed_ms)) ])

let cache_recovered ~worker ~ns ~key ~kind =
  event "cache.recovered"
    [
      ("worker", J.Vint worker);
      ("ns", J.Vstr ns);
      ("key", J.Vstr key);
      ("kind", J.Vstr kind);
    ]

let heartbeat ~worker ~done_ ~total =
  event "heartbeat" [ ("worker", J.Vint worker); ("done", J.Vint done_); ("total", J.Vint total) ]

let worker_done ~worker ~members ~errors ~warnings =
  event "worker_done"
    [
      ("worker", J.Vint worker);
      ("members", J.Vint members);
      ("errors", J.Vint errors);
      ("warnings", J.Vint warnings);
    ]

let fleet_done ~systems ~elapsed_s ~analyses_per_sec =
  event "fleet_done"
    [
      ("systems", J.Vint systems);
      ("elapsed_s", J.Vfixed (3, elapsed_s));
      ("analyses_per_sec", J.Vfixed (3, analyses_per_sec));
    ]

let write_line fd line =
  (* one write per line: atomic for lines < PIPE_BUF.  A closed read end
     (parent gone) must not kill the worker — callers ignore SIGPIPE,
     and we swallow the resulting EPIPE here. *)
  let msg = line ^ "\n" in
  try ignore (Unix.write_substring fd msg 0 (String.length msg))
  with Unix.Unix_error ((EPIPE | EBADF), _, _) -> ()
