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

let esc = Jsonlite.escape

let base ev fields =
  let b = Buffer.create 128 in
  Buffer.add_string b (Printf.sprintf "{\"ev\":\"%s\",\"t\":%.3f" ev (Unix.gettimeofday ()));
  List.iter
    (fun f ->
      Buffer.add_char b ',';
      Buffer.add_string b f)
    fields;
  Buffer.add_char b '}';
  Buffer.contents b

let fleet_start ~systems ~jobs =
  base "fleet_start"
    [
      Printf.sprintf "\"schema\":\"%s\"" schema;
      Printf.sprintf "\"systems\":%d" systems;
      Printf.sprintf "\"jobs\":%d" jobs;
    ]

let worker_start ~worker ~pid ~members =
  base "worker_start"
    [
      Printf.sprintf "\"worker\":%d" worker;
      Printf.sprintf "\"pid\":%d" pid;
      Printf.sprintf "\"members\":%d" members;
    ]

let member_start ~worker ~path =
  base "member_start"
    [ Printf.sprintf "\"worker\":%d" worker; Printf.sprintf "\"path\":\"%s\"" (esc path) ]

let member_done ~worker ~path ~status ~errors ~warnings ~findings ~cache_hits ~cache_misses
    ?certs ~elapsed_ms () =
  base "member_done"
    ([
       Printf.sprintf "\"worker\":%d" worker;
       Printf.sprintf "\"path\":\"%s\"" (esc path);
       Printf.sprintf "\"status\":\"%s\"" status;
       Printf.sprintf "\"errors\":%d" errors;
       Printf.sprintf "\"warnings\":%d" warnings;
       Printf.sprintf "\"findings\":%d" findings;
       Printf.sprintf "\"cache_hits\":%d" cache_hits;
       Printf.sprintf "\"cache_misses\":%d" cache_misses;
     ]
    @ (match certs with
      | None -> []
      | Some (pass, fail, skipped) ->
        [
          Printf.sprintf "\"certs_pass\":%d" pass;
          Printf.sprintf "\"certs_fail\":%d" fail;
          Printf.sprintf "\"certs_skipped\":%d" skipped;
        ])
    @ [ Printf.sprintf "\"elapsed_ms\":%.3f" elapsed_ms ])

let cache_recovered ~worker ~ns ~key ~kind =
  base "cache.recovered"
    [
      Printf.sprintf "\"worker\":%d" worker;
      Printf.sprintf "\"ns\":\"%s\"" (esc ns);
      Printf.sprintf "\"key\":\"%s\"" (esc key);
      Printf.sprintf "\"kind\":\"%s\"" (esc kind);
    ]

let heartbeat ~worker ~done_ ~total =
  base "heartbeat"
    [
      Printf.sprintf "\"worker\":%d" worker;
      Printf.sprintf "\"done\":%d" done_;
      Printf.sprintf "\"total\":%d" total;
    ]

let worker_done ~worker ~members ~errors ~warnings =
  base "worker_done"
    [
      Printf.sprintf "\"worker\":%d" worker;
      Printf.sprintf "\"members\":%d" members;
      Printf.sprintf "\"errors\":%d" errors;
      Printf.sprintf "\"warnings\":%d" warnings;
    ]

let fleet_done ~systems ~elapsed_s ~analyses_per_sec =
  base "fleet_done"
    [
      Printf.sprintf "\"systems\":%d" systems;
      Printf.sprintf "\"elapsed_s\":%.3f" elapsed_s;
      Printf.sprintf "\"analyses_per_sec\":%.3f" analyses_per_sec;
    ]

let write_line fd line =
  (* one write per line: atomic for lines < PIPE_BUF.  A closed read end
     (parent gone) must not kill the worker — callers ignore SIGPIPE,
     and we swallow the resulting EPIPE here. *)
  let msg = line ^ "\n" in
  try ignore (Unix.write_substring fd msg 0 (String.length msg))
  with Unix.Unix_error ((EPIPE | EBADF), _, _) -> ()
