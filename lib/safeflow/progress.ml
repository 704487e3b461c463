(* Live fleet progress: consumes the NDJSON event stream (Events) and
   renders a throttled single-line status to a channel (stderr in the
   CLI).  Pure consumer — rendering never feeds back into analysis. *)

type worker_state = { mutable ws_done : int }

type t = {
  out : out_channel;
  interval_s : float;
  total : int;
  start : float;
  workers : (int, worker_state) Hashtbl.t;
  mutable members_done : int;
  mutable last_render : float;
  mutable rendered : bool;  (* a progress line is currently on screen *)
}

let create ?(out = stderr) ?(interval_s = 0.2) ~total () =
  {
    out;
    interval_s;
    total;
    start = Unix.gettimeofday ();
    workers = Hashtbl.create 8;
    members_done = 0;
    last_render = 0.0;
    rendered = false;
  }

let worker_state t w =
  match Hashtbl.find_opt t.workers w with
  | Some ws -> ws
  | None ->
    let ws = { ws_done = 0 } in
    Hashtbl.replace t.workers w ws;
    ws

let render t ~now =
  let elapsed = now -. t.start in
  let rate = if elapsed > 0.0 then float_of_int t.members_done /. elapsed else 0.0 in
  let eta =
    if rate > 0.0 && t.total > t.members_done then
      Printf.sprintf " eta %.0fs" (float_of_int (t.total - t.members_done) /. rate)
    else ""
  in
  (* straggler: the worker with the fewest members done, mentioned once
     the fleet is large enough for skew to matter *)
  let straggler =
    if Hashtbl.length t.workers < 2 then ""
    else
      let worst = ref None in
      Hashtbl.iter
        (fun w ws ->
          match !worst with
          | Some (_, d) when d <= ws.ws_done -> ()
          | _ -> worst := Some (w, ws.ws_done))
        t.workers;
      match !worst with
      | Some (w, d) -> Printf.sprintf " slowest w%d:%d" w d
      | None -> ""
  in
  Printf.fprintf t.out "\rsafeflow fleet: %d/%d members  %.1f/s%s%s   " t.members_done
    t.total rate eta straggler;
  flush t.out;
  t.rendered <- true;
  t.last_render <- now

let feed t line =
  match Jsonlite.parse line with
  | Error _ -> ()  (* tolerate torn/foreign lines: progress is best-effort *)
  | Ok j -> (
    let ev = Option.bind (Jsonlite.member "ev" j) Jsonlite.to_string in
    let worker = Option.bind (Jsonlite.member "worker" j) Jsonlite.to_int in
    match ev with
    | Some "member_done" ->
      t.members_done <- t.members_done + 1;
      (match worker with
      | Some w ->
        let ws = worker_state t w in
        ws.ws_done <- ws.ws_done + 1
      | None -> ());
      let now = Unix.gettimeofday () in
      if now -. t.last_render >= t.interval_s || t.members_done = t.total then
        render t ~now
    | Some ("worker_start" | "member_start" | "heartbeat") -> (
      match worker with Some w -> ignore (worker_state t w) | None -> ())
    | _ -> ())

let finish t =
  if t.rendered then begin
    (* overwrite the live line with the final state, then newline so
       subsequent output starts clean *)
    render t ~now:(Unix.gettimeofday ());
    output_char t.out '\n';
    flush t.out
  end

let members_done t = t.members_done
