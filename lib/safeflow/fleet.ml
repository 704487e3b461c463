(** Fleet mode: sharded analysis of many subject systems over one shared
    content-addressed cache (see the interface). *)

let c_fleet_systems = Telemetry.counter "fleet.systems"
let c_fleet_shards = Telemetry.counter "fleet.shards"
let c_fleet_members = Telemetry.counter "fleet.members"
let c_certs_pass = Telemetry.counter "fleet.certs_pass"
let c_certs_fail = Telemetry.counter "fleet.certs_fail"
let c_certs_skipped = Telemetry.counter "fleet.certs_skipped"

type cert_counts = {
  cc_written : int;
  cc_passed : int;
  cc_failed : int;
  cc_skipped : int;
}

type member_result = {
  mr_path : string;
  mr_report : string;
  mr_entries : Diffreport.entry list;
  mr_errors : int;
  mr_warnings : int;
  mr_ledger : Ledger.entry list;
  mr_certs : cert_counts option;
}

type cache_totals = {
  ct_hits : int;
  ct_misses : int;
  ct_stale : int;
  ct_corrupt : int;
  ct_cross : int;
}

let no_cache_totals = { ct_hits = 0; ct_misses = 0; ct_stale = 0; ct_corrupt = 0; ct_cross = 0 }

let cache_totals_of (c : Cache.t) : cache_totals =
  List.fold_left
    (fun acc (_, (s : Cache.ns_stats)) ->
      {
        ct_hits = acc.ct_hits + s.Cache.hits;
        ct_misses = acc.ct_misses + s.Cache.misses;
        ct_stale = acc.ct_stale + s.Cache.stale;
        ct_corrupt = acc.ct_corrupt + s.Cache.corrupt;
        ct_cross = acc.ct_cross + s.Cache.cross;
      })
    no_cache_totals (Cache.detailed_stats c)

let map2_totals f a b =
  {
    ct_hits = f a.ct_hits b.ct_hits;
    ct_misses = f a.ct_misses b.ct_misses;
    ct_stale = f a.ct_stale b.ct_stale;
    ct_corrupt = f a.ct_corrupt b.ct_corrupt;
    ct_cross = f a.ct_cross b.ct_cross;
  }

type result = {
  f_results : member_result list;
  f_failures : Forkmap.failure list;
  f_systems : int;
  f_jobs : int;
  f_elapsed_s : float;
  f_analyses_per_sec : float;
  f_cache : cache_totals;
}

(* a write that fails, or a bundle the emitter rejects: the input's
   failure record, raised out of the steps after its analysis *)
exception Failed of Forkmap.cause * string

let cannot_write path e =
  let reason =
    match e with
    | Sys_error msg ->
      let prefix = path ^ ": " in
      if String.starts_with ~prefix msg then
        String.sub msg (String.length prefix) (String.length msg - String.length prefix)
      else msg
    | Unix.Unix_error (e, _, arg) ->
      let reason = Unix.error_message e in
      if arg = "" || arg = path then reason else arg ^ ": " ^ reason
    | e -> Printexc.to_string e
  in
  Printf.sprintf "cannot write %s: %s" path reason

let writing path f =
  try f path
  with (Sys_error _ | Unix.Unix_error _) as e -> raise (Failed (Unwritable, cannot_write path e))

(* The bundle of one analysed input, revalidated when [check_certs]
   against a fresh read and parse of its source.  The real path is
   recorded as the manifest label, but digests bind to the IR as
   analyzed (under [label]). *)
let certify ?config ~check_certs ~label ~dir path a =
  let s =
    match writing dir (fun dir -> Cert.emit_bundle ?config ~label:path ~dir a) with
    | Ok s -> s
    | Error e ->
      raise (Failed (Crashed, Printf.sprintf "certificate emission failed for %s: %s" path e))
  in
  let counts passed failed skipped =
    { cc_written = s.Cert.cs_written; cc_passed = passed; cc_failed = failed; cc_skipped = skipped }
  in
  if not check_certs then counts 0 0 (List.length s.Cert.cs_skipped)
  else begin
    let o = Cert.check_bundle ~label (Minic.Loc.read_source path) dir in
    let failed = List.length o.Checker.failures in
    Telemetry.add c_certs_pass o.Checker.passed;
    Telemetry.add c_certs_fail failed;
    Telemetry.add c_certs_skipped o.Checker.skipped;
    counts o.Checker.passed failed o.Checker.skipped
  end

(* A fleet member as it crosses the pipe.  Finding locations come out
   under the normalized label; baselines and gating attribute them to
   the real member.  The certificate counts are filled in after the
   writes. *)
let render_member ~source_label path (a : Driver.analysis) =
  let r = a.Driver.report in
  let relabel (e : Diffreport.entry) =
    let w = e.Diffreport.e_where in
    if String.starts_with ~prefix:source_label w then
      {
        e with
        Diffreport.e_where =
          (let l = String.length source_label in
           path ^ String.sub w l (String.length w - l));
      }
    else e
  in
  {
    mr_path = path;
    mr_report = Fmt.str "%a" Report.pp r;
    mr_entries = List.map relabel (Diffreport.entries_of_report a.Driver.fingerprints ~file:path r);
    mr_errors = List.length (Report.errors r);
    mr_warnings = List.length r.Report.warnings;
    mr_ledger = a.Driver.ledger;
    mr_certs = None;
  }

(* One stripe, in the process that runs it: a cache instance opened on
   the shared directory, then each input through the one per-input
   function, with the cache traffic it caused, plus the stripe's error
   and warning totals.  [emit], when present, receives one Events line
   per lifecycle point; event emission is skipped entirely (not just
   dropped) when absent.  [worker] is the shard index, used as the event
   tag. *)
let analyze_stripe ?config ?cache_dir ?bundle ?(check_certs = false) ?vfg ~label ~render
    ~worker ~(emit : (string -> unit) option) (paths : string array) (indices : int array) =
  let verbose = match config with Some c -> c.Config.verbose | None -> false in
  let on_recovery =
    Option.map
      (fun e ~kind ~ns ~key -> e (Events.cache_recovered ~worker ~ns ~key ~kind))
      emit
  in
  let cache =
    Option.map (fun dir -> Cache.create ~dir ~verbose ?on_recovery ()) cache_dir
  in
  let totals () = match cache with Some c -> cache_totals_of c | None -> no_cache_totals in
  (* read, analyze under [label] with the input's path as the cache
     origin and render; then write the DOT file and the bundle.  An
     input whose writes fail keeps its rendered row next to its
     failure *)
  let analyze path =
    let fail ?row cause message = Error ({ Forkmap.input = path; cause; message }, row) in
    let crashed e = Printf.sprintf "%s: %s" path (Printexc.to_string e) in
    let label = label path in
    Cache.with_origin path @@ fun () ->
    match
      (* read here, not held: a source live through the analysis raises
         its peak heap by its own size *)
      let a = Driver.analyze ?config ?cache ~file:label (Minic.Loc.read_source path) in
      (a, render path a)
    with
    | exception Minic.Loc.Error (loc, msg) ->
      (* a frontend error names the input, not a normalized label *)
      let loc = if loc.Minic.Loc.file = label then { loc with Minic.Loc.file = path } else loc in
      fail Rejected (Fmt.str "%a: %s" Minic.Loc.pp loc msg)
    | exception e -> fail Crashed (crashed e)
    | a, row -> (
      match
        Option.iter
          (fun p ->
            writing p (fun p -> Vfg.write_dot p (Lazy.force a.Driver.detail).Driver.phase3))
          vfg;
        Option.map (fun dir -> certify ?config ~check_certs ~label ~dir:(dir path) path a) bundle
      with
      | certs -> Ok (a.Driver.report, certs, row)
      | exception Failed (cause, message) -> fail ~row cause message
      | exception e -> fail ~row Crashed (crashed e))
  in
  let total = Array.length indices in
  Telemetry.add c_fleet_members total;
  let errors = ref 0 and warnings = ref 0 and done_count = ref 0 in
  (* heartbeat after the first input to finish a quiet second later *)
  let last_beat = ref (Telemetry.now_ns ()) in
  let step i =
    let path = paths.(i) in
    let before = totals () in
    Option.iter (fun e -> e (Events.member_start ~worker ~path)) emit;
    let t0 = Unix.gettimeofday () in
    let r = analyze path in
    let delta = map2_totals ( - ) (totals ()) before in
    let len = List.length in
    let status, e, w, findings, certs =
      match r with
      | Ok (rep, certs, _) ->
        let w = len rep.Report.warnings in
        ( "ok", len (Report.errors rep), w,
          len rep.Report.violations + w + len rep.Report.dependencies + len rep.Report.infos,
          certs )
      | Error ({ Forkmap.cause; _ }, _) ->
        ( (match cause with
          | Rejected -> "rejected"
          | Unwritable -> "unwritable"
          | Crashed -> "crashed"),
          0, 0, 0, None )
    in
    errors := !errors + e;
    warnings := !warnings + w;
    Option.iter
      (fun emit ->
        emit
          (Events.member_done ~worker ~path ~status ~errors:e ~warnings:w ~findings
             ~cache_hits:delta.ct_hits ~cache_misses:delta.ct_misses
             ?certs:(Option.map (fun c -> (c.cc_passed, c.cc_failed, c.cc_skipped)) certs)
             ~elapsed_ms:((Unix.gettimeofday () -. t0) *. 1000.0)
             ());
        incr done_count;
        let now = Telemetry.now_ns () in
        if Int64.sub now !last_beat > 1_000_000_000L then begin
          last_beat := now;
          emit (Events.heartbeat ~worker ~done_:!done_count ~total)
        end)
      emit;
    Result.map (fun (_, certs, row) -> (row, certs, delta)) r
    |> Result.map_error (fun (f, row) -> (f, Option.map (fun row -> (row, delta)) row))
  in
  let results = Array.map step indices in
  (results, !errors, !warnings)

(* Inputs with the same source analyzed under one label share every
   cache key: grouping them by content on one worker makes the first one
   store the entries and the others hit them, in every run.  Spread over
   two workers, both could miss and store. *)
let content_key paths i =
  try Digest.file paths.(i) with Sys_error _ -> "path:" ^ paths.(i)

let analyze_inputs ?config ?cache_dir ?(jobs = 1) ?source_label ?on_event ?bundle
    ?check_certs ?vfg ~render (paths : string list) =
  let paths = Array.of_list paths in
  let n = Array.length paths in
  let label path = Option.value source_label ~default:path in
  let stripe = analyze_stripe ?config ?cache_dir ?bundle ?check_certs ?vfg ~label ~render in
  let workers = min jobs n in
  if workers <= 1 then
    (* one process: every single-input run, and the mode tests use for
       single-process cache statistics *)
    let results, _, _ = stripe ~worker:0 ~emit:on_event paths (Array.init n Fun.id) in
    results
  else begin
    let key = Option.map (fun _ -> content_key paths) source_label in
    let stripes = Forkmap.stripes ?key ~workers n in
    (* the member_done events seen, per path *)
    let reported = Hashtbl.create 16 in
    let counted =
      Option.map
        (fun sink line ->
          (match Jsonlite.parse line with
          | Ok j when Option.bind (Jsonlite.member "ev" j) Jsonlite.to_string = Some "member_done"
            -> (
            match Option.bind (Jsonlite.member "path" j) Jsonlite.to_string with
            | Some p ->
              Hashtbl.replace reported p (1 + Option.value ~default:0 (Hashtbl.find_opt reported p))
            | None -> ())
          | _ -> ());
          sink line)
        on_event
    in
    let results =
      Forkmap.map ?on_event:counted ~stripes ~name:(Array.get paths) (fun ~worker ~emit indices ->
          Logctx.set (Printf.sprintf "[worker %d] " worker);
          let members = Array.length indices in
          Option.iter (fun e -> e (Events.worker_start ~worker ~pid:(Unix.getpid ()) ~members)) emit;
          let results, errors, warnings = stripe ~worker ~emit paths indices in
          Option.iter (fun e -> e (Events.worker_done ~worker ~members ~errors ~warnings)) emit;
          Array.map Result.ok results)
      |> Array.map (function Ok r -> r | Error f -> Error (f, None))
    in
    (* a worker that died reported none of the inputs it had not
       finished: the parent reports them, so every input gets its
       member_done *)
    Option.iter
      (fun sink ->
        Array.iteri
          (fun worker stripe ->
            Array.iter
              (fun i ->
                match results.(i) with
                | Error ({ Forkmap.cause = Forkmap.Crashed; _ }, _) -> (
                  match Hashtbl.find_opt reported paths.(i) with
                  | Some k when k > 0 -> Hashtbl.replace reported paths.(i) (k - 1)
                  | _ ->
                    sink
                      (Events.member_done ~worker ~path:paths.(i) ~status:"crashed" ~errors:0
                         ~warnings:0 ~findings:0 ~cache_hits:0 ~cache_misses:0 ~elapsed_ms:0.0 ()))
                | _ -> ())
              stripe)
          stripes)
      on_event;
    results
  end

let run ?config ?cache_dir ?(jobs = 1) ?(source_label = "<system>") ?on_event ?emit_certs
    ?check_certs (paths : string list) : result =
  Telemetry.span "fleet.run" @@ fun () ->
  let n = List.length paths in
  let jobs = max 1 (min jobs (max 1 n)) in
  let emit_parent line = match on_event with Some sink -> sink line | None -> () in
  emit_parent (Events.fleet_start ~systems:n ~jobs);
  let t0 = Unix.gettimeofday () in
  let analyzed =
    analyze_inputs ?config ?cache_dir ~jobs ~source_label ?on_event
      ?bundle:(Option.map Cert.bundle_dir emit_certs)
      ?check_certs ~render:(render_member ~source_label) paths
  in
  let elapsed = Unix.gettimeofday () -. t0 in
  let aps = if elapsed > 0.0 then float_of_int n /. elapsed else 0.0 in
  Telemetry.add c_fleet_systems n;
  Telemetry.add c_fleet_shards jobs;
  Telemetry.record_float_max "fleet.analyses_per_sec" aps;
  emit_parent (Events.fleet_done ~systems:n ~elapsed_s:elapsed ~analyses_per_sec:aps);
  let analyzed = Array.to_list analyzed in
  {
    (* a member whose writes failed keeps its row next to its failure *)
    f_results =
      List.filter_map
        (function
          | Ok (m, certs, _) -> Some { m with mr_certs = certs } | Error (_, row) -> Option.map fst row)
        analyzed;
    f_failures = List.filter_map (function Error (f, _) -> Some f | Ok _ -> None) analyzed;
    f_systems = n;
    f_jobs = jobs;
    f_elapsed_s = elapsed;
    f_analyses_per_sec = aps;
    f_cache =
      List.fold_left
        (fun acc -> function
          | Ok (_, _, t) | Error (_, Some (_, t)) -> map2_totals ( + ) acc t
          | Error (_, None) -> acc)
        no_cache_totals analyzed;
  }

(* -- input collection --------------------------------------------------------- *)

let members_of_dir dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".c")
  |> List.sort compare
  |> List.map (Filename.concat dir)

let members_of_manifest path =
  Minic.Loc.read_source path |> String.split_on_char '\n'
  |> List.filter_map (fun line ->
         let line = String.trim line in
         if line = "" || line.[0] = '#' then None
         else if Filename.is_relative line then
           Some (Filename.concat (Filename.dirname path) line)
         else Some line)
