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
  f_systems : int;
  f_jobs : int;
  f_elapsed_s : float;
  f_analyses_per_sec : float;
  f_cache : cache_totals;
}

(* One member: analyze under the normalized source label (so identical
   members share one source key and their cache entries dedupe
   fleet-wide) but attribute cache traffic to the member's real path —
   a later hit from a different member is a cross-system hit. *)
let analyze_member ?config ?cache ?emit_certs ?(check_certs = false) ~source_label
    path : member_result =
  let src = Minic.Loc.read_source path in
  Cache.with_origin path (fun () ->
      let a =
        try Driver.analyze ?config ?cache ~file:source_label src
        with Minic.Loc.Error (loc, msg) when loc.Minic.Loc.file = source_label ->
          (* a frontend error names the member, not the normalized label *)
          raise (Minic.Loc.Error ({ loc with Minic.Loc.file = path }, msg))
      in
      let r = a.Driver.report in
      let ctx = a.Driver.fingerprints in
      (* per-member certificate bundle under <root>/<basename>; the
         real path is recorded as the manifest label, but digests bind
         to the IR as analyzed (under the normalized source label) *)
      let certs =
        match emit_certs with
        | None -> None
        | Some root ->
          let bdir =
            Filename.concat root (Filename.remove_extension (Filename.basename path))
          in
          let s =
            match Cert.emit_bundle ?config ~label:path ~dir:bdir a with
            | Ok s -> s
            | Error e -> failwith (path ^ ": certificate emission failed: " ^ e)
          in
          if not check_certs then
            Some
              {
                cc_written = s.Cert.cs_written;
                cc_passed = 0;
                cc_failed = 0;
                cc_skipped = List.length s.Cert.cs_skipped;
              }
          else begin
            (* independent re-validation: a fresh parse of the member's
               source, never the analysis pipeline's own structures *)
            let prep = Driver.prepare_source ~file:source_label src in
            let ir = prep.Driver.ir in
            let shm = Driver.stage_shm prep in
            let regions =
              List.map (fun (rg : Shm.region) -> (rg.Shm.r_name, rg.Shm.r_size))
                shm.Shm.regions
            in
            let d = Digest_ir.of_program ir in
            let o =
              Checker.validate_bundle ~ir ~regions
                ~expect:
                  [ ("program", d.Digest_ir.program); ("env", d.Digest_ir.env) ]
                ~check_finding:(Cert.check_finding_binding ir) bdir
            in
            Telemetry.add c_certs_pass o.Checker.passed;
            Telemetry.add c_certs_fail (List.length o.Checker.failures);
            Telemetry.add c_certs_skipped o.Checker.skipped;
            Some
              {
                cc_written = s.Cert.cs_written;
                cc_passed = o.Checker.passed;
                cc_failed = List.length o.Checker.failures;
                cc_skipped = o.Checker.skipped;
              }
          end
      in
      (* finding locations come out under the normalized label; baselines
         and gating should attribute them to the real member *)
      let relabel (e : Diffreport.entry) =
        let ll = String.length source_label in
        if
          String.length e.Diffreport.e_where >= ll
          && String.equal (String.sub e.Diffreport.e_where 0 ll) source_label
        then
          {
            e with
            Diffreport.e_where =
              path ^ String.sub e.Diffreport.e_where ll (String.length e.Diffreport.e_where - ll);
          }
        else e
      in
      {
        mr_path = path;
        mr_report = Fmt.str "%a" Report.pp r;
        mr_entries =
          List.map relabel (Diffreport.entries_of_report ctx ~file:path r);
        mr_errors = List.length (Report.errors r);
        mr_warnings = List.length r.Report.warnings;
        (* pure data, so it marshals over the worker result channel
           unchanged — the fleet parent gets every member's audit trail *)
        mr_ledger = a.Driver.ledger;
        mr_certs = certs;
      })

(* One shard's member analyzer: a cache instance opened on the shared
   directory, and per member its result and the cache traffic it caused.
   [emit], when present, receives one Events line per lifecycle point;
   event emission is skipped entirely (not just dropped) when absent.
   [worker] is the shard index, used as the event tag. *)
let shard_analyzer ?config ?cache_dir ?emit_certs ?check_certs ~source_label ~worker
    ~(emit : (string -> unit) option) ~total (paths : string array) :
    int -> member_result * cache_totals =
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
  Telemetry.add c_fleet_members total;
  let done_count = ref 0 in
  (* heartbeat after the first member to finish a quiet second later *)
  let last_beat = ref (Telemetry.now_ns ()) in
  fun i ->
    let path = paths.(i) in
    let before = totals () in
    Option.iter (fun e -> e (Events.member_start ~worker ~path)) emit;
    let t0 = Unix.gettimeofday () in
    let r = analyze_member ?config ?cache ?emit_certs ?check_certs ~source_label path in
    let delta = map2_totals ( - ) (totals ()) before in
    Option.iter
      (fun emit ->
        emit
          (Events.member_done ~worker ~path ~errors:r.mr_errors ~warnings:r.mr_warnings
             ~findings:(List.length r.mr_entries) ~cache_hits:delta.ct_hits
             ~cache_misses:delta.ct_misses
             ?certs:(Option.map (fun c -> (c.cc_passed, c.cc_failed, c.cc_skipped)) r.mr_certs)
             ~elapsed_ms:((Unix.gettimeofday () -. t0) *. 1000.0)
             ());
        incr done_count;
        let now = Telemetry.now_ns () in
        if Int64.sub now !last_beat > 1_000_000_000L then begin
          last_beat := now;
          emit (Events.heartbeat ~worker ~done_:!done_count ~total)
        end)
      emit;
    (r, delta)

(* Members with the same source are analyzed under the same label, so
   they share every cache key: grouping them by content on one worker
   makes the first one store the entries and the others hit them, in
   every run.  Spread over two workers, both could miss and store. *)
let content_key paths i =
  try Digest.file paths.(i) with Sys_error _ -> "path:" ^ paths.(i)

(* Fork-based sharding over {!Forkmap}: each worker opens its own cache
   instance on the shared directory (the disk tier is the shared medium;
   see Cache for the write/validate protocol) and analyzes its stripe.
   A member that raises comes back as its message, and the first one in
   input order fails the run. *)
let run_forked ?config ?cache_dir ?emit_certs ?check_certs ~jobs ~source_label ~on_event
    (paths : string array) : (member_result * cache_totals) array =
  let stripes = Forkmap.stripes ~key:(content_key paths) ~workers:jobs (Array.length paths) in
  let results =
    Forkmap.map ?on_event ~what:"fleet shard" ~stripes (fun ~worker ~emit indices ->
        Logctx.set (Printf.sprintf "[worker %d] " worker);
        let members = Array.length indices in
        Option.iter (fun e -> e (Events.worker_start ~worker ~pid:(Unix.getpid ()) ~members)) emit;
        let analyze =
          shard_analyzer ?config ?cache_dir ?emit_certs ?check_certs ~source_label ~worker ~emit
            ~total:members paths
        in
        let results =
          Array.map
            (fun i ->
              try Ok (analyze i)
              with e ->
                Error
                  (match e with
                  | Minic.Loc.Error (loc, msg) -> Fmt.str "%a: %s" Minic.Loc.pp loc msg
                  | e -> Printexc.to_string e))
            indices
        in
        Option.iter
          (fun e ->
            let errors, warnings =
              Array.fold_left
                (fun (es, ws) -> function
                  | Ok (r, _) -> (es + r.mr_errors, ws + r.mr_warnings)
                  | Error _ -> (es, ws))
                (0, 0) results
            in
            e (Events.worker_done ~worker ~members ~errors ~warnings))
          emit;
        results)
  in
  Array.mapi
    (fun i -> function
      | Ok r -> r
      | Error msg ->
        let j = ref 0 in
        Array.iteri (fun k s -> if Array.mem i s then j := k) stripes;
        failwith (Printf.sprintf "fleet shard %d/%d: %s" !j jobs msg))
    results

let run ?config ?cache_dir ?(jobs = 1) ?(source_label = "<system>") ?on_event ?emit_certs
    ?check_certs (paths : string list) : result =
  Telemetry.span "fleet.run" @@ fun () ->
  let n = List.length paths in
  let arr = Array.of_list paths in
  let jobs = max 1 (min jobs (max 1 n)) in
  let emit_parent line = match on_event with Some sink -> sink line | None -> () in
  emit_parent (Events.fleet_start ~systems:n ~jobs);
  let t0 = Unix.gettimeofday () in
  let analyzed =
    (* a sequential run stays in this process: the mode tests use for
       single-process cache statistics *)
    if jobs <= 1 then
      Array.init n
        (shard_analyzer ?config ?cache_dir ?emit_certs ?check_certs ~source_label ~worker:0
           ~emit:on_event ~total:n arr)
    else run_forked ?config ?cache_dir ?emit_certs ?check_certs ~jobs ~source_label ~on_event arr
  in
  let elapsed = Unix.gettimeofday () -. t0 in
  let aps = if elapsed > 0.0 then float_of_int n /. elapsed else 0.0 in
  Telemetry.add c_fleet_systems n;
  Telemetry.add c_fleet_shards jobs;
  Telemetry.record_float_max "fleet.analyses_per_sec" aps;
  emit_parent (Events.fleet_done ~systems:n ~elapsed_s:elapsed ~analyses_per_sec:aps);
  {
    f_results = Array.to_list (Array.map fst analyzed);
    f_systems = n;
    f_jobs = jobs;
    f_elapsed_s = elapsed;
    f_analyses_per_sec = aps;
    f_cache = Array.fold_left (fun acc (_, t) -> map2_totals ( + ) acc t) no_cache_totals analyzed;
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
