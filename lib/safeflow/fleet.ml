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

let add_totals a b =
  {
    ct_hits = a.ct_hits + b.ct_hits;
    ct_misses = a.ct_misses + b.ct_misses;
    ct_stale = a.ct_stale + b.ct_stale;
    ct_corrupt = a.ct_corrupt + b.ct_corrupt;
    ct_cross = a.ct_cross + b.ct_cross;
  }

type result = {
  f_results : member_result list;
  f_systems : int;
  f_jobs : int;
  f_shard_domains : int;
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

(* bounded domain pool over an index list; results in input order,
   exceptions re-raised in input order *)
let pool_map ~domains (f : 'a -> 'b) (items : 'a array) : 'b array =
  let n = Array.length items in
  let domains = max 1 (min domains n) in
  if domains <= 1 || n <= 1 then Array.map f items
  else begin
    let results : ('b, exn) Stdlib.result option array = Array.make n None in
    let next = Atomic.make 0 in
    let worker () =
      let rec loop () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          results.(i) <- Some (try Ok (f items.(i)) with e -> Error e);
          loop ()
        end
      in
      loop ()
    in
    let extra = List.init (domains - 1) (fun _ -> Domain.spawn worker) in
    worker ();
    List.iter Domain.join extra;
    Array.map
      (function Some (Ok r) -> r | Some (Error e) -> raise e | None -> assert false)
      results
  end

(* one shard: the members at [indices], analyzed on [shard_domains]
   domains against a cache instance opened on the shared directory.
   [emit], when present, receives one Events line per lifecycle point;
   event emission is skipped entirely (not just dropped) when absent.
   [worker] is the shard index, used as the event/worker tag. *)
let run_shard ?config ?cache_dir ?emit_certs ?check_certs ~shard_domains
    ~source_label ~worker ~(emit : (string -> unit) option) (paths : string array)
    (indices : int array) : (int * member_result) array * cache_totals =
  let verbose = match config with Some c -> c.Config.verbose | None -> false in
  let on_recovery =
    Option.map
      (fun e ~kind ~ns ~key -> e (Events.cache_recovered ~worker ~ns ~key ~kind))
      emit
  in
  let cache =
    Option.map (fun dir -> Cache.create ~dir ~verbose ?on_recovery ()) cache_dir
  in
  Telemetry.add c_fleet_members (Array.length indices);
  let total = Array.length indices in
  let done_count = Atomic.make 0 in
  (* opportunistic heartbeat: whichever domain finishes a member first
     after a quiet second wins the CAS and emits *)
  let last_beat = Atomic.make (Int64.to_int (Telemetry.now_ns ())) in
  let analyze_one i =
    let path = paths.(i) in
    match emit with
    | None ->
      (i, analyze_member ?config ?cache ?emit_certs ?check_certs ~source_label path)
    | Some emit ->
      emit (Events.member_start ~worker ~path);
      let before =
        match cache with Some c -> cache_totals_of c | None -> no_cache_totals
      in
      let t0 = Unix.gettimeofday () in
      let r =
        analyze_member ?config ?cache ?emit_certs ?check_certs ~source_label path
      in
      let after =
        match cache with Some c -> cache_totals_of c | None -> no_cache_totals
      in
      emit
        (Events.member_done ~worker ~path ~errors:r.mr_errors
           ~warnings:r.mr_warnings
           ~findings:(List.length r.mr_entries)
           ~cache_hits:(after.ct_hits - before.ct_hits)
           ~cache_misses:(after.ct_misses - before.ct_misses)
           ?certs:
             (Option.map
                (fun c -> (c.cc_passed, c.cc_failed, c.cc_skipped))
                r.mr_certs)
           ~elapsed_ms:((Unix.gettimeofday () -. t0) *. 1000.0)
           ());
      let d = Atomic.fetch_and_add done_count 1 + 1 in
      let now = Int64.to_int (Telemetry.now_ns ()) in
      let last = Atomic.get last_beat in
      if now - last > 1_000_000_000 && Atomic.compare_and_set last_beat last now
      then emit (Events.heartbeat ~worker ~done_:d ~total);
      (i, r)
  in
  let results = pool_map ~domains:shard_domains analyze_one indices in
  (results, match cache with Some c -> cache_totals_of c | None -> no_cache_totals)

(* round-robin striping: member i belongs to shard (i mod jobs), so
   systems of similar generated size spread evenly across shards *)
let shard_indices n jobs j =
  Array.of_list (List.filter (fun i -> i mod jobs = j) (List.init n Fun.id))

let mkdtemp prefix =
  let base = Filename.get_temp_dir_name () in
  let rec go k =
    let d =
      Filename.concat base (Printf.sprintf "%s-%d-%d" prefix (Unix.getpid ()) k)
    in
    if Sys.file_exists d then go (k + 1)
    else begin
      try
        Sys.mkdir d 0o700;
        d
      with Sys_error _ -> go (k + 1)
    end
  in
  go 0

(* what a worker marshals back: its tagged member results, its cache
   totals, and — when telemetry is on — its telemetry snapshot *)
type shard_payload =
  ((int * member_result) array * cache_totals * Telemetry.snapshot option, string)
  Stdlib.result

(* Fork-based sharding.  Each worker process opens its own cache
   instance on the shared directory (the disk tier is the shared
   medium; see Cache for the write/validate protocol), analyzes its
   stripe, and marshals the per-member results — plus its telemetry
   snapshot — back through a temp file.  Results and exceptions are
   both round-tripped, so a failing member fails the fleet run with its
   original message.

   Event streaming rides a dedicated pipe: workers write atomic NDJSON
   lines (see Events), the parent drains to EOF — reached when the last
   worker exits and the kernel drops its write end — and only then
   reaps children, so draining cannot deadlock against a full pipe. *)
let run_forked ?config ~cache_dir ?emit_certs ?check_certs ~jobs ~shard_domains
    ~source_label ~(on_event : (string -> unit) option) (paths : string array) :
    (int * member_result) array * cache_totals =
  let n = Array.length paths in
  let tmpdir = mkdtemp "safeflow-fleet" in
  let shard_file j = Filename.concat tmpdir (Printf.sprintf "shard-%d.bin" j) in
  (* buffered output duplicated into children would be flushed twice *)
  flush stdout;
  flush stderr;
  let pipe = Option.map (fun _ -> Unix.pipe ()) on_event in
  let fork_child j =
    match Unix.fork () with
    | 0 ->
      (* fresh telemetry state on the parent's timeline; labelled
         verbose output; a vanished event reader must not kill us *)
      Telemetry.begin_worker ();
      Logctx.set (Printf.sprintf "[worker %d] " j);
      let emit =
        match pipe with
        | None -> None
        | Some (rfd, wfd) ->
          Unix.close rfd;
          (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
           with Invalid_argument _ -> ());
          Some (fun line -> Events.write_line wfd line)
      in
      let status =
        try
          let indices = shard_indices n jobs j in
          (match emit with
          | Some e ->
            e
              (Events.worker_start ~worker:j ~pid:(Unix.getpid ())
                 ~members:(Array.length indices))
          | None -> ());
          let tagged, totals =
            run_shard ?config ?cache_dir ?emit_certs ?check_certs ~shard_domains
              ~source_label ~worker:j ~emit paths indices
          in
          (match emit with
          | Some e ->
            let errors, warnings =
              Array.fold_left
                (fun (es, ws) (_, r) -> (es + r.mr_errors, ws + r.mr_warnings))
                (0, 0) tagged
            in
            e
              (Events.worker_done ~worker:j ~members:(Array.length tagged)
                 ~errors ~warnings)
          | None -> ());
          let snap = if Telemetry.enabled () then Some (Telemetry.snapshot ()) else None in
          let oc = open_out_bin (shard_file j) in
          Marshal.to_channel oc (Ok (tagged, totals, snap) : shard_payload) [];
          close_out oc;
          0
        with e ->
          let msg =
            match e with
            | Minic.Loc.Error (loc, msg) -> Fmt.str "%a: %s" Minic.Loc.pp loc msg
            | e -> Printexc.to_string e
          in
          (try
             let oc = open_out_bin (shard_file j) in
             Marshal.to_channel oc (Error msg : shard_payload) [];
             close_out oc
           with _ -> ());
          1
      in
      (* _exit: no at_exit handlers, no double-flushed buffers; also
         drops our write end of the event pipe *)
      Unix._exit status
    | pid -> pid
  in
  let pids =
    try List.init jobs fork_child
    with e ->
      (* fork refused (a domain was spawned earlier in this process):
         release the pipe before the caller degrades to in-process *)
      (match pipe with
      | Some (rfd, wfd) ->
        (try Unix.close rfd with Unix.Unix_error _ -> ());
        (try Unix.close wfd with Unix.Unix_error _ -> ())
      | None -> ());
      raise e
  in
  (* drain the event pipe to EOF before reaping: every worker holds a
     write end until _exit, so EOF == all workers gone *)
  (match (pipe, on_event) with
  | Some (rfd, wfd), Some sink ->
    Unix.close wfd;
    let ic = Unix.in_channel_of_descr rfd in
    (try
       while true do
         sink (input_line ic)
       done
     with End_of_file | Sys_error _ -> ());
    close_in_noerr ic
  | _ -> ());
  (* reap every worker before acting on failures — no zombies *)
  let statuses =
    List.map (fun pid -> snd (Unix.waitpid [] pid)) pids
  in
  let shards =
    List.mapi
      (fun j status ->
        let fail fmt =
          Fmt.kstr
            (fun msg ->
              failwith (Printf.sprintf "fleet shard %d/%d: %s" j jobs msg))
            fmt
        in
        (match status with
        | Unix.WEXITED (0 | 1) -> ()
        | Unix.WEXITED c -> fail "worker exited with code %d" c
        | Unix.WSIGNALED s -> fail "worker killed by signal %d" s
        | Unix.WSTOPPED s -> fail "worker stopped by signal %d" s);
        let path = shard_file j in
        if not (Sys.file_exists path) then fail "worker produced no result file";
        let ic = open_in_bin path in
        let r =
          Fun.protect
            ~finally:(fun () -> close_in_noerr ic)
            (fun () -> (Marshal.from_channel ic : shard_payload))
        in
        match r with Ok shard -> shard | Error msg -> fail "%s" msg)
      statuses
  in
  (try
     Array.iter
       (fun f -> try Sys.remove (Filename.concat tmpdir f) with Sys_error _ -> ())
       (Sys.readdir tmpdir);
     Sys.rmdir tmpdir
   with Sys_error _ -> ());
  (* fold worker telemetry into the parent's fleet-wide view *)
  List.iteri
    (fun j (_, _, snap) ->
      match snap with
      | Some s ->
        if not (Telemetry.merge_worker ~label:(Printf.sprintf "worker %d" j) s)
        then
          Printf.eprintf
            "safeflow: fleet: dropping worker %d telemetry (snapshot version mismatch)\n%!"
            j
      | None -> ())
    shards;
  ( Array.concat (List.map (fun (tagged, _, _) -> tagged) shards),
    List.fold_left (fun acc (_, t, _) -> add_totals acc t) no_cache_totals shards )

let run ?config ?cache_dir ?(jobs = 1) ?(shard_domains = 1)
    ?(source_label = "<system>") ?on_event ?emit_certs ?check_certs
    (paths : string list) : result =
  Telemetry.span "fleet.run" @@ fun () ->
  let n = List.length paths in
  let arr = Array.of_list paths in
  let jobs = max 1 (min jobs (max 1 n)) in
  let emit_parent line = match on_event with Some sink -> sink line | None -> () in
  emit_parent (Events.fleet_start ~systems:n ~jobs ~shard_domains);
  let t0 = Unix.gettimeofday () in
  let in_process () =
    run_shard ?config ?cache_dir ?emit_certs ?check_certs ~shard_domains
      ~source_label ~worker:0 ~emit:on_event arr (Array.init n Fun.id)
  in
  let tagged, totals =
    (* The parent must stay domain-free: the OCaml 5 runtime forbids
       Unix.fork forever after the first Domain.spawn in a process.  So
       any run that wants domains forks (a single child hosts them when
       [jobs = 1]), and only a fully sequential run stays in-process.
       If fork is already off the table (some earlier code in this
       process spawned a domain), degrade to in-process sequential
       rather than fail. *)
    if jobs <= 1 && shard_domains <= 1 then in_process ()
    else
      try
        run_forked ?config ~cache_dir ?emit_certs ?check_certs ~jobs
          ~shard_domains ~source_label ~on_event arr
      with Failure msg
        when String.length msg >= 9 && String.sub msg 0 9 = "Unix.fork" ->
        in_process ()
  in
  let elapsed = Unix.gettimeofday () -. t0 in
  let by_index : member_result option array = Array.make n None in
  Array.iter (fun (i, r) -> by_index.(i) <- Some r) tagged;
  let results =
    Array.to_list
      (Array.map
         (function Some r -> r | None -> failwith "fleet: missing member result")
         by_index)
  in
  let aps = if elapsed > 0.0 then float_of_int n /. elapsed else 0.0 in
  Telemetry.add c_fleet_systems n;
  Telemetry.add c_fleet_shards jobs;
  Telemetry.record_float_max "fleet.analyses_per_sec" aps;
  emit_parent (Events.fleet_done ~systems:n ~elapsed_s:elapsed ~analyses_per_sec:aps);
  {
    f_results = results;
    f_systems = n;
    f_jobs = jobs;
    f_shard_domains = shard_domains;
    f_elapsed_s = elapsed;
    f_analyses_per_sec = aps;
    f_cache = totals;
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
