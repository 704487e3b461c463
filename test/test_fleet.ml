(* Fleet-mode tests:

   - the shared disk cache under concurrent hammering from several
     processes AND from several domains of one process: no corrupt
     entries, no wrong values, every key readable afterwards;
   - cross-system hit attribution via Cache.with_origin;
   - fleet report identity: a sharded (2 processes x 2 domains) run over
     a shared cache — cold and warm — is byte-identical to a sequential
     no-cache baseline, with cross-system hits observed on the way and
     no miss and no corrupt entry on the warm run.

   Ordering matters: the OCaml 5 runtime forbids Unix.fork in any
   process that has ever spawned a domain, so every fork-based test
   (including Fleet.run with jobs or domains, which forks workers) runs
   before the in-process multi-domain test, which is last. *)

open Safeflow

let ns = "fleettest"

let mkdtemp prefix =
  let base = Filename.get_temp_dir_name () in
  let rec go k =
    let d = Filename.concat base (Printf.sprintf "%s-%d-%d" prefix (Unix.getpid ()) k) in
    if Sys.file_exists d then go (k + 1)
    else begin
      try
        Sys.mkdir d 0o700;
        d
      with Sys_error _ -> go (k + 1)
    end
  in
  go 0

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let rec rm_rf d =
  if Sys.file_exists d then begin
    Array.iter
      (fun f ->
        let p = Filename.concat d f in
        if Sys.is_directory p then rm_rf p else Sys.remove p)
      (Sys.readdir d);
    Sys.rmdir d
  end

(* deterministic structured value per key, so any torn/mixed read is
   detected by ordinary equality *)
let value_of key : string * int * string list =
  (key, String.length key, List.init 8 (fun i -> key ^ "#" ^ string_of_int i))

let keys n =
  Array.init n (fun i -> Digest.to_hex (Digest.string (Printf.sprintf "fleet-key-%d" i)))

(* miss -> store, hit -> verify; [rot] decorrelates the visit order per
   worker so writers genuinely race on the same keys *)
let hammer (c : Cache.t) (ks : string array) ~rot =
  let n = Array.length ks in
  for round = 0 to 1 do
    ignore round;
    for i = 0 to n - 1 do
      let key = ks.((i + rot) mod n) in
      match (Cache.find c ~ns ~key : (string * int * string list) option) with
      | Some v -> if v <> value_of key then failwith ("wrong value for " ^ key)
      | None -> Cache.store c ~ns ~key (value_of key)
    done
  done

let corrupt_count c =
  List.fold_left (fun acc (_, (s : Cache.ns_stats)) -> acc + s.Cache.corrupt) 0
    (Cache.detailed_stats c)

(* -- multi-process ----------------------------------------------------------- *)

let test_multiprocess () =
  let dir = mkdtemp "sf-fleet-mp" in
  let ks = keys 200 in
  flush stdout;
  flush stderr;
  let pids =
    List.init 4 (fun p ->
        match Unix.fork () with
        | 0 ->
          let status =
            try
              let c = Cache.create ~dir () in
              hammer c ks ~rot:(p * 37);
              (* everything this process touched must now read back *)
              Array.iter
                (fun key ->
                  match (Cache.find c ~ns ~key : (string * int * string list) option) with
                  | Some v -> if v <> value_of key then failwith "verify"
                  | None -> failwith "lost key")
                ks;
              if corrupt_count c > 0 then failwith "corrupt entries";
              0
            with _ -> 1
          in
          Unix._exit status
        | pid -> pid)
  in
  List.iter
    (fun pid ->
      match Unix.waitpid [] pid with
      | _, Unix.WEXITED 0 -> ()
      | _, _ -> Alcotest.fail "worker process failed (wrong value, lost key or corrupt)")
    pids;
  (* a fresh process-equivalent reader sees every entry, uncorrupted *)
  let c = Cache.create ~dir () in
  Array.iter
    (fun key ->
      match (Cache.find c ~ns ~key : (string * int * string list) option) with
      | Some v -> Alcotest.(check bool) "value intact" true (v = value_of key)
      | None -> Alcotest.fail ("missing key " ^ key))
    ks;
  Alcotest.(check int) "no corrupt entries" 0 (corrupt_count c);
  rm_rf dir

(* -- cross-origin accounting -------------------------------------------------- *)

let test_cross_origin () =
  let c = Cache.create () in
  Cache.with_origin "sysA" (fun () -> Cache.store c ~ns ~key:"k1" 42);
  let v = Cache.with_origin "sysA" (fun () -> Cache.find c ~ns ~key:"k1") in
  Alcotest.(check (option int)) "same-origin hit" (Some 42) v;
  Alcotest.(check int) "same-origin hit is not cross" 0 (Cache.cross_hits c);
  let v = Cache.with_origin "sysB" (fun () -> Cache.find c ~ns ~key:"k1") in
  Alcotest.(check (option int)) "cross-origin hit" (Some 42) v;
  Alcotest.(check int) "cross-origin hit counted" 1 (Cache.cross_hits c);
  (* empty origin (plain non-fleet runs) never counts cross *)
  let v : int option = Cache.find c ~ns ~key:"k1" in
  Alcotest.(check (option int)) "no-origin hit" (Some 42) v;
  Alcotest.(check int) "no-origin hit not cross" 1 (Cache.cross_hits c)

(* -- member collection -------------------------------------------------------- *)

let test_members () =
  let dir = mkdtemp "sf-fleet-members" in
  let write name content =
    let oc = open_out_bin (Filename.concat dir name) in
    output_string oc content;
    close_out oc
  in
  write "b.c" "x";
  write "a.c" "y";
  write "notes.txt" "z";
  Alcotest.(check (list string))
    "dir members sorted, .c only"
    [ Filename.concat dir "a.c"; Filename.concat dir "b.c" ]
    (Fleet.members_of_dir dir);
  write "fleet.manifest" "# comment\na.c\n\nb.c\n/abs/other.c\n";
  Alcotest.(check (list string))
    "manifest members resolved"
    [ Filename.concat dir "a.c"; Filename.concat dir "b.c"; "/abs/other.c" ]
    (Fleet.members_of_manifest (Filename.concat dir "fleet.manifest"));
  rm_rf dir

(* -- fleet identity ------------------------------------------------------------ *)

let test_fleet_identity () =
  let fp =
    { Synth.fleet_n = 12; fleet_workers = 4; fleet_overlap = 0.5; fleet_dup = 0.25 }
  in
  let src_dir = mkdtemp "sf-fleet-src" in
  let cache_dir = mkdtemp "sf-fleet-cache" in
  let paths =
    List.map
      (fun (name, src) ->
        let path = Filename.concat src_dir name in
        let oc = open_out_bin path in
        output_string oc src;
        close_out oc;
        path)
      (Synth.fleet ~seed:7 fp)
  in
  let reports (r : Fleet.result) =
    List.map (fun m -> m.Fleet.mr_report) r.Fleet.f_results
  in
  let base = Fleet.run paths in
  let cold = Fleet.run ~cache_dir ~jobs:2 ~shard_domains:2 paths in
  let warm = Fleet.run ~cache_dir ~jobs:2 ~shard_domains:2 paths in
  Alcotest.(check int) "all members analyzed" 12 base.Fleet.f_systems;
  Alcotest.(check (list string))
    "member order preserved" paths
    (List.map (fun m -> m.Fleet.mr_path) cold.Fleet.f_results);
  Alcotest.(check (list string)) "cold sharded run byte-identical to baseline"
    (reports base) (reports cold);
  Alcotest.(check (list string)) "warm sharded run byte-identical to baseline"
    (reports base) (reports warm);
  Alcotest.(check bool) "cold run sees cross-system hits" true
    (cold.Fleet.f_cache.Fleet.ct_cross > 0);
  Alcotest.(check bool) "warm run hits the cache" true
    (warm.Fleet.f_cache.Fleet.ct_hits > 0);
  Alcotest.(check int) "warm run misses nothing" 0 warm.Fleet.f_cache.Fleet.ct_misses;
  Alcotest.(check int) "no corrupt entries" 0
    (cold.Fleet.f_cache.Fleet.ct_corrupt + warm.Fleet.f_cache.Fleet.ct_corrupt);
  Alcotest.(check int) "no stale entries" 0
    (cold.Fleet.f_cache.Fleet.ct_stale + warm.Fleet.f_cache.Fleet.ct_stale);
  (* findings are attributed to real member paths, not the normalized label *)
  List.iter
    (fun (m : Fleet.member_result) ->
      List.iter
        (fun (e : Diffreport.entry) ->
          Alcotest.(check bool)
            ("finding located in " ^ m.Fleet.mr_path)
            true
            (Astring.String.is_prefix ~affix:m.Fleet.mr_path e.Diffreport.e_where))
        m.Fleet.mr_entries)
    cold.Fleet.f_results;
  rm_rf cache_dir;
  rm_rf src_dir

(* -- fleet observability -------------------------------------------------------- *)

(* A forked observed run (telemetry + events on) must produce a coherent
   merged view — worker snapshot sums matching fleet totals, events for
   every member, a multi-pid trace — while leaving reports byte-identical
   to an unobserved run.  Forks, so must run before the multidomain
   test. *)
let test_fleet_observability () =
  let fp =
    { Synth.fleet_n = 8; fleet_workers = 4; fleet_overlap = 0.5; fleet_dup = 0.25 }
  in
  let src_dir = mkdtemp "sf-fleet-obs-src" in
  let paths =
    List.map
      (fun (name, src) ->
        let path = Filename.concat src_dir name in
        let oc = open_out_bin path in
        output_string oc src;
        close_out oc;
        path)
      (Synth.fleet ~seed:11 fp)
  in
  let reports (r : Fleet.result) =
    List.map (fun m -> m.Fleet.mr_report) r.Fleet.f_results
  in
  (* plain run: no telemetry, no events, no cache *)
  let plain = Fleet.run ~jobs:2 ~shard_domains:2 paths in
  (* observed run *)
  Telemetry.set_enabled true;
  Telemetry.reset ();
  let cache_dir = mkdtemp "sf-fleet-obs-cache" in
  let events = ref [] in
  let parent_cross_before = Telemetry.value (Telemetry.counter "cache.cross_hits") in
  let observed =
    Fleet.run ~cache_dir ~jobs:2 ~shard_domains:2
      ~on_event:(fun line -> events := line :: !events)
      paths
  in
  let stats_path = Filename.temp_file "sf-obs-stats" ".json" in
  let trace_path = Filename.temp_file "sf-obs-trace" ".json" in
  Telemetry.write_stats_json stats_path;
  Telemetry.write_chrome_trace trace_path;
  let stats = Jsonlite.parse_exn (read_file stats_path) in
  let trace = Jsonlite.parse_exn (read_file trace_path) in
  Sys.remove stats_path;
  Sys.remove trace_path;
  let merged_cross = Telemetry.value (Telemetry.counter "cache.cross_hits") in
  Telemetry.set_enabled false;
  Telemetry.reset ();
  (* observability is report-neutral *)
  Alcotest.(check (list string)) "observed reports byte-identical to plain run"
    (reports plain) (reports observed);
  (* stats JSON: schema v4, one view per worker, consistent sums *)
  Alcotest.(check (option string)) "schema v4" (Some "safeflow-telemetry/4")
    (Option.bind (Jsonlite.member "schema" stats) Jsonlite.to_string);
  let workers =
    Option.get (Option.bind (Jsonlite.member "workers" stats) Jsonlite.to_list)
  in
  Alcotest.(check int) "one snapshot per forked worker" 2 (List.length workers);
  let counter_in j name =
    Option.value ~default:0
      (Option.bind (Jsonlite.member "counters" j)
         (fun c -> Option.bind (Jsonlite.member name c) Jsonlite.to_int))
  in
  let merged name = counter_in stats name in
  let worker_sum name =
    List.fold_left (fun acc w -> acc + counter_in w name) 0 workers
  in
  Alcotest.(check int) "sum of worker member counts = fleet total" 8
    (worker_sum "fleet.members");
  Alcotest.(check int) "merged members counter = worker sum" (worker_sum "fleet.members")
    (merged "fleet.members");
  List.iter
    (fun ns ->
      let hits = "cache." ^ ns ^ ".hits" and misses = "cache." ^ ns ^ ".misses" in
      Alcotest.(check int)
        ("merged " ^ hits ^ "+" ^ misses ^ " = sum over workers")
        (worker_sum hits + worker_sum misses)
        (merged hits + merged misses))
    [ "prepared"; "phase1"; "phase2"; "phase3"; "absint" ];
  Alcotest.(check int) "merged cross_hits = sum over workers"
    (worker_sum "cache.cross_hits") (merged "cache.cross_hits");
  Alcotest.(check bool) "merged cross_hits above parent-only value" true
    (merged_cross > parent_cross_before);
  Alcotest.(check int) "telemetry cross_hits agrees with fleet result"
    observed.Fleet.f_cache.Fleet.ct_cross merged_cross;
  (* float gauge replaced the truncated counter *)
  let gauges = Option.bind (Jsonlite.member "gauges" stats) Jsonlite.to_obj in
  (match Option.bind gauges (fun g -> List.assoc_opt "fleet.analyses_per_sec" g) with
  | Some (Jsonlite.Num aps) ->
    Alcotest.(check bool) "analyses_per_sec is a positive float" true (aps > 0.0)
  | _ -> Alcotest.fail "fleet.analyses_per_sec gauge missing");
  Alcotest.(check (option int)) "truncated counter gone" None
    (Option.bind (Jsonlite.member "counters" stats) (fun c ->
         Option.map (fun _ -> 0) (Jsonlite.member "fleet.analyses_per_sec" c)));
  (* chrome trace: spans from parent and both workers *)
  let pids =
    Option.get (Option.bind (Jsonlite.member "traceEvents" trace) Jsonlite.to_list)
    |> List.filter_map (fun e ->
           if Option.bind (Jsonlite.member "ph" e) Jsonlite.to_string = Some "X" then
             Option.bind (Jsonlite.member "pid" e) Jsonlite.to_int
           else None)
    |> List.sort_uniq compare
  in
  Alcotest.(check bool) "trace spans from >= 2 distinct pids" true
    (List.length pids >= 2);
  (* event stream: one start and one done per member, fleet framing *)
  let events = List.rev !events in
  let ev_of line =
    Option.bind (Jsonlite.member "ev" (Jsonlite.parse_exn line)) Jsonlite.to_string
  in
  let count e = List.length (List.filter (fun l -> ev_of l = Some e) events) in
  Alcotest.(check int) "member_start per member" 8 (count "member_start");
  Alcotest.(check int) "member_done per member" 8 (count "member_done");
  Alcotest.(check int) "worker lifecycle" 2 (count "worker_start");
  Alcotest.(check (option string)) "fleet_start first" (Some "fleet_start")
    (ev_of (List.hd events));
  Alcotest.(check (option string)) "fleet_done last" (Some "fleet_done")
    (ev_of (List.nth events (List.length events - 1)));
  rm_rf cache_dir;
  rm_rf src_dir

(* -- multi-domain (must stay last: spawning a domain forbids fork) ------------ *)

let test_multidomain () =
  let dir = mkdtemp "sf-fleet-md" in
  let c = Cache.create ~dir () in
  let ks = keys 100 in
  let results = Array.make 4 true in
  let worker d () = try hammer c ks ~rot:(d * 13) with _ -> results.(d) <- false in
  let doms = List.init 3 (fun d -> Domain.spawn (worker (d + 1))) in
  worker 0 ();
  List.iter Domain.join doms;
  Array.iteri
    (fun d ok -> Alcotest.(check bool) (Printf.sprintf "domain %d clean" d) true ok)
    results;
  Array.iter
    (fun key ->
      match (Cache.find c ~ns ~key : (string * int * string list) option) with
      | Some v -> Alcotest.(check bool) "value intact" true (v = value_of key)
      | None -> Alcotest.fail ("missing key " ^ key))
    ks;
  Alcotest.(check int) "no corrupt entries" 0 (corrupt_count c);
  rm_rf dir

let () =
  Alcotest.run "fleet"
    [ ( "multiprocess",
        [ Alcotest.test_case "4 processes hammer one disk cache" `Quick test_multiprocess ] );
      ( "fleet",
        [ Alcotest.test_case "cross-origin hit accounting" `Quick test_cross_origin;
          Alcotest.test_case "member collection (dir, manifest)" `Quick test_members;
          Alcotest.test_case "sharded+cached reports identical to baseline" `Quick
            test_fleet_identity;
          Alcotest.test_case "observed run: merged telemetry, events, neutral reports"
            `Quick test_fleet_observability ] );
      ( "multidomain",
        [ Alcotest.test_case "4 domains hammer one disk cache" `Quick test_multidomain ] )
    ]
