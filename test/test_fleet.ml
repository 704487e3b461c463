(* Fleet-mode tests:

   - the shared disk cache under concurrent hammering from several
     processes: no corrupt entries, no wrong values, every key readable
     afterwards;
   - cross-system hit attribution via Cache.with_origin;
   - fleet report identity: a sharded (2 worker processes) run over a
     shared cache — cold and warm — is byte-identical to a sequential
     no-cache baseline, with cross-system hits observed on the way and
     no miss and no corrupt entry on the warm run;
   - identical members go to one worker, so a cold run stores each
     distinct source once;
   - failure records: a killed worker fails only the items of its
     stripe, and a member the frontend rejects does not sink the run;
   - the single-domain contract: a second domain is refused.

   Ordering matters: the OCaml 5 runtime forbids Unix.fork in any
   process that has ever spawned a domain, so every fork-based test
   (including Fleet.run with jobs, which forks workers) runs before the
   domain test, which is last. *)

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
  let cold = Fleet.run ~cache_dir ~jobs:2 paths in
  let warm = Fleet.run ~cache_dir ~jobs:2 paths in
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
   to an unobserved run.  Forks, so must run before the domain test. *)
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
  let plain = Fleet.run ~jobs:2 paths in
  (* observed run *)
  Telemetry.set_enabled true;
  Telemetry.reset ();
  let cache_dir = mkdtemp "sf-fleet-obs-cache" in
  let events = ref [] in
  let parent_cross_before = Telemetry.value (Telemetry.counter "cache.cross_hits") in
  let observed =
    Fleet.run ~cache_dir ~jobs:2
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
    [ "analysis"; "absint" ];
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
  (* each worker view holds the worker's own GC figures *)
  List.iter
    (fun w ->
      let g = Option.value ~default:[] (Option.bind (Jsonlite.member "gauges" w) Jsonlite.to_obj) in
      List.iter
        (fun name ->
          match List.assoc_opt name g with
          | Some (Jsonlite.Num v) ->
            if name = "gc.minor_words" then
              Alcotest.(check bool) "a worker allocated" true (v > 0.0)
          | _ -> Alcotest.failf "a worker view has no %s gauge" name)
        [ "gc.minor_collections"; "gc.major_collections"; "gc.minor_words";
          "gc.promoted_words"; "gc.top_heap_words" ])
    workers;
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

(* -- duplicates ------------------------------------------------------------------ *)

(* Members with one source share every cache key.  Grouped on one
   worker, a cold two-worker run misses and writes each distinct
   "analysis" entry exactly once, and every duplicate is a cross-system
   hit on its group's first member. *)
let test_fleet_duplicates () =
  let fp =
    { Synth.fleet_n = 16; fleet_workers = 4; fleet_overlap = 0.5; fleet_dup = 0.5 }
  in
  let src_dir = mkdtemp "sf-fleet-dup-src" in
  let cache_dir = mkdtemp "sf-fleet-dup-cache" in
  let members = Synth.fleet ~seed:3 fp in
  let paths =
    List.map
      (fun (name, src) ->
        let path = Filename.concat src_dir name in
        let oc = open_out_bin path in
        output_string oc src;
        close_out oc;
        path)
      members
  in
  let distinct = List.length (List.sort_uniq compare (List.map snd members)) in
  Alcotest.(check bool) "the fleet has duplicates" true (distinct < List.length members);
  Telemetry.set_enabled true;
  Telemetry.reset ();
  let r = Fleet.run ~cache_dir ~jobs:2 paths in
  let counter name = Telemetry.value (Telemetry.counter name) in
  let misses = counter "cache.analysis.misses" in
  let written = counter "cache.analysis.files_written" in
  Telemetry.set_enabled false;
  Telemetry.reset ();
  Alcotest.(check int) "one analysis miss per distinct source" distinct misses;
  Alcotest.(check int) "one analysis entry written per distinct source" distinct written;
  Alcotest.(check int) "every duplicate is a cross-system hit"
    (List.length members - distinct) r.Fleet.f_cache.Fleet.ct_cross;
  rm_rf cache_dir;
  rm_rf src_dir

(* Keyed striping balances the work of the stripes, members as well as
   groups, and keeps every group on one worker.  On the benchmark fleet
   (256 members: 65 copies of member 0 and 191 distinct ones, 192
   groups) two workers cannot get 128 members and 96 groups each; the
   worker with the 65 copies gets 9 fewer groups, so that each does the
   work of 100 distinct members (the copies after the first weighing an
   eighth).  Round-robin in first-appearance order gave 160 members and
   96 groups against 96 and 96. *)
let test_balanced_stripes () =
  let members =
    Array.of_list
      (Synth.fleet ~seed:1
         { Synth.fleet_n = 256; fleet_workers = 4; fleet_overlap = 0.5; fleet_dup = 0.25 })
  in
  let key i = Digest.string (snd members.(i)) in
  let stripes = Forkmap.stripes ~key ~workers:2 (Array.length members) in
  let groups stripe = List.sort_uniq compare (Array.to_list (Array.map key stripe)) in
  Alcotest.(check (list int)) "members per worker" [ 156; 100 ]
    (Array.to_list (Array.map Array.length stripes));
  Alcotest.(check (list int)) "groups per worker" [ 92; 100 ]
    (Array.to_list (Array.map (fun s -> List.length (groups s)) stripes));
  Alcotest.(check (list string)) "no group on both workers" []
    (List.filter (fun g -> List.mem g (groups stripes.(1))) (groups stripes.(0)));
  (* groups of equal size: the plain round-robin split *)
  let stripes = Forkmap.stripes ~key:(fun i -> string_of_int (i / 2)) ~workers:3 12 in
  Alcotest.(check (list (list int))) "pairs dealt in first-appearance order"
    [ [ 0; 1; 6; 7 ]; [ 2; 3; 8; 9 ]; [ 4; 5; 10; 11 ] ]
    (Array.to_list (Array.map Array.to_list stripes))

(* -- failure records ---------------------------------------------------------- *)

(* A worker that dies takes only its own stripe with it: each of its
   items becomes a failure record, and the other stripe's results come
   back. *)
let test_killed_worker () =
  let items = [| "a.c"; "b.c"; "c.c"; "d.c" |] in
  let stripes = Forkmap.stripes ~workers:2 (Array.length items) in
  let results =
    Forkmap.map ~stripes ~name:(Array.get items) (fun ~worker ~emit:_ indices ->
        if worker = 1 then Unix.kill (Unix.getpid ()) Sys.sigkill;
        Array.map (fun i -> Ok (String.uppercase_ascii items.(i))) indices)
  in
  Array.iter
    (fun i ->
      Alcotest.(check (result string reject)) ("stripe 0 item " ^ items.(i))
        (Ok (String.uppercase_ascii items.(i))) (Result.map_error ignore results.(i)))
    stripes.(0);
  Array.iter
    (fun i ->
      match results.(i) with
      | Ok _ -> Alcotest.failf "item %s of the killed stripe came back" items.(i)
      | Error (f : Forkmap.failure) ->
        Alcotest.(check string) "input" items.(i) f.Forkmap.input;
        Alcotest.(check bool) "crashed" true (f.Forkmap.cause = Forkmap.Crashed);
        Alcotest.(check string) "message" (items.(i) ^ ": worker 1 killed by signal KILL")
          f.Forkmap.message)
    stripes.(1)

(* Progress counts member_done events: when a worker is killed, the
   parent reports each input of its stripe that the worker did not, so
   the count still reaches the number of inputs. *)
let test_killed_worker_events () =
  let dir = mkdtemp "sf-fleet-killed" in
  let paths =
    List.init 4 (fun k ->
        let path = Filename.concat dir (Printf.sprintf "m%d.c" k) in
        let oc = open_out_bin path in
        output_string oc (Printf.sprintf "int main() { return %d; }\n" k);
        close_out oc;
        path)
  in
  let stripes = Forkmap.stripes ~workers:2 (List.length paths) in
  let first_of_stripe1 = List.nth paths stripes.(1).(0) in
  let events = ref [] in
  let results =
    Fleet.analyze_inputs ~jobs:2
      ~on_event:(fun line -> events := line :: !events)
      ~render:(fun path _ ->
        (* stripe 1 dies in its first input, before reporting it *)
        if path = first_of_stripe1 then Unix.kill (Unix.getpid ()) Sys.sigkill;
        path)
      paths
  in
  let member_done =
    List.filter
      (fun l ->
        match Jsonlite.parse l with
        | Ok j -> Option.bind (Jsonlite.member "ev" j) Jsonlite.to_string = Some "member_done"
        | Error _ -> false)
      !events
  in
  Alcotest.(check int) "one member_done per input" (List.length paths) (List.length member_done);
  Array.iter
    (fun i ->
      match results.(i) with
      | Ok _ -> Alcotest.failf "input %d of the killed stripe came back" i
      | Error ((f : Forkmap.failure), _) ->
        Alcotest.(check bool) "crashed" true (f.Forkmap.cause = Forkmap.Crashed);
        Alcotest.(check bool) "reported crashed" true
          (List.exists
             (fun l ->
               let j = Result.get_ok (Jsonlite.parse l) in
               Option.bind (Jsonlite.member "path" j) Jsonlite.to_string = Some f.Forkmap.input
               && Option.bind (Jsonlite.member "status" j) Jsonlite.to_string = Some "crashed")
             member_done))
    stripes.(1);
  Array.iter
    (fun i -> Alcotest.(check bool) "stripe 0 came back" true (Result.is_ok results.(i)))
    stripes.(0);
  rm_rf dir

(* An input whose analysis raises in a worker comes back [Crashed], the
   cause a run exits 5 on; the input on the other worker comes back. *)
let test_crashed_input () =
  let dir = mkdtemp "sf-fleet-crash" in
  let paths =
    List.init 2 (fun k ->
        let path = Filename.concat dir (Printf.sprintf "m%d.c" k) in
        let oc = open_out_bin path in
        output_string oc (Printf.sprintf "int main() { return %d; }\n" k);
        close_out oc;
        path)
  in
  let boom = List.hd paths in
  let results =
    Fleet.analyze_inputs ~jobs:2
      ~render:(fun path _ -> if path = boom then failwith "render failed" else path)
      paths
  in
  (match results.(0) with
  | Ok _ -> Alcotest.fail "the raising input came back"
  | Error ((f : Forkmap.failure), _) ->
    Alcotest.(check string) "input" boom f.Forkmap.input;
    Alcotest.(check bool) "crashed" true (f.Forkmap.cause = Forkmap.Crashed);
    Alcotest.(check int) "exit code" 5 (Forkmap.exit_code f.Forkmap.cause));
  (match results.(1) with
  | Ok (row, _, _) -> Alcotest.(check string) "other input" (List.nth paths 1) row
  | Error _ -> Alcotest.fail "the other input failed");
  rm_rf dir

(* A member the frontend rejects is a failure record naming its path;
   the other members still report, in process and on forked workers. *)
let test_bad_member () =
  let dir = mkdtemp "sf-fleet-bad" in
  let write name src =
    let path = Filename.concat dir name in
    let oc = open_out_bin path in
    output_string oc src;
    close_out oc;
    path
  in
  let good = write "good.c" "int main() { return 0; }\n"
  and bad = write "bad.c" "int main() { return 0 }\n" in
  let lone = (Fleet.run [ good ]).Fleet.f_results in
  List.iter
    (fun jobs ->
      let r = Fleet.run ~jobs [ bad; good ] in
      let label = Printf.sprintf "jobs %d: " jobs in
      Alcotest.(check (list string)) (label ^ "the good member reports as alone")
        (List.map (fun m -> m.Fleet.mr_report) lone)
        (List.map (fun m -> m.Fleet.mr_report) r.Fleet.f_results);
      match r.Fleet.f_failures with
      | [ f ] ->
        Alcotest.(check string) (label ^ "input") bad f.Forkmap.input;
        Alcotest.(check bool) (label ^ "rejected") true (f.Forkmap.cause = Forkmap.Rejected);
        Alcotest.(check bool) (label ^ "message names the path") true
          (String.starts_with ~prefix:(bad ^ ":") f.Forkmap.message)
      | fs -> Alcotest.failf "%sexpected one failure, got %d" label (List.length fs))
    [ 1; 2 ];
  rm_rf dir

(* A member whose bundle cannot be written still counts the cache
   traffic of its analysis: on an empty cache, a run whose every bundle
   write fails reports the misses of a plain cold run. *)
let test_unwritable_cache_totals () =
  let dir = mkdtemp "sf-fleet-unwritable" in
  let write name src =
    let path = Filename.concat dir name in
    let oc = open_out_bin path in
    output_string oc src;
    close_out oc;
    path
  in
  let paths =
    List.map
      (fun k -> write (Printf.sprintf "m%d.c" k) (Printf.sprintf "int main() { return %d; }\n" k))
      [ 1; 2; 3 ]
  in
  (* a bundle root under a regular file *)
  let root = Filename.concat (List.hd paths) "certs" in
  let cold ?emit_certs name =
    Fleet.run ~cache_dir:(Filename.concat dir name) ?emit_certs paths
  in
  let plain = cold "plain" and failed = cold ~emit_certs:root "failed" in
  Alcotest.(check int) "every bundle write failed" 3 (List.length failed.Fleet.f_failures);
  Alcotest.(check bool) "the plain run misses" true (plain.Fleet.f_cache.Fleet.ct_misses > 0);
  Alcotest.(check int) "misses of a plain cold run" plain.Fleet.f_cache.Fleet.ct_misses
    failed.Fleet.f_cache.Fleet.ct_misses;
  rm_rf dir

(* -- a second domain (must stay last: spawning a domain forbids fork) --------- *)

(* Caches and analyses are unsynchronised, so SafeFlow refuses to run
   them off the main domain instead of racing. *)
let test_second_domain_refused () =
  let refused f = match f () with _ -> false | exception Invalid_argument _ -> true in
  let cache, analyze =
    Domain.join
      (Domain.spawn (fun () ->
           ( refused (fun () -> ignore (Cache.create ())),
             refused (fun () -> ignore (Driver.analyze "int main() { return 0; }") ) )))
  in
  Alcotest.(check bool) "Cache.create refused" true cache;
  Alcotest.(check bool) "Driver.analyze refused" true analyze;
  (* the main domain is unaffected *)
  let c = Cache.create () in
  Cache.store c ~ns ~key:"k" 1;
  Alcotest.(check (option int)) "main-domain cache works" (Some 1) (Cache.find c ~ns ~key:"k")

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
            `Quick test_fleet_observability;
          Alcotest.test_case "duplicates analyzed once on one worker" `Quick
            test_fleet_duplicates;
          Alcotest.test_case "keyed stripes balance members and groups" `Quick
            test_balanced_stripes ] );
      ( "failures",
        [ Alcotest.test_case "a killed worker fails only its stripe" `Quick
            test_killed_worker;
          Alcotest.test_case "a rejected member does not sink the run" `Quick
            test_bad_member;
          Alcotest.test_case "a killed worker's inputs still report done" `Quick
            test_killed_worker_events;
          Alcotest.test_case "an input whose analysis raises exits 5" `Quick
            test_crashed_input;
          Alcotest.test_case "a failed bundle write keeps its cache totals" `Quick
            test_unwritable_cache_totals ] );
      ( "multidomain",
        [ Alcotest.test_case "a second domain is refused" `Quick test_second_domain_refused ] )
    ]
