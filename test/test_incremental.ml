(* End-to-end tests for the content-addressed incremental cache and the
   parallel driver: reports must be structurally identical across
   {no cache, cold, warm, one-function edit}, and so must the analyzed
   function universe and the value-flow-graph export a cached phase-3
   result is read back into; the on-disk tier must survive a round trip through a fresh process-level
   cache object, silently recompute corrupt entries, and survive losing
   the race to create its directories; Driver.analyze_files_par must
   agree with sequential analysis in input order. *)

open Safeflow

let systems =
  [ "car_follow.c"; "double_ip.c"; "figure2.c"; "generic_simplex.c";
    "ip_controller.c" ]

let find_system name =
  let candidates =
    [ "../../../systems/" ^ name; "../../systems/" ^ name; "systems/" ^ name ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some p -> p
  | None -> Alcotest.fail ("cannot locate systems/" ^ name)

let read_file p =
  let ic = open_in_bin p in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let report ?cache config src = (Driver.analyze ~config ?cache src).Driver.report

let check_report label (expected : Report.t) (actual : Report.t) =
  Alcotest.(check bool) label true (expected = actual)

(* what a run exposes beyond the report: the analyzed function universe
   and both DOT exports, all read from the phase-3 result *)
let views (a : Driver.analysis) =
  ( Driver.analyzed_functions a.Driver.phase3 a.Driver.phase1,
    Vfg.to_dot a.Driver.phase3,
    Vfg.control_to_dot a.Driver.phase3 )

let check_analysis label (expected : Driver.analysis) (actual : Driver.analysis) =
  check_report (label ^ " report") expected.Driver.report actual.Driver.report;
  let fns, dot, cdot = views expected and fns', dot', cdot' = views actual in
  Alcotest.(check (list string)) (label ^ " analyzed functions") fns fns';
  Alcotest.(check string) (label ^ " to_dot") dot dot';
  Alcotest.(check string) (label ^ " control_to_dot") cdot cdot'

(* an uncalled one-function edit: every other function keeps its source
   location, so only the probe's dependent cache entries miss *)
let probe = "\ndouble __cache_probe(double x) { return x * 2.0; }\n"

let test_warm_identity () =
  List.iter
    (fun sys ->
      let src = read_file (find_system sys) in
      let analyze ?cache () = Driver.analyze ?cache src in
      let baseline = analyze () in
      let c = Cache.create () in
      check_analysis (sys ^ " cold") baseline (analyze ~cache:c ());
      Cache.reset_stats c;
      check_analysis (sys ^ " warm") baseline (analyze ~cache:c ());
      (* the warm run's phase 3 came from the cache, not a rerun *)
      Alcotest.(check (pair int int)) (sys ^ " warm phase3 hit") (1, 0)
        (Option.value ~default:(0, 0) (List.assoc_opt "phase3" (Cache.stats c))))
    systems

let test_dirty_identity () =
  List.iter
    (fun sys ->
      let src = read_file (find_system sys) in
      let dirty = src ^ probe in
      let config = Config.default in
      let fresh = report config dirty in
      let c = Cache.create () in
      ignore (report ~cache:c config src);
      (* primed with the unedited source *)
      check_report (sys ^ " dirty") fresh (report ~cache:c config dirty))
    systems

(* disk entries live under a generation subdirectory of the cache root *)
let rec clear_dir dir =
  if Sys.file_exists dir then
    Array.iter
      (fun f ->
        let p = Filename.concat dir f in
        if Sys.is_directory p then begin
          clear_dir p;
          Sys.rmdir p
        end
        else Sys.remove p)
      (Sys.readdir dir)

let rec entry_files dir =
  if not (Sys.file_exists dir) then []
  else
    Array.to_list (Sys.readdir dir)
    |> List.concat_map (fun f ->
           let p = Filename.concat dir f in
           if Sys.is_directory p then entry_files p else [ p ])

let test_disk_roundtrip () =
  let dir = "tmp_cache_disk" in
  clear_dir dir;
  let src = read_file (find_system "ip_controller.c") in
  let baseline = report Config.default src in
  ignore (report ~cache:(Cache.create ~dir ()) Config.default src);
  Alcotest.(check bool) "entries were written to disk" true
    (List.exists (fun f -> Filename.basename f <> "GENERATION") (entry_files dir));
  (* a brand-new cache object must read them back *)
  let c2 = Cache.create ~dir () in
  check_report "report after disk round trip" baseline
    (report ~cache:c2 Config.default src);
  let hits = List.fold_left (fun acc (_, (h, _)) -> acc + h) 0 (Cache.stats c2) in
  Alcotest.(check bool) "disk entries were hit" true (hits > 0)

(* The DOT bytes depend only on the phase-3 result: a run with no cache,
   a cold run through a disk cache and a warm run through a fresh cache
   object (so the result is unmarshalled from disk) export identical
   graphs. *)
let test_dot_deterministic () =
  let dir = "tmp_cache_dot" in
  List.iter
    (fun sys ->
      clear_dir dir;
      let src = read_file (find_system sys) in
      let _, dot, cdot = views (Driver.analyze src) in
      List.iter
        (fun state ->
          let _, dot', cdot' = views (Driver.analyze ~cache:(Cache.create ~dir ()) src) in
          Alcotest.(check string) (sys ^ " " ^ state ^ " to_dot") dot dot';
          Alcotest.(check string) (sys ^ " " ^ state ^ " control_to_dot") cdot cdot')
        [ "cold"; "warm" ])
    systems

let test_disk_corrupt () =
  let dir = "tmp_cache_corrupt" in
  clear_dir dir;
  let src = read_file (find_system "figure2.c") in
  let baseline = report Config.default src in
  ignore (report ~cache:(Cache.create ~dir ()) Config.default src);
  (* vandalize every entry: garbage in half, truncation to zero in half *)
  List.iteri
    (fun i f ->
      let oc = open_out_bin f in
      if i mod 2 = 0 then output_string oc "not a marshalled cache entry";
      close_out oc)
    (entry_files dir);
  check_report "corrupt entries are silently recomputed" baseline
    (report ~cache:(Cache.create ~dir ()) Config.default src)

(* absint keys are location-free: a leading comment shifts every line,
   so the whole-program tiers miss, yet every per-function summary must
   still be found *)
let test_absint_location_free () =
  List.iter
    (fun sys ->
      let src = read_file (find_system sys) in
      let shifted = "/* shifts every line */\n" ^ src in
      let c = Cache.create () in
      ignore (report ~cache:c Config.default src);
      Cache.reset_stats c;
      check_report (sys ^ " shifted") (report Config.default shifted)
        (report ~cache:c Config.default shifted);
      let hits, misses =
        Option.value ~default:(0, 0) (List.assoc_opt "absint" (Cache.stats c))
      in
      Alcotest.(check bool) (sys ^ " absint looked up") true (hits > 0);
      Alcotest.(check int) (sys ^ " absint hits = lookups") (hits + misses) hits)
    systems

(* Concurrent workers opening one missing cache directory race to
   create it (and its generation subdirectory); every one must end up
   with a disk tier, whoever won.  A root that exists but is not a
   directory still degrades to memory-only. *)
let test_disk_mkdir_race () =
  let writes dir =
    List.length
      (List.filter (fun f -> Filename.basename f <> "GENERATION") (entry_files dir))
  in
  for round = 1 to 30 do
    let dir = Printf.sprintf "tmp_cache_race_%d" round in
    clear_dir dir;
    (try Sys.rmdir dir with Sys_error _ -> ());
    let open_and_store i () =
      Cache.store (Cache.create ~dir ()) ~ns:"race" ~key:(string_of_int i) i
    in
    (* line the openers up so their mkdirs overlap *)
    let ready = Atomic.make 0 in
    let racer i () =
      Atomic.incr ready;
      while Atomic.get ready < 4 do Domain.cpu_relax () done;
      open_and_store i ()
    in
    let ds = List.init 3 (fun i -> Domain.spawn (racer i)) in
    racer 3 ();
    List.iter Domain.join ds;
    Alcotest.(check int) (Printf.sprintf "round %d: every opener stored to disk" round) 4
      (writes dir);
    (* both directories now exist: reopening takes the lost-race path *)
    open_and_store 4 ();
    Alcotest.(check int) "reopened cache stores to disk" 5 (writes dir);
    clear_dir dir;
    Sys.rmdir dir
  done;
  let file = "tmp_cache_race_file" in
  Out_channel.with_open_bin file (fun oc -> output_string oc "not a directory");
  let c = Cache.create ~dir:file () in
  Cache.store c ~ns:"race" ~key:"k" 1;
  Alcotest.(check (option int)) "file root: memory-only cache still works" (Some 1)
    (Cache.find c ~ns:"race" ~key:"k");
  Sys.remove file

let test_par_driver_deterministic () =
  let paths = List.map find_system systems in
  let seq = List.map (fun p -> (Driver.analyze_file p).Driver.report) paths in
  let par =
    List.map
      (fun (a : Driver.analysis) -> a.Driver.report)
      (Driver.analyze_files_par paths)
  in
  Alcotest.(check int) "one result per input" (List.length seq) (List.length par);
  List.iteri
    (fun i (s, p) -> check_report (Fmt.str "result %d matches input order" i) s p)
    (List.combine seq par)

let () =
  Alcotest.run "incremental"
    [ ( "cache",
        [ Alcotest.test_case "cold and warm reports identical" `Quick
            test_warm_identity;
          Alcotest.test_case "one-function edit reports identical" `Quick
            test_dirty_identity;
          Alcotest.test_case "absint keys ignore source locations" `Quick
            test_absint_location_free ] );
      ( "disk",
        [ Alcotest.test_case "round trip through a fresh cache" `Quick
            test_disk_roundtrip;
          Alcotest.test_case "value-flow graph export identical" `Quick
            test_dot_deterministic;
          Alcotest.test_case "corrupt entries recomputed" `Quick test_disk_corrupt;
          Alcotest.test_case "racing openers all get a disk tier" `Quick
            test_disk_mkdir_race ] );
      ( "parallel",
        [ Alcotest.test_case "analyze_files_par deterministic" `Quick
            test_par_driver_deterministic ] ) ]
