(* End-to-end tests for the content-addressed incremental cache and the
   parallel driver: reports must be structurally identical across
   {no cache, cold, warm, one-function edit}, and so must the analyzed
   function universe and the value-flow-graph export a cache hit's
   forced detail yields; the on-disk tier must survive a round trip through a fresh process-level
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
   and both DOT exports, all read from the phase-3 result (after a cache
   hit, forcing [detail] reruns the stages) *)
let views (a : Driver.analysis) =
  let d = Lazy.force a.Driver.detail in
  ( Driver.analyzed_functions d.Driver.phase3 d.Driver.phase1,
    Vfg.to_dot d.Driver.phase3,
    Vfg.control_to_dot d.Driver.phase3 )

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
      let warm = analyze ~cache:c () in
      (* the warm run read one analysis entry and ran no absint; the
         counts are taken before [check_analysis] forces the detail *)
      let st ns = Option.value ~default:(0, 0) (List.assoc_opt ns (Cache.stats c)) in
      Alcotest.(check (pair int int)) (sys ^ " warm analysis hit") (1, 0) (st "analysis");
      Alcotest.(check (pair int int)) (sys ^ " warm absint not looked up") (0, 0) (st "absint");
      check_analysis (sys ^ " warm") baseline warm)
    systems

(* [verbose] is not part of the analysis key, so the entry keeps every
   phase-2 info: a cold run in one mode and a warm run in the other each
   equal the cache-less report of their own mode, in either order *)
let test_verbose_either_order () =
  let quiet = Config.default and loud = { Config.default with Config.verbose = true } in
  let infos = ref 0 in
  List.iter
    (fun sys ->
      let src = read_file (find_system sys) in
      infos := !infos + List.length (report loud src).Report.infos;
      List.iter
        (fun (order, first, second) ->
          let c = Cache.create () in
          check_report (sys ^ " " ^ order ^ " cold") (report first src) (report ~cache:c first src);
          check_report (sys ^ " " ^ order ^ " warm") (report second src)
            (report ~cache:c second src))
        [ ("quiet then verbose", quiet, loud); ("verbose then quiet", loud, quiet) ])
    systems;
  Alcotest.(check bool) "some system has infos under verbose" true (!infos > 0)

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

(* each disk test works in a fresh directory under the system temp
   directory and removes it afterwards, so running the tests leaves
   nothing behind in the working directory *)
let with_tmp_root f =
  let root = Filename.temp_dir "sf-incremental" "" in
  Fun.protect
    ~finally:(fun () ->
      clear_dir root;
      Sys.rmdir root)
    (fun () -> f root)

let test_disk_roundtrip () =
  with_tmp_root @@ fun root ->
  let dir = Filename.concat root "cache" in
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
  with_tmp_root @@ fun root ->
  let dir = Filename.concat root "cache" in
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
  with_tmp_root @@ fun root ->
  let dir = Filename.concat root "cache" in
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

(* per-function memo outcomes of [f]: summaries reused from an absint
   pack and fixpoints computed, read from the telemetry counters *)
let absint_outcomes f =
  let reused = Telemetry.counter "absint.reused"
  and computed = Telemetry.counter "absint.computed" in
  let was = Telemetry.enabled () in
  Telemetry.set_enabled true;
  let r0 = Telemetry.value reused and c0 = Telemetry.value computed in
  let v = Fun.protect ~finally:(fun () -> Telemetry.set_enabled was) f in
  (v, Telemetry.value reused - r0, Telemetry.value computed - c0)

(* absint keys are location-free: a leading comment shifts every line,
   so the whole-program tiers (and the exact absint pack) miss, yet every
   per-function summary must still be reused from the pack the previous
   run left *)
let test_absint_location_free () =
  List.iter
    (fun sys ->
      let src = read_file (find_system sys) in
      let shifted = "/* shifts every line */\n" ^ src in
      let c = Cache.create () in
      ignore (report ~cache:c Config.default src);
      let r, reused, computed =
        absint_outcomes (fun () -> report ~cache:c Config.default shifted)
      in
      check_report (sys ^ " shifted") (report Config.default shifted) r;
      Alcotest.(check bool) (sys ^ " absint summaries reused") true (reused > 0);
      Alcotest.(check int) (sys ^ " absint fixpoints computed") 0 computed)
    systems

(* the inputs digest of every fixpoint a cache-less absint run computes *)
let fixpoint_digests src =
  let p = Driver.prepare_source src in
  let ds = ref [] in
  let memo ~fname:_ ~inputs_digest compute =
    ds := Lazy.force inputs_digest :: !ds;
    compute ()
  in
  ignore (Absint.analyze ~memo p.Driver.ir);
  List.sort_uniq compare !ds

(* an edit to one return value moves the ranges of its callers: exactly
   the fixpoints whose inputs digest the primed run never saw are
   recomputed, and every other one is reused *)
let test_absint_edit_recomputes_moved () =
  let program ret =
    Printf.sprintf
      "int base(int x) { return %d; }\n\
       int twice(int x) { return base(x) * 2; }\n\
       int unrelated(int y) { return y + 1; }\n\
       int main() { int a; int b; a = twice(3); b = unrelated(4); return a + b; }\n"
      ret
  in
  let src = program 10 and edited = program 20 in
  let before = fixpoint_digests src and after = fixpoint_digests edited in
  let moved = List.filter (fun d -> not (List.mem d before)) after in
  Alcotest.(check bool) "the edit moves more than the edited function" true
    (List.length moved > 1);
  Alcotest.(check bool) "the edit leaves some fixpoint in place" true
    (List.length moved < List.length after);
  let c = Cache.create () in
  ignore (report ~cache:c Config.default src);
  let r, reused, computed = absint_outcomes (fun () -> report ~cache:c Config.default edited) in
  check_report "edited" (report Config.default edited) r;
  Alcotest.(check int) "computed = moved fixpoints" (List.length moved) computed;
  Alcotest.(check int) "reused = the rest" (List.length after - List.length moved) reused

let ranges (a : Driver.analysis) =
  Option.map Absint.summary_views (Lazy.force a.Driver.detail).Driver.absint

(* summaries are matched by their exact inputs digest, so a "latest" pack
   another program left under the same label is sound to consult: the
   report and every range equal a run with no cache *)
let test_latest_other_program () =
  with_tmp_root @@ fun root ->
  let dir = Filename.concat root "cache" in
  let file = "member.c" in
  List.iteri
    (fun i sys ->
      clear_dir dir;
      let other = List.nth systems ((i + 1) mod List.length systems) in
      let src = read_file (find_system sys) in
      ignore (Driver.analyze ~cache:(Cache.create ~dir ()) ~file (read_file (find_system other)));
      let c = Cache.create ~dir () in
      let a = Driver.analyze ~cache:c ~file src and fresh = Driver.analyze ~file src in
      check_report (sys ^ " after " ^ other) fresh.Driver.report a.Driver.report;
      Alcotest.(check bool) (sys ^ " ranges after " ^ other) true (ranges fresh = ranges a);
      let st ns = Option.value ~default:(0, 0) (List.assoc_opt ns (Cache.stats c)) in
      Alcotest.(check (pair int int)) (sys ^ " latest named the other pack") (1, 0) (st "latest");
      Alcotest.(check (pair int int)) (sys ^ " exact miss, then that pack") (1, 1) (st "absint"))
    systems

(* Concurrent workers opening one missing cache directory race to
   create it (and its generation subdirectory); every one must end up
   with a disk tier, whoever won.  A root that exists but is not a
   directory still degrades to memory-only. *)
let test_disk_mkdir_race () =
  with_tmp_root @@ fun root ->
  let writes dir =
    List.length
      (List.filter (fun f -> Filename.basename f <> "GENERATION") (entry_files dir))
  in
  for round = 1 to 30 do
    let dir = Filename.concat root (Printf.sprintf "race_%d" round) in
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
  let file = Filename.concat root "race_file" in
  Out_channel.with_open_bin file (fun oc -> output_string oc "not a directory");
  let c = Cache.create ~dir:file () in
  Cache.store c ~ns:"race" ~key:"k" 1;
  Alcotest.(check (option int)) "file root: memory-only cache still works" (Some 1)
    (Cache.find c ~ns:"race" ~key:"k");
  Sys.remove file

let entry_path dir ns =
  List.find (fun f -> String.starts_with ~prefix:(ns ^ "-") (Filename.basename f)) (entry_files dir)

(* "latest" is the one entry that is rewritten, and only through a temp
   file and rename: a hard link to the old file (a cache restored from a
   pristine copy by linking) keeps its bytes *)
let test_latest_rewrite_keeps_links () =
  with_tmp_root @@ fun root ->
  let dir = Filename.concat root "cache" in
  clear_dir dir;
  let c = Cache.create ~dir () in
  Cache.store c ~ns:"latest" ~key:"k" "first";
  let path = entry_path dir "latest" in
  let link = Filename.concat root "latest.old" in
  (try Sys.remove link with Sys_error _ -> ());
  Unix.link path link;
  let before = read_file link in
  Cache.store c ~ns:"latest" ~key:"k" "ignored";
  Alcotest.(check (option string)) "store without replace keeps the entry" (Some "first")
    (Cache.find c ~ns:"latest" ~key:"k");
  Cache.store ~replace:true c ~ns:"latest" ~key:"k" "second";
  Alcotest.(check (option string)) "replaced" (Some "second")
    (Cache.find (Cache.create ~dir ()) ~ns:"latest" ~key:"k");
  Alcotest.(check string) "the old link is byte-identical" before (read_file link);
  (* the same through the driver: a second program under one label *)
  clear_dir dir;
  let file = "member.c" in
  ignore (Driver.analyze ~cache:(Cache.create ~dir ()) ~file (read_file (find_system "figure2.c")));
  let path = entry_path dir "latest" in
  Sys.remove link;
  Unix.link path link;
  let before = read_file link in
  ignore (Driver.analyze ~cache:(Cache.create ~dir ()) ~file (read_file (find_system "double_ip.c")));
  Alcotest.(check bool) "the driver rewrote latest" true (read_file path <> before);
  Alcotest.(check string) "the driver left the old link alone" before (read_file link);
  Sys.remove link

(* memory holds only what disk does not *)
let test_no_memory_shadow () =
  with_tmp_root @@ fun root ->
  let dir = Filename.concat root "cache" in
  clear_dir dir;
  let c = Cache.create ~dir () in
  Cache.store c ~ns:"shadow" ~key:"k" [ 1; 2; 3 ];
  Alcotest.(check (option (list int))) "disk hit" (Some [ 1; 2; 3 ])
    (Cache.find c ~ns:"shadow" ~key:"k");
  Sys.remove (entry_path dir "shadow");
  Alcotest.(check (option (list int))) "no copy kept in memory" None
    (Cache.find c ~ns:"shadow" ~key:"k");
  let m = Cache.create () in
  Cache.store m ~ns:"shadow" ~key:"k" [ 4 ];
  Alcotest.(check (option (list int))) "memory-only cache hits" (Some [ 4 ])
    (Cache.find m ~ns:"shadow" ~key:"k")

(* a directory that refuses writes keeps each value in memory instead;
   the generation directory is swapped for a plain file, which refuses
   writes to every user, the superuser included (mode bits would not) *)
let test_unwritable_dir () =
  with_tmp_root @@ fun root ->
  let dir = Filename.concat root "cache" in
  clear_dir dir;
  let c = Cache.create ~dir () in
  let gen =
    List.find
      (fun f -> Sys.is_directory (Filename.concat dir f))
      (Array.to_list (Sys.readdir dir))
  in
  let gen = Filename.concat dir gen in
  clear_dir gen;
  Sys.rmdir gen;
  Out_channel.with_open_bin gen (fun oc -> output_string oc "not a directory");
  Cache.store c ~ns:"ro" ~key:"k" "kept";
  Alcotest.(check (option string)) "kept in memory" (Some "kept") (Cache.find c ~ns:"ro" ~key:"k");
  let src = read_file (find_system "figure2.c") in
  check_report "report through an unwritable cache" (report Config.default src)
    (report ~cache:c Config.default src);
  Sys.remove gen

(* a flipped payload byte and a tampered digest prefix are each counted
   corrupt, and the entry is recomputed.  The absint pack is read only on
   a miss of the analysis entry, so that case reruns under another
   semantic configuration: the pack's key is the source key alone. *)
let test_damaged_entries () =
  with_tmp_root @@ fun root ->
  let dir = Filename.concat root "cache" in
  let src = read_file (find_system "figure2.c") in
  let no_control = { Config.default with Config.control_deps = false } in
  List.iter
    (fun (ns, what, config, damage) ->
      clear_dir dir;
      ignore (report ~cache:(Cache.create ~dir ()) Config.default src);
      let path = entry_path dir ns in
      let b = Bytes.of_string (read_file path) in
      let i = damage (Bytes.length b) in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 1));
      Out_channel.with_open_bin path (fun oc -> Out_channel.output_bytes oc b);
      let c = Cache.create ~dir () in
      check_report (ns ^ " " ^ what ^ " recomputed") (report config src)
        (report ~cache:c config src);
      let st = List.assoc ns (Cache.detailed_stats c) in
      Alcotest.(check int) (ns ^ " " ^ what ^ " counted corrupt") 1 st.Cache.corrupt;
      Alcotest.(check bool) (ns ^ " " ^ what ^ " rewritten") true
        (read_file (entry_path dir ns) <> Bytes.to_string b))
    [ ("analysis", "flipped payload byte", Config.default, fun n -> n - 1);
      ("absint", "tampered digest prefix", no_control, fun _ -> 0) ]

(* which entries a run leaves must not depend on the order of members
   with equal sources: a hit still points the member's "latest" entry at
   the pack, as a miss does *)
let test_member_order () =
  with_tmp_root @@ fun root ->
  let members =
    [ ("m0", "figure2.c"); ("m1", "double_ip.c"); ("m2", "figure2.c"); ("m3", "car_follow.c");
      ("m4", "double_ip.c"); ("m5", "figure2.c") ]
  in
  let entries order ms =
    let dir = Filename.concat root order in
    let c = Cache.create ~dir () in
    List.iter
      (fun (path, sys) ->
        Cache.with_origin path (fun () ->
            ignore (Driver.analyze ~cache:c ~file:"<system>" (read_file (find_system sys)))))
      ms;
    let hits, _ = List.assoc "analysis" (Cache.stats c) in
    Alcotest.(check int) (order ^ ": duplicates hit") 3 hits;
    List.sort compare (List.map Filename.basename (entry_files dir))
  in
  let forward = entries "forward" members and reverse = entries "reverse" (List.rev members) in
  let count ns = List.length (List.filter (String.starts_with ~prefix:(ns ^ "-")) forward) in
  Alcotest.(check (list int)) "analysis, absint, latest entries" [ 3; 3; 6 ]
    (List.map count [ "analysis"; "absint"; "latest" ]);
  Alcotest.(check (list string)) "same entries in either order" forward reverse

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
          Alcotest.test_case "verbose off and on, in either order" `Quick
            test_verbose_either_order;
          Alcotest.test_case "one-function edit reports identical" `Quick
            test_dirty_identity;
          Alcotest.test_case "absint keys ignore source locations" `Quick
            test_absint_location_free;
          Alcotest.test_case "one-function edit recomputes the moved fixpoints" `Quick
            test_absint_edit_recomputes_moved;
          Alcotest.test_case "latest pack of another program" `Quick
            test_latest_other_program ] );
      ( "disk",
        [ Alcotest.test_case "round trip through a fresh cache" `Quick
            test_disk_roundtrip;
          Alcotest.test_case "value-flow graph export identical" `Quick
            test_dot_deterministic;
          Alcotest.test_case "corrupt entries recomputed" `Quick test_disk_corrupt;
          Alcotest.test_case "racing openers all get a disk tier" `Quick
            test_disk_mkdir_race;
          Alcotest.test_case "rewriting latest keeps hard links" `Quick
            test_latest_rewrite_keeps_links;
          Alcotest.test_case "no in-memory shadow of disk entries" `Quick
            test_no_memory_shadow;
          Alcotest.test_case "unwritable directory keeps values in memory" `Quick
            test_unwritable_dir;
          Alcotest.test_case "member order leaves the same entries" `Quick
            test_member_order;
          Alcotest.test_case "damaged entries counted corrupt" `Quick
            test_damaged_entries ] );
      ( "parallel",
        [ Alcotest.test_case "analyze_files_par deterministic" `Quick
            test_par_driver_deterministic ] ) ]
