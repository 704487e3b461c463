(* Differential test: the library's phase-3 engine (Vfgraph, run by
   Driver.analyze) against the dense fixpoint oracle (dense.ml) on every
   subject system and synthetic program, under every Config toggle
   combination (runs built by oracle.ml).  They must agree on
   violations, warnings, dependency classifications and the analyzed
   (function, context) pairs; on the synthetic programs also on finding
   fingerprints and monitoring coverage, which test_diagnostics checks
   (with the rendered report) on the five systems.

   Deliberately NOT compared (see vfgraph.mli): propagation-trace
   parents and the per-warning context string outside the five systems'
   rendered reports, both of which depend on visit order. *)
open Safeflow

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

(* order-insensitive keys for each report component *)

let violation_keys (r : Report.t) =
  List.sort compare
    (List.map
       (fun (v : Report.violation) ->
         (Fmt.str "%a" Report.pp_restriction v.Report.v_rule, v.Report.v_func,
          Fmt.str "%a" Minic.Loc.pp v.Report.v_loc))
       r.Report.violations)

let warning_keys (r : Report.t) =
  List.sort compare
    (List.map
       (fun (w : Report.warning) ->
         (w.Report.w_func, w.Report.w_region, Fmt.str "%a" Minic.Loc.pp w.Report.w_loc))
       r.Report.warnings)

let dependency_keys (r : Report.t) =
  List.sort compare
    (List.map
       (fun (d : Report.dependency) ->
         (Fmt.str "%a" Report.pp_dep_kind d.Report.d_kind, d.Report.d_sink,
          d.Report.d_func, Fmt.str "%a" Minic.Loc.pp d.Report.d_loc))
       r.Report.dependencies)

let triple_list = Alcotest.(list (triple string string string))
let quad_list = Alcotest.(list (pair (pair string string) (pair string string)))

let quad (a, b, c, d) = ((a, b), (c, d))

let check_findings label (r : Oracle.run) =
  let lib = r.lib.Driver.report and oracle = r.oracle_report in
  Alcotest.check triple_list (label ^ ": violations") (violation_keys oracle)
    (violation_keys lib);
  Alcotest.check triple_list (label ^ ": warnings") (warning_keys oracle) (warning_keys lib);
  Alcotest.check quad_list (label ^ ": dependencies")
    (List.map quad (dependency_keys oracle))
    (List.map quad (dependency_keys lib));
  (* pair discovery must also agree: same (function, context) universe *)
  Alcotest.(check int) (label ^ ": analyzed pairs") (snd r.pairs) (fst r.pairs)

(* The synthetic inputs reach a sink along several equally valid
   witnesses, and which one survives deduplication follows pair
   iteration order, so their rendered reports (which print the witness)
   are not compared; everything else is. *)
let check_synthetic label r =
  List.iter
    (fun check -> check label r)
    [ check_findings; Oracle.check_fingerprints; Oracle.check_coverage ]

let system_files =
  [ "ip_controller.c"; "generic_simplex.c"; "double_ip.c"; "figure2.c"; "car_follow.c" ]

let per_system check =
  List.map
    (fun name ->
      Alcotest.test_case name `Quick (fun () ->
          Oracle.over_grid name (read_file (find_system name)) check))
    system_files

let test_synth_scale () = Oracle.over_grid "synth8" (Synth.of_size 8) check_synthetic

let test_synth_context_explosion () =
  Oracle.over_grid "ctx-explosion" (Synth.context_explosion ~depth:4) check_synthetic

let test_worklist_stats () =
  (* the engine must expose its graph counters in the report *)
  let r = (Driver.analyze (Synth.of_size 8)).Driver.report in
  List.iter
    (fun key ->
      if not (List.mem_assoc key r.Report.stats) then
        Alcotest.failf "missing %s in report stats" key)
    [ "vf_entities"; "vf_contexts"; "vf_edges"; "vf_pops" ];
  Alcotest.(check bool) "edges counted" true (List.assoc "vf_edges" r.Report.stats > 0)

let test_telemetry_invariance () =
  (* telemetry must be observationally invisible: the report is
     structurally identical with the subsystem off (default) and on, and
     nothing at all is recorded while it is off *)
  let src = read_file (find_system "figure2.c") in
  let run () = Driver.analyze src in
  Telemetry.set_enabled false;
  Telemetry.reset ();
  let off = run () in
  Alcotest.(check int) "no spans while off" 0 (List.length (Telemetry.spans ()));
  Alcotest.(check bool) "no counts while off" true
    (List.for_all (fun (_, v) -> v = 0) (Telemetry.counters ()));
  Alcotest.(check bool) "no histogram observations while off" true
    (List.for_all
       (fun (h : Telemetry.hist_view) -> h.Telemetry.hv_count = 0)
       (Telemetry.histograms ()));
  Telemetry.set_enabled true;
  Telemetry.reset ();
  let on = run () in
  let spans = Telemetry.spans () in
  let counters = Telemetry.counters () in
  let hists = Telemetry.histograms () in
  Telemetry.set_enabled false;
  Telemetry.reset ();
  Alcotest.(check bool) "reports identical on/off" true
    (off.Driver.report = on.Driver.report);
  (* the obligation ledger is collected unconditionally and must be
     byte-identical modulo wall-clock timings — it never influences (or
     is influenced by) the telemetry switch *)
  let norm (e : Ledger.entry) = { e with Ledger.l_ns = 0 } in
  Alcotest.(check bool) "ledgers identical on/off (modulo timing)" true
    (List.map norm off.Driver.ledger = List.map norm on.Driver.ledger);
  Alcotest.(check bool) "ledger non-empty" true (off.Driver.ledger <> []);
  (* histograms observed while on: every pair is walked *)
  let hist_count name =
    match
      List.find_opt (fun (h : Telemetry.hist_view) -> h.Telemetry.hv_name = name) hists
    with
    | Some h -> h.Telemetry.hv_count
    | None -> 0
  in
  Alcotest.(check bool) "pair.build histogram populated" true
    (hist_count "pair.build" > 0);
  Alcotest.(check bool) "spans recorded while on" true (spans <> []);
  let names = List.map (fun (s : Telemetry.span_record) -> s.Telemetry.s_name) spans in
  List.iter
    (fun phase ->
      if not (List.mem phase names) then Alcotest.failf "missing %s span" phase)
    [ "analyze"; "prepare"; "parse"; "prepare.lower"; "prepare.verify"; "phase1"; "phase2";
      "pointsto"; "phase3"; "pair.build"; "phase3.drain" ];
  (* every non-root parent id must name a recorded span *)
  let ids = List.map (fun (s : Telemetry.span_record) -> s.Telemetry.s_id) spans in
  List.iter
    (fun (s : Telemetry.span_record) ->
      if s.Telemetry.s_parent <> -1 && not (List.mem s.Telemetry.s_parent ids) then
        Alcotest.failf "span %s has dangling parent" s.Telemetry.s_name)
    spans;
  Alcotest.(check bool) "worklist counters moved" true
    (List.assoc "vf.edges_built" counters > 0
    && List.assoc "vf.worklist_pops" counters > 0)

let test_parallel_driver () =
  (* analyze_files_par must agree with sequential analyze_file, in order *)
  let files = List.map find_system [ "ip_controller.c"; "generic_simplex.c"; "car_follow.c" ] in
  let seq = List.map (fun f -> (Driver.analyze_file f).Driver.report) files in
  let par = List.map (fun (a : Driver.analysis) -> a.Driver.report)
      (Driver.analyze_files_par files) in
  List.iteri
    (fun i (rs, rp) ->
      let label = Fmt.str "par[%d]" i in
      Alcotest.check triple_list (label ^ ": warnings") (warning_keys rs) (warning_keys rp);
      Alcotest.check quad_list (label ^ ": dependencies")
        (List.map quad (dependency_keys rs))
        (List.map quad (dependency_keys rp)))
    (List.combine seq par)

let () =
  Alcotest.run "engine_equiv"
    [ ("systems", per_system check_findings);
      ( "synthetic",
        [ Alcotest.test_case "of_size 8" `Quick test_synth_scale;
          Alcotest.test_case "context_explosion 4" `Quick test_synth_context_explosion ] );
      ( "engine plumbing",
        [ Alcotest.test_case "worklist stats" `Quick test_worklist_stats;
          Alcotest.test_case "telemetry invariance" `Quick test_telemetry_invariance;
          Alcotest.test_case "parallel driver" `Quick test_parallel_driver ] ) ]
