(* Differential test: the sparse worklist engine (Vfgraph) must produce
   the same report as the legacy dense fixpoint (Phase3) — identical
   violations, warnings and dependency classifications — on every subject
   system and synthetic program, under every Config toggle combination.

   Deliberately NOT compared (see vfgraph.mli): propagation-trace parents
   and the per-warning context string, both of which depend on visit
   order that neither engine guarantees. *)

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

let check_equiv label (config : Config.t) (src : string) =
  let legacy =
    (Driver.analyze ~config:{ config with engine = Config.Legacy } src).Driver.report
  in
  let worklist =
    (Driver.analyze ~config:{ config with engine = Config.Worklist } src).Driver.report
  in
  Alcotest.check triple_list (label ^ ": violations") (violation_keys legacy)
    (violation_keys worklist);
  Alcotest.check triple_list (label ^ ": warnings") (warning_keys legacy)
    (warning_keys worklist);
  Alcotest.check quad_list (label ^ ": dependencies")
    (List.map quad (dependency_keys legacy))
    (List.map quad (dependency_keys worklist));
  (* pair discovery must also agree: same (function, context) universe *)
  Alcotest.(check int)
    (label ^ ": analyzed pairs")
    (List.assoc "phase3_contexts" legacy.Report.stats)
    (List.assoc "phase3_contexts" worklist.Report.stats)

(* the Config toggle grid: every combination of the analysis dimensions *)
let toggle_grid =
  List.concat_map
    (fun control_deps ->
      List.concat_map
        (fun context_sensitive ->
          List.map
            (fun field_sensitive ->
              ( Fmt.str "cd=%b ctx=%b field=%b" control_deps context_sensitive
                  field_sensitive,
                { Config.default with control_deps; context_sensitive; field_sensitive } ))
            [ true; false ])
        [ true; false ])
    [ true; false ]

let system_files =
  [ "ip_controller.c"; "generic_simplex.c"; "double_ip.c"; "figure2.c"; "car_follow.c" ]

let test_system name () =
  let src = read_file (find_system name) in
  List.iter (fun (tlabel, config) -> check_equiv (name ^ " " ^ tlabel) config src)
    toggle_grid

let test_synth_scale () =
  let src = Synth.of_size 8 in
  List.iter (fun (tlabel, config) -> check_equiv ("synth8 " ^ tlabel) config src)
    toggle_grid

let test_synth_context_explosion () =
  let src = Synth.context_explosion ~depth:4 in
  List.iter
    (fun (tlabel, config) -> check_equiv ("ctx-explosion " ^ tlabel) config src)
    toggle_grid

let test_worklist_stats () =
  (* the worklist engine must expose its graph counters in the report *)
  let config = { Config.default with engine = Config.Worklist } in
  let r = (Driver.analyze ~config (Synth.of_size 8)).Driver.report in
  List.iter
    (fun key ->
      if not (List.mem_assoc key r.Report.stats) then
        Alcotest.failf "missing %s in worklist report stats" key)
    [ "vf_entities"; "vf_contexts"; "vf_edges"; "vf_pops" ];
  Alcotest.(check bool) "edges counted" true (List.assoc "vf_edges" r.Report.stats > 0)

let test_telemetry_invariance () =
  (* telemetry must be observationally invisible: the report is
     structurally identical with the subsystem off (default) and on, and
     nothing at all is recorded while it is off *)
  let src = read_file (find_system "figure2.c") in
  let config = { Config.default with engine = Config.Worklist } in
  let run () = Driver.analyze ~config src in
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
    [ "analyze"; "prepare"; "parse"; "phase1"; "phase2"; "pointsto"; "phase3";
      "pair.build"; "phase3.drain" ];
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
    [ ( "systems",
        List.map
          (fun name -> Alcotest.test_case name `Quick (test_system name))
          system_files );
      ( "synthetic",
        [ Alcotest.test_case "of_size 8" `Quick test_synth_scale;
          Alcotest.test_case "context_explosion 4" `Quick test_synth_context_explosion ] );
      ( "engine plumbing",
        [ Alcotest.test_case "worklist stats" `Quick test_worklist_stats;
          Alcotest.test_case "telemetry invariance" `Quick test_telemetry_invariance;
          Alcotest.test_case "parallel driver" `Quick test_parallel_driver ] ) ]
