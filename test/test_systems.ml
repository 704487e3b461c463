(* Table 1 reproduction tests: the three subject systems must produce the
   paper's exact annotation counts, error dependencies, warnings and
   false positives — plus InitCheck layouts, runnable analyses of the
   non-core components, and parseability of the pre-split originals. *)

open Safeflow

let find_system name =
  let candidates =
    [ "../../../systems/" ^ name; "../../systems/" ^ name; "systems/" ^ name ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some p -> p
  | None -> Alcotest.fail ("cannot locate systems/" ^ name)

let analyze name = Driver.analyze_file (find_system name)

type expectation = {
  e_regions : int;
  e_annot : int;
  e_errors : int;
  e_warnings : int;
  e_false_positives : int;
  e_core_loc_min : int;
  e_core_loc_max : int;
}

let check_table1 name e =
  let a = analyze name in
  let r = a.Driver.report in
  Alcotest.(check int) (name ^ ": regions") e.e_regions (List.length r.Report.regions);
  Alcotest.(check int) (name ^ ": annotation lines") e.e_annot r.Report.annotation_lines;
  Alcotest.(check int) (name ^ ": restriction violations") 0
    (List.length r.Report.violations);
  Alcotest.(check int) (name ^ ": error dependencies") e.e_errors
    (List.length (Report.errors r));
  Alcotest.(check int) (name ^ ": warnings") e.e_warnings (List.length r.Report.warnings);
  Alcotest.(check int) (name ^ ": false positives") e.e_false_positives
    (List.length (Report.control_deps r));
  let loc = List.assoc "loc" r.Report.stats in
  Alcotest.(check bool)
    (Fmt.str "%s: core LOC %d within [%d, %d]" name loc e.e_core_loc_min e.e_core_loc_max)
    true
    (loc >= e.e_core_loc_min && loc <= e.e_core_loc_max)

(* Paper Table 1: IP = 11 annot, 1 error, 7 warnings, 2 FP, core 820 LOC *)
let test_ip_table1 () =
  check_table1 "ip_controller.c"
    { e_regions = 4; e_annot = 11; e_errors = 1; e_warnings = 7; e_false_positives = 2;
      e_core_loc_min = 780; e_core_loc_max = 860 }

(* Generic Simplex = 22 annot, 2 errors, 7 warnings, 6 FP, core 1020 LOC *)
let test_generic_table1 () =
  check_table1 "generic_simplex.c"
    { e_regions = 7; e_annot = 22; e_errors = 2; e_warnings = 7; e_false_positives = 6;
      e_core_loc_min = 970; e_core_loc_max = 1070 }

(* Double IP = 23 annot, 2 errors, 8 warnings, 2 FP, core 929 LOC *)
let test_double_ip_table1 () =
  check_table1 "double_ip.c"
    { e_regions = 7; e_annot = 23; e_errors = 2; e_warnings = 8; e_false_positives = 2;
      e_core_loc_min = 880; e_core_loc_max = 980 }

(* -- Error identities -------------------------------------------------------- *)

let test_ip_error_is_kill_pid () =
  let r = (analyze "ip_controller.c").Driver.report in
  match Report.errors r with
  | [ d ] ->
    Alcotest.(check bool) "sink is kill" true
      (Astring.String.is_infix ~affix:"kill" d.Report.d_sink);
    Alcotest.(check bool) "source is the watchdog region" true
      (List.exists (Astring.String.is_infix ~affix:"wdInfo") d.Report.d_trace)
  | _ -> Alcotest.fail "expected exactly one error"

let test_generic_errors_are_feedback_and_kill () =
  let r = (analyze "generic_simplex.c").Driver.report in
  let errs = Report.errors r in
  Alcotest.(check bool) "one error is the rigged feedback path" true
    (List.exists
       (fun d ->
         Astring.String.is_infix ~affix:"output" d.Report.d_sink
         && List.exists (Astring.String.is_infix ~affix:"fbShm") d.Report.d_trace)
       errs);
  Alcotest.(check bool) "one error is the kill pid" true
    (List.exists (fun d -> Astring.String.is_infix ~affix:"kill" d.Report.d_sink) errs)

let test_double_ip_errors () =
  let r = (analyze "double_ip.c").Driver.report in
  let errs = Report.errors r in
  Alcotest.(check bool) "one error is the tuning propagation" true
    (List.exists
       (fun d -> List.exists (Astring.String.is_infix ~affix:"tuneShm") d.Report.d_trace)
       errs);
  Alcotest.(check bool) "one error is the kill pid" true
    (List.exists (fun d -> Astring.String.is_infix ~affix:"kill" d.Report.d_sink) errs)

(* all control-only reports come from mode/config/ui selection — the
   paper's false-positive class *)
let test_fp_class_is_control_dependence () =
  List.iter
    (fun name ->
      let r = (analyze name).Driver.report in
      List.iter
        (fun d -> Alcotest.(check bool) "kind" true (d.Report.d_kind = Report.Control_only))
        (Report.control_deps r))
    [ "ip_controller.c"; "generic_simplex.c"; "double_ip.c" ]

(* Ablations on the three Table 1 systems: each monitors whole regions
   from single contexts, so dropping context or field sensitivity moves
   no count; dropping control-dependence tracking keeps every error and
   warning and silences exactly the false-positive class (all 10).  The
   crafted probes showing what the first two buy are in test_safeflow. *)
let test_ablations_keep_table1 () =
  let toggles =
    [ ("no context sensitivity", { Config.default with context_sensitive = false }, true);
      ("no field sensitivity", { Config.default with field_sensitive = false }, true);
      ("no control deps", { Config.default with control_deps = false }, false) ]
  in
  List.iter
    (fun (name, errors, warnings, fps) ->
      List.iter
        (fun (toggle, config, keeps_fps) ->
          let r = (Driver.analyze_file ~config (find_system name)).Driver.report in
          let label what = Fmt.str "%s, %s: %s" name toggle what in
          Alcotest.(check int) (label "errors") errors (List.length (Report.errors r));
          Alcotest.(check int) (label "warnings") warnings (List.length r.Report.warnings);
          Alcotest.(check int) (label "control-only dependencies")
            (if keeps_fps then fps else 0)
            (List.length (Report.control_deps r)))
        toggles)
    [ ("ip_controller.c", 1, 7, 2); ("generic_simplex.c", 2, 7, 6); ("double_ip.c", 2, 8, 2) ]

(* -- InitCheck ------------------------------------------------------------------ *)

let test_initcheck_layouts () =
  List.iter
    (fun (name, nregions) ->
      let a = analyze name in
      let layout = Shm.run_init_check a.Driver.prepared.Driver.ir a.Driver.shm in
      Alcotest.(check int) (name ^ ": layout entries") nregions (List.length layout);
      (* regions are disjoint and ordered *)
      let sorted = List.sort (fun (_, a, _) (_, b, _) -> compare a b) layout in
      let rec disjoint = function
        | (_, o1, s1) :: ((_, o2, _) :: _ as rest) ->
          Alcotest.(check bool) "no overlap" true (o1 + s1 <= o2);
          disjoint rest
        | _ -> ()
      in
      disjoint sorted)
    [ ("ip_controller.c", 4); ("generic_simplex.c", 7); ("double_ip.c", 7) ]

(* -- Non-core components and originals ------------------------------------------- *)

let test_noncore_components_parse () =
  List.iter
    (fun name ->
      let path = find_system ("noncore/" ^ name) in
      let prog = Minic.Parser.parse_file path in
      let tast = Minic.Typecheck.check_program prog in
      let ir = Ssair.Build.lower tast in
      Alcotest.(check (list string)) (name ^ " verifies") []
        (List.map (fun v -> v.Ssair.Verify.vmsg) (Ssair.Verify.check_program ~ssa:true ir)))
    [ "ip_complex.c"; "generic_complex.c"; "dip_complex.c" ]

(* the pre-split originals parse; their monitored reads are necessarily
   unmonitored (no annotation is possible), so they warn more *)
let test_originals_show_why_split_was_needed () =
  List.iter
    (fun (orig, split) ->
      let ro = (Driver.analyze_file (find_system ("originals/" ^ orig))).Driver.report in
      let rs = (analyze split).Driver.report in
      Alcotest.(check bool)
        (orig ^ ": unannotated original warns strictly more")
        true
        (List.length ro.Report.warnings > List.length rs.Report.warnings))
    [ ("ip_controller_orig.c", "ip_controller.c");
      ("double_ip_orig.c", "double_ip.c") ]

(* the source-change diff between original and split versions is small
   (the paper reports 7 changed lines / 1 function for IP and double IP) *)
let diff_size a b =
  (* lines exclusive to either side, via LCS *)
  let la = Array.of_list (String.split_on_char '\n' a) in
  let lb = Array.of_list (String.split_on_char '\n' b) in
  let n = Array.length la and m = Array.length lb in
  let dp = Array.make_matrix (n + 1) (m + 1) 0 in
  for i = n - 1 downto 0 do
    for j = m - 1 downto 0 do
      dp.(i).(j) <-
        (if String.equal la.(i) lb.(j) then 1 + dp.(i + 1).(j + 1)
         else max dp.(i + 1).(j) dp.(i).(j + 1))
    done
  done;
  n + m - (2 * dp.(0).(0))

let read_file p =
  let ic = open_in_bin p in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let test_source_change_size () =
  List.iter
    (fun (orig, split) ->
      let d =
        diff_size
          (read_file (find_system ("originals/" ^ orig)))
          (read_file (find_system split))
      in
      (* one function split: bounded, local change *)
      Alcotest.(check bool) (split ^ Fmt.str ": diff %d lines bounded" d) true
        (d > 0 && d < 120))
    [ ("ip_controller_orig.c", "ip_controller.c");
      ("double_ip_orig.c", "double_ip.c") ]

(* -- Executability: the core controllers actually run under the interpreter -- *)

let run_core_system name ~steps =
  let a = analyze name in
  let ir = a.Driver.prepared.Driver.ir in
  let outputs = ref [] in
  let tick = ref 0 in
  let handler st ename args =
    match (ename, args) with
    | "shmget", _ -> Ssair.Interp.VInt 9L
    | "shmat", _ -> Ssair.Interp.VPtr (Ssair.Interp.alloc_block st "shm" 4096)
    | ("readTrackSensor" | "readAngleSensor" | "readCartSensor"
      | "readAngle1Sensor" | "readAngle2Sensor"), _ ->
      incr tick;
      Ssair.Interp.VFloat (0.01 *. sin (float_of_int !tick *. 0.01))
    | "readSensorChannel", _ ->
      incr tick;
      Ssair.Interp.VFloat (0.005 *. cos (float_of_int !tick *. 0.02))
    | "readMotorCurrent", _ -> Ssair.Interp.VFloat 0.0
    | "readConfigValue", [ Ssair.Interp.VInt idx ] ->
      (* identity-ish plant description: dim 2, mild gains, PD-shaped P *)
      let i = Int64.to_int idx in
      Ssair.Interp.VFloat
        (if i = 0 then 2.0
         else if i >= 25 && i <= 40 then if (i - 25) mod 5 = 0 then 1.0 else 0.0
         else if i = 41 then 100.0
         else if i >= 46 && i <= 49 then -10.0
         else if i >= 50 && i <= 53 then 10.0
         else if i >= 66 then 1000.0
         else 0.1)
    | "sendControl", [ v ] ->
      (outputs := v :: !outputs);
      Ssair.Interp.VInt 0L
    | "current_time", _ ->
      incr tick;
      Ssair.Interp.VInt (Int64.of_int (!tick * 100))
    | "spawn_noncore", _ -> Ssair.Interp.VInt 4242L
    | "getpid", _ -> Ssair.Interp.VInt 1000L
    | "kill", _ -> Ssair.Interp.VInt 0L
    | _ -> Ssair.Interp.VInt 0L
  in
  (* bound the run with fuel: the control loop is infinite by design *)
  (try ignore (Ssair.Interp.run ~extern_handler:handler ~max_steps:steps ir)
   with Ssair.Interp.Trap _ -> ());
  List.length !outputs

let test_systems_execute () =
  List.iter
    (fun name ->
      let sent = run_core_system name ~steps:300_000 in
      Alcotest.(check bool) (name ^ " actuates") true (sent > 0))
    [ "ip_controller.c"; "generic_simplex.c"; "double_ip.c" ]

let () =
  Alcotest.run "systems"
    [ ( "table1",
        [ Alcotest.test_case "IP row" `Quick test_ip_table1;
          Alcotest.test_case "Generic Simplex row" `Quick test_generic_table1;
          Alcotest.test_case "Double IP row" `Quick test_double_ip_table1 ] );
      ( "error identities",
        [ Alcotest.test_case "IP kill pid" `Quick test_ip_error_is_kill_pid;
          Alcotest.test_case "generic feedback+kill" `Quick
            test_generic_errors_are_feedback_and_kill;
          Alcotest.test_case "double IP tuning+kill" `Quick test_double_ip_errors;
          Alcotest.test_case "FP class" `Quick test_fp_class_is_control_dependence;
          Alcotest.test_case "ablations keep Table 1" `Quick test_ablations_keep_table1 ] );
      ( "initcheck",
        [ Alcotest.test_case "layouts" `Quick test_initcheck_layouts ] );
      ( "companions",
        [ Alcotest.test_case "noncore parse+verify" `Quick test_noncore_components_parse;
          Alcotest.test_case "originals warn more" `Quick
            test_originals_show_why_split_was_needed;
          Alcotest.test_case "source change size" `Quick test_source_change_size ] );
      ( "execution",
        [ Alcotest.test_case "cores actuate" `Slow test_systems_execute ] ) ]
