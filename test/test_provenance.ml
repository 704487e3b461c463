(* Provenance witnesses: every phase-3 dependency must carry a
   structured value-flow path (Report.d_path) whose endpoints and chain
   can be checked mechanically — the machine-checkable counterpart of
   the paper's "review the value-flow graph" workflow.

   Checked on every subject system:
   - every dependency has a non-empty path whose string rendering IS the
     legacy d_trace (they are derived from the same structure);
   - consecutive non-synthetic steps chain by entity identity
     (step[i+1].p_parent = step[i].p_key);
   - the path starts at a source (no parent) and ends at the sink side
     (an entity of the sink's function, a memory object, or a synthetic
     narrative step such as "reachable from critical pointer"). *)

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

let starts_with prefix s = Astring.String.is_prefix ~affix:prefix s

let is_synthetic (s : Report.path_step) = s.Report.p_key = ""

(* Entity descriptions are "<func>:..." (values, params, returns),
   "mem ..." (points-to nodes) or "non-core region ..." (sources). *)
let step_function_of_desc desc =
  match String.index_opt desc ':' with
  | Some i when not (starts_with "mem " desc) -> Some (String.sub desc 0 i)
  | _ -> None

let check_dependency label (r : Report.t) (d : Report.dependency) =
  let steps = d.Report.d_path in
  if steps = [] then Alcotest.failf "%s: empty witness path" label;
  (* derivation invariant: the legacy string trace is the path, rendered *)
  Alcotest.(check (list string))
    (label ^ ": d_trace = path_strings d_path")
    d.Report.d_trace (Report.path_strings steps);
  (* the source end opens the chain *)
  let first = List.hd steps in
  if first.Report.p_parent <> None then
    Alcotest.failf "%s: first step %s has a parent" label first.Report.p_desc;
  (* chain connectivity between consecutive non-synthetic steps *)
  ignore
    (List.fold_left
       (fun (prev : Report.path_step option) (s : Report.path_step) ->
         (match prev with
         | Some p when (not (is_synthetic p)) && not (is_synthetic s) ->
           if s.Report.p_parent <> Some p.Report.p_key then
             Alcotest.failf "%s: step %S does not chain to %S" label s.Report.p_desc
               p.Report.p_desc
         | _ -> ());
         Some s)
       None steps);
  (* a non-synthetic source must be a non-core region the report knows,
     or a message-passing pseudo-region ("socket via recv", §3.4.3) *)
  if not (is_synthetic first) && starts_with "non-core region " first.Report.p_desc
  then begin
    let region =
      String.sub first.Report.p_desc 16 (String.length first.Report.p_desc - 16)
    in
    let noncore =
      List.exists (fun (n, _, nc) -> n = region && nc) r.Report.regions
    in
    let socket = Astring.String.is_infix ~affix:"socket" region in
    if not (noncore || socket) then
      Alcotest.failf "%s: source region %s is not a known non-core region" label region;
    (* shared-memory sources must also show up as a read-site warning *)
    if
      noncore
      && not
           (List.exists
              (fun (w : Report.warning) -> w.Report.w_region = region)
              r.Report.warnings)
    then Alcotest.failf "%s: no read-site warning for source region %s" label region
  end;
  (* the sink end belongs to the dependency's function, is a memory
     object, or is narrative *)
  let last = List.nth steps (List.length steps - 1) in
  let sink_ok =
    is_synthetic last
    || starts_with "mem " last.Report.p_desc
    || step_function_of_desc last.Report.p_desc = Some d.Report.d_func
  in
  if not sink_ok then
    Alcotest.failf "%s: sink step %S does not reach %s" label last.Report.p_desc
      d.Report.d_func

let system_files =
  [ "ip_controller.c"; "generic_simplex.c"; "double_ip.c"; "figure2.c"; "car_follow.c" ]

let test_system name () =
  let src = read_file (find_system name) in
  let r = (Driver.analyze ~file:name src).Driver.report in
  if Report.errors r = [] then
    Alcotest.failf "%s: expected at least one error dependency" name;
  List.iter
    (fun (d : Report.dependency) ->
      check_dependency (Fmt.str "%s %s" name d.Report.d_sink) r d)
    r.Report.dependencies

(* Figure 2 of the paper: the witness must run from the unmonitored
   feedback read into the final safety assertion in main. *)
let test_figure2_pin () =
  let src = read_file (find_system "figure2.c") in
  let r = (Driver.analyze ~file:"figure2.c" src).Driver.report in
  match Report.errors r with
  | [ d ] ->
    Alcotest.(check string) "sink" "assert(safe(output))" d.Report.d_sink;
    let steps = d.Report.d_path in
    Alcotest.(check string) "source step" "non-core region feedback"
      (List.hd steps).Report.p_desc;
    let last = List.nth steps (List.length steps - 1) in
    Alcotest.(check bool) "sink step in main" true (starts_with "main:" last.Report.p_desc);
    Alcotest.(check bool) "multi-step" true (List.length steps >= 3)
  | deps -> Alcotest.failf "expected exactly 1 error, got %d" (List.length deps)

(* Control-only dependencies carry witnesses too (possibly narrative). *)
let test_control_paths () =
  let src = read_file (find_system "generic_simplex.c") in
  let r = (Driver.analyze ~file:"generic_simplex.c" src).Driver.report in
  let ctrl = Report.control_deps r in
  if ctrl = [] then Alcotest.fail "expected control-only dependencies";
  List.iter
    (fun (d : Report.dependency) ->
      if d.Report.d_path = [] then
        Alcotest.failf "control dep %s: empty witness" d.Report.d_sink)
    ctrl

let () =
  Alcotest.run "provenance"
    [ ( "witness paths",
        List.map
          (fun name -> Alcotest.test_case name `Quick (test_system name))
          system_files );
      ( "pins",
        [ Alcotest.test_case "figure2 witness" `Quick test_figure2_pin;
          Alcotest.test_case "control-only witnesses" `Quick test_control_paths ] ) ]
