(* Higher-level analysis properties and paper-extension features:
   - §3.4.2 fine-grained non-core encapsulation assumptions;
   - synthetic-program properties (monotonicity of monitoring, exact
     warning counts, determinism, staged-pipeline consistency);
   - value-flow-graph export well-formedness. *)

open Safeflow

let find_system name =
  let candidates =
    [ "../../../systems/" ^ name; "../../systems/" ^ name; "systems/" ^ name ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some p -> p
  | None -> Alcotest.fail ("cannot locate systems/" ^ name)

(* -- §3.4.2: fine-grained encapsulation assumptions ----------------------- *)

(* Figure 2 with the extra annotation the paper discusses: declaring
   `feedback` core within `decision` (and callees) removes the feedback
   warnings there — the developer takes responsibility for the absence
   of synchronization/compatibility errors. *)
let test_encapsulation_assumption () =
  let src =
    {|
struct SHMData { double control; double track; double angle; };
typedef struct SHMData SHMData;
SHMData *noncoreCtrl;
SHMData *feedback;
extern void sendControl(double out);

void initComm()
/*** SafeFlow Annotation shminit ***/
{
  void *s; int id;
  id = shmget(9000, 2 * sizeof(SHMData), 438);
  s = shmat(id, (void *) 0, 0);
  feedback = (SHMData *) s;
  noncoreCtrl = feedback + 1;
  /*** SafeFlow Annotation
       assume(shmvar(feedback, sizeof(SHMData)))
       assume(shmvar(noncoreCtrl, sizeof(SHMData)))
       assume(noncore(feedback))
       assume(noncore(noncoreCtrl)) ***/
}

int checkSafety(SHMData *f, SHMData *nc)
{
  double t = f->track;
  double a = f->angle;
  double c = nc->control;
  if (c > 5.0 || c < -5.0) { return 0; }
  if (t * t + 4.0 * a * a > 1.0) { return 0; }
  return 1;
}

double decision(SHMData *f, double safeControl, SHMData *nc)
/*** SafeFlow Annotation
     assume(core(noncoreCtrl, 0, sizeof(SHMData)))
     assume(core(feedback, 0, sizeof(SHMData))) ***/
{
  if (checkSafety(f, nc)) {
    return nc->control;
  }
  return safeControl;
}

int main()
{
  double safeControl = 0.0;
  double output;
  initComm();
  output = decision(feedback, safeControl, noncoreCtrl);
  /*** SafeFlow Annotation assert(safe(output)) ***/
  sendControl(output);
  return 0;
}
|}
  in
  let r = (Driver.analyze src).Driver.report in
  (* both regions assumed core inside decision (and checkSafety via the
     recursive scope): no warnings, no errors *)
  Alcotest.(check int) "no warnings under the encapsulation assumption" 0
    (List.length r.Report.warnings);
  Alcotest.(check int) "no errors" 0 (List.length (Report.errors r))

(* -- Synth properties ------------------------------------------------------- *)

let test_synth_warning_count_exact () =
  (* unmonitored workers read one non-core value each: warnings = count *)
  List.iter
    (fun (workers, frac) ->
      let src =
        Synth.generate { Synth.default with workers; monitored_fraction = frac }
      in
      let r = (Driver.analyze src).Driver.report in
      let monitored = int_of_float (frac *. float_of_int workers) in
      Alcotest.(check int)
        (Fmt.str "workers=%d frac=%.2f warnings" workers frac)
        (workers - monitored)
        (List.length r.Report.warnings))
    [ (4, 0.5); (8, 0.25); (10, 1.0); (6, 0.0) ]

let prop_more_monitoring_fewer_warnings =
  let gen = QCheck.Gen.(pair (int_range 2 20) (pair (float_range 0.0 1.0) (float_range 0.0 1.0))) in
  let arb = QCheck.make ~print:(fun (w, (a, b)) -> Fmt.str "w=%d a=%.2f b=%.2f" w a b) gen in
  QCheck.Test.make ~name:"monitoring more workers never adds warnings" ~count:30 arb
    (fun (workers, (f1, f2)) ->
      let lo = Float.min f1 f2 and hi = Float.max f1 f2 in
      let warn f =
        let src = Synth.generate { Synth.default with workers; monitored_fraction = f } in
        List.length (Driver.analyze src).Driver.report.Report.warnings
      in
      warn hi <= warn lo)

let prop_synth_clean_of_violations =
  let gen = QCheck.Gen.(pair (int_range 1 24) (int_range 1 4)) in
  let arb = QCheck.make ~print:(fun (w, d) -> Fmt.str "w=%d d=%d" w d) gen in
  QCheck.Test.make ~name:"synthetic programs: no restriction violations" ~count:25 arb
    (fun (workers, chain_depth) ->
      let src = Synth.generate { Synth.default with workers; chain_depth } in
      let r = (Driver.analyze src).Driver.report in
      r.Report.violations = [])

let test_analysis_deterministic () =
  let src = Synth.of_size 12 in
  let summary () =
    let r = (Driver.analyze src).Driver.report in
    ( List.length r.Report.warnings,
      List.length (Report.errors r),
      List.length (Report.control_deps r),
      List.map (fun w -> Fmt.str "%a" Minic.Loc.pp w.Report.w_loc) r.Report.warnings
      |> List.sort compare )
  in
  let a = summary () and b = summary () in
  Alcotest.(check bool) "two runs identical" true (a = b)

(* the staged pipeline and the one-shot driver agree *)
let test_staged_pipeline_consistency () =
  let path = find_system "ip_controller.c" in
  let one_shot = (Driver.analyze_file path).Driver.report in
  let p = Driver.prepare_file path in
  let shm = Driver.stage_shm p in
  let p1 = Driver.stage_phase1 p shm in
  let absint = Driver.stage_absint p in
  let ph2 = Driver.stage_phase2 ?absint p p1 in
  let pts = Driver.stage_pointsto p in
  let ph3 = Driver.stage_phase3 ?absint p shm p1 pts in
  Alcotest.(check int) "violations agree" (List.length one_shot.Report.violations)
    (List.length ph2.Phase2.violations);
  Alcotest.(check int) "warnings agree" (List.length one_shot.Report.warnings)
    (List.length ph3.Phase3.warnings);
  Alcotest.(check int) "dependencies agree"
    (List.length one_shot.Report.dependencies)
    (List.length ph3.Phase3.dependencies)

(* -- VFG export --------------------------------------------------------------- *)

let balanced_braces s =
  let depth = ref 0 in
  String.iter
    (fun c -> if c = '{' then incr depth else if c = '}' then decr depth)
    s;
  !depth = 0

let test_vfg_wellformed_for_all_systems () =
  List.iter
    (fun name ->
      let a = Driver.analyze_file (find_system name) in
      let d = Lazy.force a.Driver.detail in
      let dot = Vfg.to_dot d.Driver.phase3 in
      Alcotest.(check bool) (name ^ ": digraph") true
        (Astring.String.is_prefix ~affix:"digraph" dot);
      Alcotest.(check bool) (name ^ ": balanced") true (balanced_braces dot))
    [ "ip_controller.c"; "generic_simplex.c"; "double_ip.c" ]

(* traces always start at a non-core source *)
let test_error_traces_rooted_at_sources () =
  List.iter
    (fun name ->
      let r = (Driver.analyze_file (find_system name)).Driver.report in
      List.iter
        (fun d ->
          match d.Report.d_trace with
          | first :: _ ->
            Alcotest.(check bool)
              (name ^ ": trace starts at a non-core source")
              true
              (Astring.String.is_infix ~affix:"non-core" first)
          | [] -> Alcotest.fail "empty trace")
        (Report.errors r))
    [ "ip_controller.c"; "generic_simplex.c"; "double_ip.c" ]

(* -- Context explosion (§3.3) ---------------------------------------------------- *)

(* the exponential workload: a binary tree of monitoring functions, one
   data error at the sink *)
let test_context_explosion () =
  let r = (Driver.analyze (Synth.context_explosion ~depth:6)).Driver.report in
  Alcotest.(check int) "one error" 1 (List.length (Report.errors r))

(* -- Car-following demo system (message-passing extension §3.4.3) ------------- *)

let test_car_follow_system () =
  let a = Driver.analyze_file (find_system "car_follow.c") in
  let d = Lazy.force a.Driver.detail in
  let r = a.Driver.report in
  Alcotest.(check int) "regions" 3 (List.length r.Report.regions);
  Alcotest.(check int) "violations" 0 (List.length r.Report.violations);
  Alcotest.(check int) "errors" 2 (List.length (Report.errors r));
  Alcotest.(check int) "warnings" 3 (List.length r.Report.warnings);
  (* error 1: the raw recv value reaching the acceleration *)
  Alcotest.(check bool) "recv error present" true
    (List.exists
       (fun d ->
         Astring.String.is_infix ~affix:"accel" d.Report.d_sink
         && List.exists (Astring.String.is_infix ~affix:"recv") d.Report.d_trace)
       (Report.errors r));
  (* error 2: the kill pid *)
  Alcotest.(check bool) "kill error present" true
    (List.exists
       (fun d -> Astring.String.is_infix ~affix:"kill" d.Report.d_sink)
       (Report.errors r));
  (* the monitored telematics and planner paths are clean: no error
     mentions checkSpeedCommand or checkPlannerCmd *)
  List.iter
    (fun d ->
      List.iter
        (fun step ->
          Alcotest.(check bool) "monitored fns not in traces" false
            (Astring.String.is_infix ~affix:"checkSpeedCommand" step
            || Astring.String.is_infix ~affix:"checkPlannerCmd" step))
        d.Report.d_trace)
    (Report.errors r);
  (* InitCheck lays out the three regions disjointly *)
  let layout = Shm.run_init_check d.Driver.prepared.Driver.ir d.Driver.shm in
  Alcotest.(check int) "layout" 3 (List.length layout)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "extensions"
    [ ( "encapsulation",
        [ Alcotest.test_case "fine-grained assume (§3.4.2)" `Quick
            test_encapsulation_assumption ] );
      ( "synth",
        [ Alcotest.test_case "exact warning counts" `Quick test_synth_warning_count_exact;
          Alcotest.test_case "determinism" `Quick test_analysis_deterministic;
          qt prop_more_monitoring_fewer_warnings;
          qt prop_synth_clean_of_violations ] );
      ( "pipeline",
        [ Alcotest.test_case "staged = one-shot" `Quick test_staged_pipeline_consistency ] );
      ( "vfg",
        [ Alcotest.test_case "well-formed dot" `Quick test_vfg_wellformed_for_all_systems;
          Alcotest.test_case "traces rooted" `Quick test_error_traces_rooted_at_sources ] );
      ( "car-follow",
        [ Alcotest.test_case "message-passing demo system" `Quick test_car_follow_system ] );
      (* alcotest truncates long test names to a width set by the longest
         group name; this 14-character one keeps the printed names of the
         synth properties as they were *)
      ( "context-growth",
        [ Alcotest.test_case "context explosion" `Quick test_context_explosion ] ) ]
