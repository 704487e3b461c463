(* Differential validation: dynamic taint observed on a concrete execution
   must be a subset of what the static analysis reports.

   - every dynamic unmonitored non-core read site is a static warning site;
   - every dynamic critical-data violation is a static Data error at the
     same location;
   - monitored reads stay clean in both. *)

open Safeflow

let find_system name =
  let candidates =
    [ "../../../systems/" ^ name; "../../systems/" ^ name; "systems/" ^ name ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some p -> p
  | None -> Alcotest.fail ("cannot locate systems/" ^ name)

(* a permissive environment: shm via one segment, sensors wiggle, config
   values mild, everything else returns 0 *)
let extern_handler tick st name args =
  match (name, args) with
  | "shmget", _ -> Ssair.Interp.VInt 11L
  | "shmat", _ -> Ssair.Interp.VPtr (Ssair.Interp.alloc_block st "shm" 8192)
  | ( ("readTrackSensor" | "readAngleSensor" | "readCartSensor" | "readAngle1Sensor"
      | "readAngle2Sensor"), _ ) ->
    incr tick;
    Ssair.Interp.VFloat (0.01 *. sin (float_of_int !tick *. 0.01))
  | "readSensorChannel", _ ->
    incr tick;
    Ssair.Interp.VFloat (0.004 *. cos (float_of_int !tick *. 0.05))
  | "readMotorCurrent", _ -> Ssair.Interp.VFloat 0.0
  | "readConfigValue", [ Ssair.Interp.VInt idx ] ->
    let i = Int64.to_int idx in
    Ssair.Interp.VFloat
      (if i = 0 then 2.0
       else if i >= 25 && i <= 40 then if (i - 25) mod 5 = 0 then 1.0 else 0.0
       else if i = 41 then 100.0
       else if i >= 46 && i <= 49 then -10.0
       else if i >= 50 && i <= 53 then 10.0
       else if i >= 66 then 1000.0
       else 0.1)
  | "current_time", _ ->
    incr tick;
    Ssair.Interp.VInt (Int64.of_int (!tick * 37))
  | "spawn_noncore", _ -> Ssair.Interp.VInt 4242L
  | "getpid", _ -> Ssair.Interp.VInt 1000L
  | _ -> Ssair.Interp.VInt 0L

(* minimal environment for inline snippets: just shared memory *)
let basic_handler st name _args =
  match name with
  | "shmget" -> Ssair.Interp.VInt 11L
  | "shmat" -> Ssair.Interp.VPtr (Ssair.Interp.alloc_block st "shm" 8192)
  | _ -> Ssair.Interp.VInt 0L

let dynamic_run ?(max_steps = 2_000_000) path =
  let a = Driver.analyze_file path in
  let d = Lazy.force a.Driver.detail in
  let tick = ref 0 in
  let dyn =
    Dyntaint.run ~extern_handler:(extern_handler tick) ~max_steps
      d.Driver.prepared.Driver.ir d.Driver.shm
  in
  (a.Driver.report, dyn)

let check_subset name (static : Report.t) (dyn : Dyntaint.result) =
  let static_warn_sites =
    List.map (fun w -> (w.Report.w_loc, w.Report.w_region)) static.Report.warnings
  in
  List.iter
    (fun site ->
      Alcotest.(check bool)
        (Fmt.str "%s: dynamic read %a/%s is a static warning" name Minic.Loc.pp (fst site)
           (snd site))
        true
        (List.mem site static_warn_sites))
    dyn.Dyntaint.read_sites;
  let static_error_locs =
    List.map (fun d -> d.Report.d_loc) (Report.errors static)
  in
  List.iter
    (fun (f : Dyntaint.finding) ->
      Alcotest.(check bool)
        (Fmt.str "%s: dynamic violation %s at %a is a static error" name f.df_sink
           Minic.Loc.pp f.df_loc)
        true
        (List.mem f.df_loc static_error_locs))
    dyn.Dyntaint.violations

let test_figure2_dynamic () =
  let static, dyn = dynamic_run (find_system "figure2.c") in
  check_subset "figure2" static dyn;
  (* the error actually manifests on this execution: computeSafety reads
     the feedback region and the value reaches the output assert *)
  Alcotest.(check bool) "output assert violated dynamically" true
    (List.exists
       (fun (f : Dyntaint.finding) ->
         Astring.String.is_infix ~affix:"output" f.Dyntaint.df_sink)
       dyn.Dyntaint.violations);
  Alcotest.(check bool) "some dynamic read sites observed" true
    (dyn.Dyntaint.read_sites <> [])

let test_systems_dynamic_subset () =
  List.iter
    (fun name ->
      let static, dyn = dynamic_run (find_system name) in
      check_subset name static dyn)
    [ "ip_controller.c"; "generic_simplex.c"; "double_ip.c" ]

let test_ip_kill_manifests () =
  (* the kill-pid error manifests when the (simulated) non-core component
     has armed the watchdog and its heartbeat stalls: arm it in the shm
     segment right after attachment *)
  let path = find_system "ip_controller.c" in
  let a = Driver.analyze_file path in
  let d = Lazy.force a.Driver.detail in
  let tick = ref 0 in
  let env = d.Driver.prepared.Driver.ir.Ssair.Ir.env in
  let handler st name args =
    match name with
    | "shmat" ->
      let p = Ssair.Interp.alloc_block st "shm" 8192 in
      (* WatchdogInfo at offset 96: nc_pid=96 (int), enable=100 (int) *)
      Ssair.Interp.store_scalar st env Minic.Ty.Int
        { p with Ssair.Interp.poff = 96 } (Ssair.Interp.VInt 4242L);
      Ssair.Interp.store_scalar st env Minic.Ty.Int
        { p with Ssair.Interp.poff = 100 } (Ssair.Interp.VInt 1L);
      Ssair.Interp.VPtr p
    | _ -> extern_handler tick st name args
  in
  let dyn =
    Dyntaint.run ~extern_handler:handler ~max_steps:2_000_000
      d.Driver.prepared.Driver.ir d.Driver.shm
  in
  check_subset "ip-kill" a.Driver.report dyn;
  Alcotest.(check bool) "kill sink observed dynamically" true
    (List.exists
       (fun (f : Dyntaint.finding) ->
         Astring.String.is_infix ~affix:"kill" f.Dyntaint.df_sink)
       dyn.Dyntaint.violations)

let test_monitored_read_clean_dynamically () =
  let src =
    {|
struct B { double a; double b2; };
typedef struct B B;
B *reg;
extern void sendControl(double v);
void initShm()
/*** SafeFlow Annotation shminit ***/
{
  void *s; int id;
  id = shmget(6300, sizeof(B), 438);
  s = shmat(id, (void *) 0, 0);
  reg = (B *) s;
  /*** SafeFlow Annotation assume(shmvar(reg, sizeof(B))) assume(noncore(reg)) ***/
}
double monitor(B *p)
/*** SafeFlow Annotation assume(core(reg, 0, sizeof(B))) ***/
{
  double v = p->a;
  if (v > 5.0 || v < -5.0) { return 0.0; }
  return v;
}
int main() {
  initShm();
  double ok = monitor(reg);
  /*** SafeFlow Annotation assert(safe(ok)) ***/
  double bad = reg->b2;
  /*** SafeFlow Annotation assert(safe(bad)) ***/
  sendControl(ok + bad);
  return 0;
}
|}
  in
  let a = Driver.analyze src in
  let d = Lazy.force a.Driver.detail in
  let dyn = Dyntaint.run d.Driver.prepared.Driver.ir d.Driver.shm
      ~extern_handler:basic_handler
  in
  (* exactly one dynamic source (the unmonitored read) and one violation *)
  Alcotest.(check int) "one dynamic read site" 1 (List.length dyn.Dyntaint.read_sites);
  Alcotest.(check int) "one dynamic violation" 1 (List.length dyn.Dyntaint.violations);
  (match dyn.Dyntaint.violations with
  | [ f ] ->
    Alcotest.(check bool) "violation is assert(safe(bad))" true
      (Astring.String.is_infix ~affix:"bad" f.Dyntaint.df_sink)
  | _ -> Alcotest.fail "expected one violation");
  check_subset "monitored-clean" a.Driver.report dyn

let test_strong_update_clears_taint () =
  (* overwriting a tainted cell with a clean value clears it dynamically *)
  let src =
    {|
double *reg;
extern void sendControl(double v);
void initShm()
/*** SafeFlow Annotation shminit ***/
{
  void *s; int id;
  id = shmget(6400, 8 * sizeof(double), 438);
  s = shmat(id, (void *) 0, 0);
  reg = (double *) s;
  /*** SafeFlow Annotation assume(shmvar(reg, 8 * sizeof(double))) assume(noncore(reg)) ***/
}
double buffer[2];
int main() {
  initShm();
  buffer[0] = reg[0];     /* tainted */
  buffer[0] = 1.5;        /* strong update: clean again */
  double v = buffer[0];
  /*** SafeFlow Annotation assert(safe(v)) ***/
  sendControl(v);
  return 0;
}
|}
  in
  let a = Driver.analyze src in
  let d = Lazy.force a.Driver.detail in
  let dyn = Dyntaint.run d.Driver.prepared.Driver.ir d.Driver.shm
      ~extern_handler:basic_handler
  in
  (* dynamically clean (strong update); statically reported (no strong
     updates in the flow-insensitive memory model) — the static analysis
     is conservative, as expected *)
  Alcotest.(check int) "no dynamic violation" 0 (List.length dyn.Dyntaint.violations);
  Alcotest.(check bool) "static analysis conservatively reports" true
    (List.length (Report.errors a.Driver.report) >= 1)

let prop_synth_dynamic_subset =
  let gen = QCheck.Gen.(pair (int_range 2 10) (oneofl [ 0.0; 0.25; 0.5; 1.0 ])) in
  let arb = QCheck.make ~print:(fun (w, f) -> Fmt.str "w=%d f=%.2f" w f) gen in
  QCheck.Test.make ~name:"synth: dynamic taint subset of static" ~count:15 arb
    (fun (workers, monitored_fraction) ->
      let src =
        Synth.generate { Synth.default with workers; monitored_fraction; chain_depth = 2 }
      in
      let a = Driver.analyze src in
      let d = Lazy.force a.Driver.detail in
      let dyn =
        Dyntaint.run ~max_steps:3_000_000 d.Driver.prepared.Driver.ir d.Driver.shm
          ~extern_handler:basic_handler
      in
      let static_sites =
        List.map (fun w -> (w.Report.w_loc, w.Report.w_region)) a.Driver.report.Report.warnings
      in
      List.for_all (fun s -> List.mem s static_sites) dyn.Dyntaint.read_sites)

(* An asserted global is read where the assertion stands: a global sink
   fed by an unmonitored read is an error dependency under the library
   engine and under the dense oracle, and the dynamic run observes the
   violation. *)
let test_global_sink () =
  let src =
    {|
struct B { double a; double b2; };
typedef struct B B;
B *reg;
double out;
extern void sendControl(double v);
void initShm()
/*** SafeFlow Annotation shminit ***/
{
  void *s; int id;
  id = shmget(6300, sizeof(B), 438);
  s = shmat(id, (void *) 0, 0);
  reg = (B *) s;
  /*** SafeFlow Annotation assume(shmvar(reg, sizeof(B))) assume(noncore(reg)) ***/
}
int main() {
  initShm();
  out = reg->b2;
  /*** SafeFlow Annotation assert(safe(out)) ***/
  sendControl(out);
  return 0;
}
|}
  in
  let run = Oracle.run_of "global sink" Config.default src in
  let data_deps (r : Report.t) =
    List.filter_map
      (fun (d : Report.dependency) ->
        if d.Report.d_kind = Report.Data then Some d.Report.d_sink else None)
      r.Report.dependencies
  in
  Alcotest.(check (list string)) "library engine" [ "assert(safe(out))" ]
    (data_deps run.Oracle.lib.Driver.report);
  Alcotest.(check (list string)) "dense oracle" [ "assert(safe(out))" ]
    (data_deps run.Oracle.oracle_report);
  let d = Lazy.force run.Oracle.lib.Driver.detail in
  let dyn =
    Dyntaint.run d.Driver.prepared.Driver.ir d.Driver.shm ~extern_handler:basic_handler
  in
  Alcotest.(check (list string)) "dynamic violation" [ "assert(safe(out))" ]
    (List.map (fun f -> f.Dyntaint.df_sink) dyn.Dyntaint.violations);
  check_subset "global-sink" run.Oracle.lib.Driver.report dyn

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "dyntaint"
    [ ( "subset",
        [ Alcotest.test_case "figure2" `Quick test_figure2_dynamic;
          Alcotest.test_case "three systems" `Slow test_systems_dynamic_subset;
          Alcotest.test_case "ip kill manifests" `Slow test_ip_kill_manifests ] );
      ( "semantics",
        [ Alcotest.test_case "monitored reads clean" `Quick
            test_monitored_read_clean_dynamically;
          Alcotest.test_case "strong update" `Quick test_strong_update_clears_taint;
          Alcotest.test_case "global sink" `Quick test_global_sink ] );
      ("properties", [ qt prop_synth_dynamic_subset ]) ]
