(* Quickstart: run SafeFlow on the paper's Figure 2 running example.

   The source (systems/figure2.c) is the simplified Simplex core
   controller from the paper: main publishes the sensor feedback to
   shared memory, waits for the complex (non-core) controller, and lets
   the decision module dispatch the monitored non-core output or the
   core-computed safe control.

   Expected findings (paper §3.3, "In the example in figure 2 ..."):
   - the dereferences of `feedback` outside the monitoring context are
     unmonitored non-core reads (warnings);
   - `output` is data-dependent on them via computeSafety, so the
     assert(safe(output)) fails: one error dependency;
   - the paper's suggested fix is to pass a local copy of the feedback. *)

let find path =
  let candidates = [ path; "../" ^ path; "../../" ^ path; "../../../" ^ path ] in
  match List.find_opt Sys.file_exists candidates with
  | Some p -> p
  | None -> failwith ("cannot find " ^ path)

let () =
  let file = find "systems/figure2.c" in
  Fmt.pr "=== SafeFlow quickstart: analyzing %s ===@.@." file;
  let a = Safeflow.Driver.analyze_file file in
  Fmt.pr "%a@." Safeflow.Report.pp a.Safeflow.Driver.report;

  (* run the paper's InitCheck: simulate the initializing function and
     verify the declared regions do not overlap *)
  let d = Lazy.force a.Safeflow.Driver.detail in
  let layout =
    Safeflow.Shm.run_init_check d.Safeflow.Driver.prepared.Safeflow.Driver.ir
      d.Safeflow.Driver.shm
  in
  Fmt.pr "@.InitCheck: region layout verified:@.";
  List.iter (fun (n, off, sz) -> Fmt.pr "  %-14s offset %3d size %3d@." n off sz) layout;

  (* export the value-flow graph used for manual review of reports *)
  Safeflow.Vfg.write_dot "figure2_vfg.dot" d.Safeflow.Driver.phase3;
  Fmt.pr "@.value-flow graph written to figure2_vfg.dot@.";

  (* demonstrate the fix: the same controller with a monitored local copy
     of the feedback analyzes clean *)
  let fixed_src =
    {|
struct SHMData { double control; double track; double angle; };
typedef struct SHMData SHMData;
SHMData *noncoreCtrl;
SHMData *feedback;
extern void sendControl(double out);
extern void getFeedbackLocal(double *t, double *a);

void initComm()
/*** SafeFlow Annotation shminit ***/
{
  void *s;
  int id;
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

double decision(double t, double a, double safeControl)
/*** SafeFlow Annotation assume(core(noncoreCtrl, 0, sizeof(SHMData))) ***/
{
  double c = noncoreCtrl->control;
  if (c > 5.0 || c < -5.0) { return safeControl; }
  if (t * t + 4.0 * a * a > 1.0) { return safeControl; }
  return c;
}

int main()
{
  double t;
  double a;
  double safeControl;
  double output;
  int k = 0;
  initComm();
  while (k < 1000) {
    getFeedbackLocal(&t, &a);
    feedback->track = t;
    feedback->angle = a;
    safeControl = 0.0 - (1.2 * a + 0.4 * t);
    output = decision(t, a, safeControl);
    /*** SafeFlow Annotation assert(safe(output)) ***/
    sendControl(output);
    k = k + 1;
  }
  return 0;
}
|}
  in
  Fmt.pr "@.=== after the paper's fix (local feedback copy) ===@.@.";
  let fixed = Safeflow.Driver.analyze fixed_src in
  Fmt.pr "%a@." Safeflow.Report.pp fixed.Safeflow.Driver.report;
  let errs = Safeflow.Report.errors fixed.Safeflow.Driver.report in
  Fmt.pr "@.fixed controller: %d error dependencies (expected 0)@." (List.length errs)
