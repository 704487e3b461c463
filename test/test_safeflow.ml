(* End-to-end tests for the SafeFlow analysis: region discovery, warnings,
   monitoring contexts, restriction checking (P1-P3, A1/A2), critical
   sinks, control dependence, the message-passing extension, InitCheck,
   and the ablation toggles. *)

open Safeflow

let analyze ?config src = (Driver.analyze ?config src).Driver.report

let full ?config src = Driver.analyze ?config src

(* A reusable system skeleton: two regions, one non-core, one core. *)
let prelude =
  {|
struct SHMData { double control; double track; double angle; };
typedef struct SHMData SHMData;
SHMData *nc;       /* written by the non-core controller */
SHMData *corefb;   /* written only by core components */
extern void sendControl(double v);

void initComm()
/*** SafeFlow Annotation shminit ***/
{
  void *base;
  int id;
  id = shmget(7000, 2 * sizeof(SHMData), 438);
  base = shmat(id, (void *) 0, 0);
  nc = (SHMData *) base;
  corefb = nc + 1;
  /*** SafeFlow Annotation
       assume(shmvar(nc, sizeof(SHMData)))
       assume(shmvar(corefb, sizeof(SHMData)))
       assume(noncore(nc)) ***/
}
|}

let count_warnings r = List.length r.Report.warnings
let count_errors r = List.length (Report.errors r)
let count_control r = List.length (Report.control_deps r)
let count_violations r = List.length r.Report.violations

let rule_violations rule r =
  List.filter (fun v -> v.Report.v_rule = rule) r.Report.violations

(* -- Region discovery --------------------------------------------------------- *)

let test_regions_discovered () =
  let r = analyze (prelude ^ "int main() { initComm(); return 0; }") in
  Alcotest.(check int) "two regions" 2 (List.length r.Report.regions);
  let nc = List.find (fun (n, _, _) -> n = "nc") r.Report.regions in
  let core = List.find (fun (n, _, _) -> n = "corefb") r.Report.regions in
  (match nc with
  | _, sz, noncore ->
    Alcotest.(check int) "nc size" 24 sz;
    Alcotest.(check bool) "nc is noncore" true noncore);
  match core with
  | _, _, noncore -> Alcotest.(check bool) "corefb is core" false noncore

let test_annotation_count () =
  let r = analyze (prelude ^ "int main() { initComm(); return 0; }") in
  (* shminit + 2 shmvar + 1 noncore = 4 clauses *)
  Alcotest.(check int) "annotation clauses" 4 r.Report.annotation_lines

(* -- Warnings ------------------------------------------------------------------ *)

let test_unmonitored_read_warns () =
  let r =
    analyze
      (prelude
     ^ {| int main() { initComm(); double v = nc->control; sendControl(v); return 0; } |})
  in
  Alcotest.(check int) "one warning" 1 (count_warnings r);
  let w = List.hd r.Report.warnings in
  Alcotest.(check string) "region" "nc" w.Report.w_region;
  Alcotest.(check string) "function" "main" w.Report.w_func

let test_core_region_read_safe () =
  let r =
    analyze
      (prelude
     ^ {| int main() { initComm(); double v = corefb->track; sendControl(v);
          /*** SafeFlow Annotation assert(safe(v)) ***/
          return 0; } |})
  in
  Alcotest.(check int) "no warnings" 0 (count_warnings r);
  Alcotest.(check int) "no errors" 0 (count_errors r)

let test_monitored_read_safe () =
  let r =
    analyze
      (prelude
     ^ {|
double monitor(SHMData *p)
/*** SafeFlow Annotation assume(core(nc, 0, sizeof(SHMData))) ***/
{
  double v = p->control;
  if (v > 5.0 || v < -5.0) { return 0.0; }
  return v;
}
int main() { initComm(); double out = monitor(nc);
  /*** SafeFlow Annotation assert(safe(out)) ***/
  sendControl(out); return 0; }
|})
  in
  Alcotest.(check int) "no warnings" 0 (count_warnings r);
  Alcotest.(check int) "no data errors" 0 (count_errors r)

let test_partial_monitor_range () =
  (* monitoring only the first 8 bytes leaves the rest unmonitored *)
  let r =
    analyze
      (prelude
     ^ {|
double monitor(SHMData *p)
/*** SafeFlow Annotation assume(core(nc, 0, 8)) ***/
{
  double ok = p->control;   /* offset 0: covered */
  double bad = p->angle;    /* offset 16: not covered */
  return ok + bad;
}
int main() { initComm(); sendControl(monitor(nc)); return 0; }
|})
  in
  Alcotest.(check int) "one warning for the uncovered field" 1 (count_warnings r)

let test_warning_deduplication () =
  (* the same load site reached from two call sites warns once *)
  let r =
    analyze
      (prelude
     ^ {|
double readit() { return nc->control; }
int main() { initComm(); double a = readit(); double b = readit();
  sendControl(a + b); return 0; }
|})
  in
  Alcotest.(check int) "one deduplicated warning" 1 (count_warnings r)

(* -- Context sensitivity --------------------------------------------------------- *)

let ctx_src =
  prelude
  ^ {|
double readval(SHMData *p) { return p->control; }
double monitored(SHMData *p)
/*** SafeFlow Annotation assume(core(nc, 0, sizeof(SHMData))) ***/
{
  double v = readval(p);
  if (v > 5.0 || v < -5.0) { return 0.0; }
  return v;
}
int main() {
  initComm();
  double x = monitored(nc);
  /*** SafeFlow Annotation assert(safe(x)) ***/
  double y = readval(nc);
  sendControl(x + y);
  return 0;
}
|}

let test_context_sensitive_helper () =
  let r = analyze ctx_src in
  (* the readval load is monitored via monitored(), unmonitored via main *)
  Alcotest.(check int) "one warning (unmonitored context)" 1 (count_warnings r);
  Alcotest.(check int) "x is safe: no data errors" 0 (count_errors r)

let test_context_insensitive_ablation () =
  let config = { Config.default with context_sensitive = false } in
  let r = analyze ~config ctx_src in
  (* merging contexts loses the monitoring: x becomes (spuriously) unsafe *)
  Alcotest.(check bool) "ablation introduces a false error" true (count_errors r >= 1)

(* -- Critical sinks ----------------------------------------------------------------- *)

let test_kill_sink () =
  let r =
    analyze
      (prelude
     ^ {|
struct Ctl { int pid; int cmd; };
typedef struct Ctl Ctl;
int main() {
  initComm();
  int pid = (int) nc->control;
  kill(pid, 9);
  return 0;
}
|})
  in
  Alcotest.(check int) "kill pid dependency" 1 (count_errors r);
  let d = List.hd (Report.errors r) in
  Alcotest.(check bool) "sink mentions kill" true
    (Astring.String.is_infix ~affix:"kill" d.Report.d_sink)

let test_safe_kill_no_error () =
  let r =
    analyze
      (prelude
     ^ {| int main() { initComm(); int pid = getpid(); kill(pid, 9); return 0; } |})
  in
  Alcotest.(check int) "no error for own pid" 0 (count_errors r)

(* -- Control dependence -------------------------------------------------------------- *)

let control_src =
  prelude
  ^ {|
double pick() {
  if (nc->track > 0.5) {
    return 1.0;
  }
  return 2.0;
}
int main() {
  initComm();
  double v = pick();
  /*** SafeFlow Annotation assert(safe(v)) ***/
  sendControl(v);
  return 0;
}
|}

let test_control_only_dependency () =
  let r = analyze control_src in
  Alcotest.(check int) "no data error" 0 (count_errors r);
  Alcotest.(check bool) "control-only dependency reported" true (count_control r >= 1);
  Alcotest.(check int) "warning for the config read" 1 (count_warnings r)

let test_control_deps_ablation () =
  let config = { Config.default with control_deps = false } in
  let r = analyze ~config control_src in
  Alcotest.(check int) "no control-only reports when disabled" 0 (count_control r)

let test_data_beats_control () =
  (* when the value itself is tainted, report Data (not control-only) *)
  let r =
    analyze
      (prelude
     ^ {|
int main() {
  initComm();
  double v = 0.0;
  if (nc->track > 0.5) { v = nc->control; } else { v = 1.0; }
  /*** SafeFlow Annotation assert(safe(v)) ***/
  sendControl(v);
  return 0;
}
|})
  in
  Alcotest.(check int) "data error" 1 (count_errors r)

(* -- Restrictions ----------------------------------------------------------------------- *)

let test_p2_store_of_shm_pointer () =
  let r =
    analyze
      (prelude
     ^ {|
struct Holder { SHMData *ptr; };
struct Holder h;
int main() { initComm(); h.ptr = nc; return 0; }
|})
  in
  Alcotest.(check bool) "P2 violation" true (List.length (rule_violations Report.P2 r) >= 1)

let test_p3_cast_to_int () =
  let r =
    analyze
      (prelude ^ {| int main() { initComm(); long addr = (long) nc; return (int) addr; } |})
  in
  Alcotest.(check bool) "P3 violation" true (List.length (rule_violations Report.P3 r) >= 1)

let test_p3_incompatible_cast () =
  let r =
    analyze
      (prelude
     ^ {|
struct Other { int a; int b; };
int main() { initComm(); struct Other *o = (struct Other *) nc; return o->a; }
|})
  in
  Alcotest.(check bool) "P3 violation" true (List.length (rule_violations Report.P3 r) >= 1)

let test_p1_dealloc_outside_main () =
  let r =
    analyze
      (prelude
     ^ {|
void cleanup() { shmdt((void *) 0); shmdt(nc); }
int main() { initComm(); cleanup(); return 0; }
|})
  in
  Alcotest.(check bool) "P1 violation" true (List.length (rule_violations Report.P1 r) >= 1)

let test_p1_ok_at_end_of_main () =
  let r =
    analyze
      (prelude
     ^ {| int main() { initComm(); double v = corefb->track; sendControl(v); shmdt(nc); return 0; } |})
  in
  Alcotest.(check int) "no P1 violation at end of main" 0
    (List.length (rule_violations Report.P1 r))

let test_p1_dealloc_then_use () =
  let r =
    analyze
      (prelude
     ^ {| int main() { initComm(); shmdt(nc); double v = corefb->track; sendControl(v); return 0; } |})
  in
  Alcotest.(check bool) "P1 violation when shm used after" true
    (List.length (rule_violations Report.P1 r) >= 1)

(* cast inside the init function is exempt *)
let test_init_function_exempt () =
  let r = analyze (prelude ^ "int main() { initComm(); return 0; }") in
  Alcotest.(check int) "no violations from initComm" 0 (count_violations r)

(* -- Array bounds (A1/A2) ------------------------------------------------------------------ *)

let array_prelude =
  {|
double *samples;
extern void sendControl(double v);

void initArr()
/*** SafeFlow Annotation shminit ***/
{
  void *base;
  int id;
  id = shmget(7100, 16 * sizeof(double), 438);
  base = shmat(id, (void *) 0, 0);
  samples = (double *) base;
  /*** SafeFlow Annotation assume(shmvar(samples, 16 * sizeof(double))) ***/
}
|}

let test_a1_in_bounds_loop () =
  let r =
    analyze
      (array_prelude
     ^ {|
int main() {
  initArr();
  double s = 0.0;
  for (int i = 0; i < 16; i++) { s = s + samples[i]; }
  sendControl(s);
  return 0;
}
|})
  in
  Alcotest.(check int) "no bounds violations" 0 (count_violations r)

let test_a1_off_by_one () =
  let r =
    analyze
      (array_prelude
     ^ {|
int main() {
  initArr();
  double s = 0.0;
  for (int i = 0; i <= 16; i++) { s = s + samples[i]; }
  sendControl(s);
  return 0;
}
|})
  in
  Alcotest.(check bool) "A1 violation" true (List.length (rule_violations Report.A1 r) >= 1)

let test_a1_constant_oob () =
  let r = analyze (array_prelude ^ "int main() { initArr(); return (int) samples[20]; }") in
  Alcotest.(check bool) "A1 violation for constant index" true
    (List.length (rule_violations Report.A1 r) >= 1)

let test_a1_negative_start () =
  let r =
    analyze
      (array_prelude
     ^ {|
int main() {
  initArr();
  double s = 0.0;
  for (int i = -1; i < 16; i++) { s = s + samples[i]; }
  sendControl(s);
  return 0;
}
|})
  in
  Alcotest.(check bool) "A1 violation for negative index" true
    (List.length (rule_violations Report.A1 r) >= 1)

let test_a2_affine_transform () =
  (* samples[2*i + 1] for i in [0,8): max index 15 — safe *)
  let r =
    analyze
      (array_prelude
     ^ {|
int main() {
  initArr();
  double s = 0.0;
  for (int i = 0; i < 8; i++) { s = s + samples[2 * i + 1]; }
  sendControl(s);
  return 0;
}
|})
  in
  Alcotest.(check int) "affine transform proven safe" 0 (count_violations r)

let test_a2_non_affine () =
  let r =
    analyze
      (array_prelude
     ^ {|
extern int mystery(int x);
int main() {
  initArr();
  int k = mystery(3);
  return (int) samples[k];
}
|})
  in
  Alcotest.(check bool) "A2 violation for unprovable index" true
    (List.length (rule_violations Report.A2 r) >= 1)

let test_a2_guarded_symbolic_index () =
  (* a branch guard makes the symbolic index provably safe *)
  let r =
    analyze
      (array_prelude
     ^ {|
extern int mystery(int x);
int main() {
  initArr();
  int k = mystery(3);
  if (k >= 0 && k < 16) {
    return (int) samples[k];
  }
  return 0;
}
|})
  in
  Alcotest.(check int) "guarded index proven safe" 0 (count_violations r)

(* -- Message passing (§3.4.3) ---------------------------------------------------------------- *)

let recv_src =
  {|
int cmdSocket;
extern long recv(int socket, double *buffer, long length, int flags);
extern void sendControl(double v);

void setupComm()
/*** SafeFlow Annotation shminit assume(noncore(cmdSocket)) ***/
{
  cmdSocket = 3;
}

int main() {
  setupComm();
  double buf[4];
  recv(cmdSocket, buf, 32, 0);
  double v = buf[0];
  /*** SafeFlow Annotation assert(safe(v)) ***/
  sendControl(v);
  return 0;
}
|}

let test_recv_taints_buffer () =
  let r = analyze recv_src in
  Alcotest.(check bool) "received data unsafe" true (count_errors r >= 1)

let test_recv_monitored_safe () =
  let r =
    analyze
      {|
int cmdSocket;
extern long recv(int socket, double *buffer, long length, int flags);
extern void sendControl(double v);

void setupComm()
/*** SafeFlow Annotation shminit assume(noncore(cmdSocket)) ***/
{
  cmdSocket = 3;
}

double monitorCmd(double *buffer)
/*** SafeFlow Annotation assume(core(buffer, 0, 32)) ***/
{
  double v = buffer[0];
  if (v > 1.0 || v < -1.0) { return 0.0; }
  return v;
}

int main() {
  setupComm();
  double buf[4];
  recv(cmdSocket, buf, 32, 0);
  double v = monitorCmd(buf);
  /*** SafeFlow Annotation assert(safe(v)) ***/
  sendControl(v);
  return 0;
}
|}
  in
  Alcotest.(check int) "monitored receive is safe" 0 (count_errors r)

(* -- InitCheck ------------------------------------------------------------------------------- *)

let test_initcheck_ok () =
  let a = full (prelude ^ "int main() { initComm(); return 0; }") in
  let d = Lazy.force a.Driver.detail in
  let layout = Shm.run_init_check d.Driver.prepared.Driver.ir d.Driver.shm in
  Alcotest.(check int) "two regions laid out" 2 (List.length layout);
  let offs = List.map (fun (_, o, _) -> o) layout in
  Alcotest.(check (list int)) "offsets" [ 0; 24 ] (List.sort compare offs)

let test_initcheck_overlap_detected () =
  (* sizes claim 2 full structs but the init lays them out overlapping *)
  let src =
    {|
struct SHMData { double control; double track; double angle; };
typedef struct SHMData SHMData;
SHMData *a;
SHMData *b;
void initBad()
/*** SafeFlow Annotation shminit ***/
{
  void *base;
  int id;
  id = shmget(7200, 2 * sizeof(SHMData), 438);
  base = shmat(id, (void *) 0, 0);
  a = (SHMData *) base;
  b = (SHMData *) ((char *) base + 8);
  /*** SafeFlow Annotation
       assume(shmvar(a, sizeof(SHMData)))
       assume(shmvar(b, sizeof(SHMData))) ***/
}
int main() { initBad(); return 0; }
|}
  in
  let a = full src in
  let d = Lazy.force a.Driver.detail in
  match Shm.run_init_check d.Driver.prepared.Driver.ir d.Driver.shm with
  | exception Shm.Init_check_failed msg ->
    Alcotest.(check bool) "overlap named" true (Astring.String.is_infix ~affix:"overlap" msg)
  | _ -> Alcotest.fail "expected InitCheck failure"

(* -- Figure 2 (the paper's running example) ---------------------------------------------------- *)

let test_figure2 () =
  let a = Driver.analyze_file "../../../systems/figure2.c" in
  let d = Lazy.force a.Driver.detail in
  let r = a.Driver.report in
  Alcotest.(check int) "two regions" 2 (List.length r.Report.regions);
  Alcotest.(check int) "four warnings (feedback reads)" 4 (count_warnings r);
  Alcotest.(check int) "one data error (output)" 1 (count_errors r);
  Alcotest.(check int) "no restriction violations" 0 (count_violations r);
  (* all warnings concern the feedback region *)
  List.iter
    (fun w -> Alcotest.(check string) "warned region" "feedback" w.Report.w_region)
    r.Report.warnings;
  (* InitCheck passes *)
  let layout = Shm.run_init_check d.Driver.prepared.Driver.ir d.Driver.shm in
  Alcotest.(check int) "layout entries" 2 (List.length layout)

let test_figure2_vfg_export () =
  let a = Driver.analyze_file "../../../systems/figure2.c" in
  let d = Lazy.force a.Driver.detail in
  let dot = Vfg.to_dot d.Driver.phase3 in
  Alcotest.(check bool) "dot mentions feedback" true
    (Astring.String.is_infix ~affix:"feedback" dot);
  Alcotest.(check bool) "digraph syntax" true
    (Astring.String.is_prefix ~affix:"digraph" dot)

(* -- Phase-2 symbol namespaces ------------------------------------------------------------------- *)

(* Regression: opaque values (globals, string literals, undef) used to be
   hashed into the "v<id>" vid namespace, where they could collide with a
   real vid — or with each other — and silently alias independent solver
   variables.  They now get fresh "u<n>" symbols, memoized per value, in
   a namespace disjoint from both vids ("v<id>") and parameters
   ("p_<name>"). *)
let test_phase2_unknown_symbols () =
  let a = full (prelude ^ {|
int main() { initComm(); return 0; }
|}) in
  let d = Lazy.force a.Driver.detail in
  let f =
    List.find
      (fun (f : Ssair.Ir.func) -> f.Ssair.Ir.fname = "main")
      d.Driver.prepared.Driver.ir.Ssair.Ir.funcs
  in
  let ctx = Phase2.mk_affine_ctx f in
  let sym v =
    match Omega.Linexpr.vars (Phase2.affine_of_value ctx v) with
    | [ s ] -> s
    | _ -> Alcotest.fail "opaque value not a single symbol"
  in
  let ga = sym (Ssair.Ir.Vglobal "ga") in
  let gb = sym (Ssair.Ir.Vglobal "gb") in
  let st = sym (Ssair.Ir.Vstr "ga") in
  let un = sym (Ssair.Ir.Vundef Minic.Ty.Int) in
  let syms = [ ga; gb; st; un ] in
  Alcotest.(check int) "distinct values, distinct symbols" 4
    (List.length (List.sort_uniq compare syms));
  List.iter
    (fun s ->
      Alcotest.(check bool) ("u-namespace: " ^ s) true
        (String.length s > 1 && s.[0] = 'u'
        && int_of_string_opt (String.sub s 1 (String.length s - 1)) <> None))
    syms;
  (* memoized: the same value resolves to the same symbol *)
  Alcotest.(check string) "same global, same symbol" ga (sym (Ssair.Ir.Vglobal "ga"));
  (* disjoint from the vid and parameter namespaces *)
  (match Omega.Linexpr.vars (Phase2.affine_of_value ctx (Ssair.Ir.Vparam "x")) with
  | [ p ] -> Alcotest.(check string) "parameter namespace" "p_x" p
  | _ -> Alcotest.fail "parameter not a single symbol");
  Alcotest.(check bool) "no overlap with v<id> symbols" true
    (List.for_all (fun s -> s.[0] <> 'v') syms)

(* -- Field sensitivity ablation ------------------------------------------------------------------ *)

let test_field_sensitivity_ablation () =
  let src =
    prelude
    ^ {|
double monitor(SHMData *p)
/*** SafeFlow Annotation assume(core(nc, 0, 8)) ***/
{
  return p->control;
}
int main() { initComm(); sendControl(monitor(nc)); return 0; }
|}
  in
  let precise = analyze src in
  Alcotest.(check int) "field-sensitive: covered read" 0 (count_warnings precise);
  let config = { Config.default with field_sensitive = false } in
  let coarse = analyze ~config src in
  (* without offsets the 8-byte assumption cannot cover a Top access *)
  Alcotest.(check bool) "field-insensitive warns more" true
    (count_warnings coarse >= count_warnings precise)

let () =
  Alcotest.run "safeflow"
    [ ( "regions",
        [ Alcotest.test_case "discovery" `Quick test_regions_discovered;
          Alcotest.test_case "annotation count" `Quick test_annotation_count ] );
      ( "warnings",
        [ Alcotest.test_case "unmonitored read" `Quick test_unmonitored_read_warns;
          Alcotest.test_case "core region safe" `Quick test_core_region_read_safe;
          Alcotest.test_case "monitored read safe" `Quick test_monitored_read_safe;
          Alcotest.test_case "partial range" `Quick test_partial_monitor_range;
          Alcotest.test_case "deduplication" `Quick test_warning_deduplication ] );
      ( "contexts",
        [ Alcotest.test_case "helper monitored via caller" `Quick test_context_sensitive_helper;
          Alcotest.test_case "context-insensitive ablation" `Quick
            test_context_insensitive_ablation ] );
      ( "sinks",
        [ Alcotest.test_case "kill pid" `Quick test_kill_sink;
          Alcotest.test_case "safe kill" `Quick test_safe_kill_no_error ] );
      ( "control-deps",
        [ Alcotest.test_case "control-only" `Quick test_control_only_dependency;
          Alcotest.test_case "ablation off" `Quick test_control_deps_ablation;
          Alcotest.test_case "data beats control" `Quick test_data_beats_control ] );
      ( "restrictions",
        [ Alcotest.test_case "P2 store" `Quick test_p2_store_of_shm_pointer;
          Alcotest.test_case "P3 int cast" `Quick test_p3_cast_to_int;
          Alcotest.test_case "P3 incompatible" `Quick test_p3_incompatible_cast;
          Alcotest.test_case "P1 outside main" `Quick test_p1_dealloc_outside_main;
          Alcotest.test_case "P1 end of main ok" `Quick test_p1_ok_at_end_of_main;
          Alcotest.test_case "P1 use after dealloc" `Quick test_p1_dealloc_then_use;
          Alcotest.test_case "init exempt" `Quick test_init_function_exempt ] );
      ( "arrays",
        [ Alcotest.test_case "in-bounds loop" `Quick test_a1_in_bounds_loop;
          Alcotest.test_case "off-by-one" `Quick test_a1_off_by_one;
          Alcotest.test_case "constant oob" `Quick test_a1_constant_oob;
          Alcotest.test_case "negative start" `Quick test_a1_negative_start;
          Alcotest.test_case "affine transform" `Quick test_a2_affine_transform;
          Alcotest.test_case "non-affine" `Quick test_a2_non_affine;
          Alcotest.test_case "guarded symbolic" `Quick test_a2_guarded_symbolic_index ] );
      ( "message-passing",
        [ Alcotest.test_case "recv taints" `Quick test_recv_taints_buffer;
          Alcotest.test_case "monitored recv" `Quick test_recv_monitored_safe ] );
      ( "initcheck",
        [ Alcotest.test_case "ok" `Quick test_initcheck_ok;
          Alcotest.test_case "overlap" `Quick test_initcheck_overlap_detected ] );
      ( "figure2",
        [ Alcotest.test_case "report" `Quick test_figure2;
          Alcotest.test_case "vfg export" `Quick test_figure2_vfg_export ] );
      ( "phase2 internals",
        [ Alcotest.test_case "unknown-symbol namespace" `Quick
            test_phase2_unknown_symbols ] );
      ( "ablations",
        [ Alcotest.test_case "field sensitivity" `Quick test_field_sensitivity_ablation ] ) ]
