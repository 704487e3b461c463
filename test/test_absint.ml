(* Value-range abstract interpretation (lib/absint): interval lattice
   laws, widening termination, branch refinement via dead-branch
   detection, the dense engine against the hash-table oracle
   (absint_oracle.ml), the precision-only guarantee on the five subject
   systems (absint-on findings are a fingerprint subset of absint-off),
   and the A1/A2 discharge evidence on generic_simplex. *)

open Safeflow
module Itv = Absint.Itv

let find_system name =
  let candidates =
    [ "../../../systems/" ^ name; "../../systems/" ^ name; "systems/" ^ name ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some p -> p
  | None -> Alcotest.fail ("cannot locate systems/" ^ name)

let itv = Alcotest.testable Itv.pp Itv.equal

(* -- interval lattice -------------------------------------------------- *)

(* a small but adversarial universe: Bot, points, finite ranges, and all
   half-open/overlapping shapes including the infinities *)
let universe =
  let bounds = [ Itv.MInf; Itv.Fin (-7); Itv.Fin 0; Itv.Fin 3; Itv.PInf ] in
  Itv.bot
  :: List.concat_map
       (fun lo ->
         List.filter_map
           (fun hi ->
             match (lo, hi) with
             | Itv.Fin a, Itv.Fin b when a > b -> None
             | Itv.PInf, _ | _, Itv.MInf -> None
             | _ -> Some (Itv.Iv (lo, hi)))
           bounds)
       bounds

let forall2 f = List.iter (fun a -> List.iter (fun b -> f a b) universe) universe

let test_lattice_laws () =
  List.iter
    (fun a ->
      Alcotest.check itv "join idempotent" a (Itv.join a a);
      Alcotest.check itv "meet idempotent" a (Itv.meet a a);
      Alcotest.(check bool) "leq reflexive" true (Itv.leq a a);
      Alcotest.(check bool) "bot below all" true (Itv.leq Itv.bot a);
      Alcotest.(check bool) "all below top" true (Itv.leq a Itv.top))
    universe;
  forall2 (fun a b ->
      Alcotest.check itv "join commutative" (Itv.join a b) (Itv.join b a);
      Alcotest.check itv "meet commutative" (Itv.meet a b) (Itv.meet b a);
      Alcotest.(check bool) "join is upper bound" true
        (Itv.leq a (Itv.join a b) && Itv.leq b (Itv.join a b));
      Alcotest.(check bool) "meet is lower bound" true
        (Itv.leq (Itv.meet a b) a && Itv.leq (Itv.meet a b) b);
      (* absorption ties join and meet into one lattice *)
      Alcotest.check itv "absorption" a (Itv.meet a (Itv.join a b));
      Alcotest.check itv "absorption'" a (Itv.join a (Itv.meet a b)))

let test_widen_narrow () =
  forall2 (fun a b ->
      let w = Itv.widen a b in
      Alcotest.(check bool) "widen covers join" true (Itv.leq (Itv.join a b) w);
      (* narrowing never goes below the stable value it refines *)
      Alcotest.(check bool) "narrow sound" true (Itv.leq (Itv.meet a b) (Itv.narrow a b)));
  (* widening terminates: any strictly ascending chain stabilizes after
     at most one jump per bound *)
  List.iter
    (fun start ->
      let x = ref start in
      let steps = ref 0 in
      let stable = ref false in
      while (not !stable) && !steps < 5 do
        let next = Itv.add !x (Itv.const 1) in
        let w = Itv.widen !x (Itv.join !x next) in
        if Itv.equal w !x then stable := true else x := w;
        incr steps
      done;
      Alcotest.(check bool) "ascending chain stabilizes" true !stable)
    universe

let test_arith () =
  Alcotest.check itv "add" (Itv.range 4 6) (Itv.add (Itv.range 1 2) (Itv.range 3 4));
  Alcotest.check itv "sub" (Itv.range (-4) 1) (Itv.sub (Itv.range 1 2) (Itv.range 1 5));
  Alcotest.check itv "mul signs" (Itv.range (-10) 10)
    (Itv.mul (Itv.range (-2) 2) (Itv.range (-5) 5));
  Alcotest.check itv "neg" (Itv.range (-2) 1) (Itv.neg (Itv.range (-1) 2));
  Alcotest.check itv "add bot" Itv.bot (Itv.add Itv.bot (Itv.const 1));
  Alcotest.(check bool) "within" true (Itv.within (Itv.range 0 5) ~lo:0 ~hi:6);
  Alcotest.(check bool) "not within" false (Itv.within (Itv.range 0 7) ~lo:0 ~hi:6);
  Alcotest.(check bool) "bot within anything" true (Itv.within Itv.bot ~lo:0 ~hi:0);
  Alcotest.(check bool) "excludes zero" true (Itv.excludes_zero (Itv.range 1 9));
  Alcotest.(check bool) "contains zero" false (Itv.excludes_zero (Itv.range (-1) 9))

(* -- fixpoint on real programs ----------------------------------------- *)

(* clamp pattern: m is clamped into [0,3]; the branch on m > 7 can never
   be taken, so its control dependence on the non-core mode value is a
   false positive that the ranges remove *)
let clamp_src =
  {|
struct SHMData { int mode; int cmd; };
typedef struct SHMData SHMData;
SHMData *modeShm;
int shmLock;
extern void sendControl(int out);
void initComm()
/*** SafeFlow Annotation shminit ***/
{
  int shmid;
  void *shmStart;
  shmid = shmget(9000, sizeof(SHMData), 438);
  shmStart = shmat(shmid, (void *) 0, 0);
  modeShm = (SHMData *) shmStart;
  InitCheck(shmStart, sizeof(SHMData));
  /*** SafeFlow Annotation
       assume(shmvar(modeShm, sizeof(SHMData)))
       assume(noncore(modeShm)) ***/
}
int main()
{
  int m;
  int out;
  initComm();
  m = modeShm->mode;
  if (m < 0) { m = 0; }
  if (m > 3) { m = 3; }
  out = 1;
  if (m > 7) { out = 2; }
  /*** SafeFlow Annotation assert(safe(out)) ***/
  sendControl(out);
  return 0;
}
|}

let test_widening_terminates_on_loop () =
  (* unbounded counter loop: only widening makes the fixpoint finite *)
  let src =
    {|
int spin(int n)
{
  int i;
  int acc;
  acc = 0;
  i = 0;
  while (i < n) {
    acc = acc + 2;
    i = i + 1;
  }
  return acc;
}
int main() { return spin(50); }
|}
  in
  let p = Driver.prepare_source ~file:"loop.c" src in
  let ai = Absint.analyze p.Driver.ir in
  Alcotest.(check bool) "fixpoint ran" true (Absint.iterations ai > 0);
  Alcotest.(check bool) "widening fired" true (Absint.widenings ai > 0);
  (* the pass budget in run_function is 100 ascending iterations; a
     terminating analysis stays far under it even with two functions *)
  Alcotest.(check bool) "iterations bounded" true (Absint.iterations ai < 200)

let test_branch_refinement_kills_branch () =
  let p = Driver.prepare_source ~file:"clamp.c" clamp_src in
  let ai = Absint.analyze p.Driver.ir in
  let main =
    List.find (fun f -> f.Ssair.Ir.fname = "main") p.Driver.ir.Ssair.Ir.funcs
  in
  (* after the two clamps, m is in [0,3]: the m > 7 branch has a decided
     (always false) condition, so exactly its then-arm is dead *)
  let dead =
    List.filter_map
      (fun b -> Absint.dead_branch ai ~fname:"main" ~bid:b.Ssair.Ir.bbid)
      main.Ssair.Ir.blocks
  in
  Alcotest.(check bool) "a decided branch exists" true (dead <> []);
  Alcotest.(check bool) "its then arm is dead" true
    (List.exists (fun d -> d = Absint.Dead_then) dead)

(* -- report-level guarantees ------------------------------------------- *)

let analyze_with ~absint ?file src =
  let config = { Config.default with Config.absint } in
  Driver.analyze ~config ?file src

let fingerprints (a : Driver.analysis) =
  let ctx = a.Driver.fingerprints in
  List.sort_uniq compare (List.map fst (Fingerprint.of_report ctx a.Driver.report))

let test_clamp_control_dep_pruned () =
  let off = analyze_with ~absint:false ~file:"clamp.c" clamp_src in
  let on = analyze_with ~absint:true ~file:"clamp.c" clamp_src in
  Alcotest.(check int) "control dep reported without ranges" 1
    (List.length (Report.control_deps off.Driver.report));
  Alcotest.(check int) "control dep pruned with ranges" 0
    (List.length (Report.control_deps on.Driver.report));
  (* the data-flow warning on the unchecked mode read must survive:
     pruning is restricted to control dependences *)
  Alcotest.(check int) "warnings unchanged"
    (List.length off.Driver.report.Report.warnings)
    (List.length on.Driver.report.Report.warnings)

let all_systems =
  [ "figure2.c"; "ip_controller.c"; "double_ip.c"; "car_follow.c";
    "generic_simplex.c" ]

let test_systems_fingerprint_subset () =
  List.iter
    (fun name ->
      let src =
        let ic = open_in_bin (find_system name) in
        let s = really_input_string ic (in_channel_length ic) in
        close_in ic;
        s
      in
      let off = analyze_with ~absint:false ~file:name src in
      let on = analyze_with ~absint:true ~file:name src in
      let fps_on = fingerprints on and fps_off = fingerprints off in
      Alcotest.(check bool)
        (name ^ ": on-findings are a subset of off-findings")
        true
        (List.for_all (fun fp -> List.mem fp fps_off) fps_on))
    all_systems

(* The exact A1/A2 discharge split on generic_simplex, with the range
   analysis on and off: on, ranges alone discharge all three obligations
   and skip six Omega queries; off, Omega discharges all three. *)
let test_generic_simplex_discharges () =
  let path = find_system "generic_simplex.c" in
  let split absint =
    let config = { Config.default with Config.absint } in
    let b = (Driver.analyze_file ~config path).Driver.coverage.Coverage.cov_bounds in
    [ b.Phase2.bs_total; b.Phase2.bs_ranges; b.Phase2.bs_omega; b.Phase2.bs_failed;
      b.Phase2.bs_omega_avoided ]
  in
  let fields = "total, ranges, Omega, failed, avoided" in
  Alcotest.(check (list int)) ("absint on: " ^ fields) [ 3; 3; 0; 0; 6 ] (split true);
  Alcotest.(check (list int)) ("absint off: " ^ fields) [ 3; 0; 3; 0; 0 ] (split false)

(* -- one fixpoint per distinct input -------------------------------------- *)

(* Analyze [ir] under a memo that counts its calls per function and the
   distinct (function, inputs digest) pairs it was asked for. *)
let count_fixpoints (ir : Ssair.Ir.program) =
  let calls = Hashtbl.create 64 and inputs = Hashtbl.create 64 in
  let memo ~fname ~inputs_digest compute =
    Hashtbl.replace calls fname (1 + Option.value ~default:0 (Hashtbl.find_opt calls fname));
    Hashtbl.replace inputs (fname, Lazy.force inputs_digest) ();
    compute ()
  in
  ignore (Absint.analyze ~memo ir);
  (calls, Hashtbl.length inputs)

let test_synth_one_fixpoint_per_function () =
  let p = Driver.prepare_source ~file:"synth32.c" (Synth.of_size 32) in
  let calls, _ = count_fixpoints p.Driver.ir in
  Alcotest.(check int) "every function analyzed"
    (List.length p.Driver.ir.Ssair.Ir.funcs) (Hashtbl.length calls);
  Hashtbl.iter (fun fname n -> Alcotest.(check int) (fname ^ ": fixpoints") 1 n) calls

let test_systems_one_fixpoint_per_input () =
  List.iter
    (fun name ->
      let p = Driver.prepare_file (find_system name) in
      let calls, distinct = count_fixpoints p.Driver.ir in
      Alcotest.(check int) (name ^ ": fixpoints = distinct inputs") distinct
        (Hashtbl.fold (fun _ n acc -> acc + n) calls 0))
    all_systems

(* -- the dense engine against the oracle --------------------------------- *)

let pp_view ppf (v : Absint.summary_view) =
  Fmt.pf ppf "%s: params [%a] ret %a raw %a env [%a]" v.Absint.sv_func
    Fmt.(list ~sep:semi (pair ~sep:sp string Itv.pp))
    v.Absint.sv_params Itv.pp v.Absint.sv_ret Itv.pp v.Absint.sv_ret_raw
    Fmt.(list ~sep:semi (pair ~sep:(any "=") int Itv.pp))
    v.Absint.sv_env

(* The first disagreement between the library and the oracle on [ir], if
   any: per function the summary view, the decided branch of every
   block, and the range of every SSA value and parameter at every
   block. *)
let oracle_diff (ir : Ssair.Ir.program) : string option =
  let lib = Absint.analyze ir and ora = Absint_oracle.analyze ir in
  let views_l = Absint.summary_views lib and views_o = Absint_oracle.summary_views ora in
  let exception Diff of string in
  let differ fmt = Fmt.kstr (fun m -> raise (Diff m)) fmt in
  try
    if List.length views_l <> List.length views_o then
      differ "%d summaries against %d" (List.length views_l) (List.length views_o);
    List.iter2
      (fun l o -> if l <> o then differ "summary@.  library %a@.  oracle  %a" pp_view l pp_view o)
      views_l views_o;
    if Absint.iterations lib > Absint_oracle.iterations ora then
      differ "%d passes against the oracle's %d" (Absint.iterations lib)
        (Absint_oracle.iterations ora);
    List.iter
      (fun (f : Ssair.Ir.func) ->
        let fname = f.Ssair.Ir.fname in
        let ql = Absint.query_ctx lib f and qo = Absint_oracle.query_ctx ora f in
        let values =
          List.map (fun (p, _) -> Ssair.Ir.Vparam p) f.Ssair.Ir.fparams
          @ List.map (fun (p : Ssair.Ir.phi) -> Ssair.Ir.Vreg p.Ssair.Ir.pid) (Ssair.Ir.all_phis f)
          @ List.filter_map
              (fun (i : Ssair.Ir.instr) ->
                if Ssair.Ir.defines i then Some (Ssair.Ir.Vreg i.Ssair.Ir.iid) else None)
              (Ssair.Ir.all_instrs f)
        in
        List.iter
          (fun (b : Ssair.Ir.block) ->
            let bid = b.Ssair.Ir.bbid in
            if Absint.dead_branch lib ~fname ~bid <> Absint_oracle.dead_branch ora ~fname ~bid then
              differ "%s b%d: decided branch" fname bid;
            List.iter
              (fun v ->
                let l = Absint.range_of_value ql ~at:bid v
                and o = Absint_oracle.range_of_value qo ~at:bid v in
                if not (Itv.equal l o) then
                  differ "%s b%d %a: %a against %a" fname bid Ssair.Ir.pp_value v Itv.pp l Itv.pp o)
              values)
          f.Ssair.Ir.blocks)
      ir.Ssair.Ir.funcs;
    None
  with Diff m -> Some m

let check_oracle name ir =
  match oracle_diff ir with None -> () | Some d -> Alcotest.failf "%s: %s" name d

let test_oracle_systems () =
  List.iter (fun name -> check_oracle name (Driver.prepare_file (find_system name)).Driver.ir)
    all_systems

let test_oracle_synth () =
  List.iter
    (fun seed ->
      let p = Driver.prepare_source ~file:"synth32.c" (Synth.of_size ~seed 32) in
      check_oracle (Fmt.str "synth seed %d" seed) p.Driver.ir)
    [ 1; 2; 3 ]

(* the random body twice: as main's, and as a callee's over its
   parameters, so call sites feed argument and return ranges *)
let wrap_with_callee (p : Sprog.t) =
  Fmt.str
    "int step(int x, int y) { %s return x * 31 + y; }\n\
     int main() { int x = 3; int y = 17; %s return step(x, y) + step(y, 4); }"
    p.Sprog.body p.Sprog.body

let prop_oracle_random =
  QCheck.Test.make ~name:"random programs agree with the oracle" ~count:100 Sprog.arbitrary
    (fun p ->
      let ir = (Driver.prepare_source ~file:"random.c" (wrap_with_callee p)).Driver.ir in
      match oracle_diff ir with
      | None -> true
      | Some d -> QCheck.Test.fail_reportf "differs from the oracle: %s" d)

(* -- phase 2 builds a range query context only for an obligation -------- *)

let query_ctxs src ~file =
  let c = Telemetry.counter "absint.query_ctx" in
  let was = Telemetry.enabled () in
  Telemetry.set_enabled true;
  let before = Telemetry.value c in
  Fun.protect
    ~finally:(fun () -> Telemetry.set_enabled was)
    (fun () -> ignore (Driver.analyze ~file src));
  Telemetry.value c - before

let test_query_ctx_on_demand () =
  Alcotest.(check int) "synth 32: no symbolic shared index, no context" 0
    (query_ctxs ~file:"synth32.c" (Synth.of_size ~seed:1 32));
  let path = find_system "generic_simplex.c" in
  Alcotest.(check bool) "generic_simplex: one per function with an obligation" true
    (query_ctxs ~file:path (Minic.Loc.read_source path) >= 1)

let () =
  Alcotest.run "absint"
    [ ( "interval lattice",
        [ Alcotest.test_case "lattice laws" `Quick test_lattice_laws;
          Alcotest.test_case "widen/narrow" `Quick test_widen_narrow;
          Alcotest.test_case "arithmetic" `Quick test_arith ] );
      ( "fixpoint",
        [ Alcotest.test_case "widening terminates on counter loop" `Quick
            test_widening_terminates_on_loop;
          Alcotest.test_case "branch refinement decides clamp guard" `Quick
            test_branch_refinement_kills_branch;
          Alcotest.test_case "synth 32: one fixpoint per function" `Quick
            test_synth_one_fixpoint_per_function;
          Alcotest.test_case "five systems: one fixpoint per distinct input" `Quick
            test_systems_one_fixpoint_per_input;
          Alcotest.test_case "phase 2 builds query contexts on demand" `Quick
            test_query_ctx_on_demand ] );
      ( "oracle",
        [ Alcotest.test_case "five systems" `Quick test_oracle_systems;
          Alcotest.test_case "synth seeds 1-3" `Quick test_oracle_synth;
          QCheck_alcotest.to_alcotest prop_oracle_random ] );
      ( "reports",
        [ Alcotest.test_case "clamp control dep pruned" `Quick
            test_clamp_control_dep_pruned;
          Alcotest.test_case "five systems: on ⊆ off fingerprints" `Slow
            test_systems_fingerprint_subset;
          Alcotest.test_case "generic_simplex discharges via ranges" `Quick
            test_generic_simplex_discharges ] ) ]
