(* Tests for the IR optimizer: folding behavior, SSA preservation,
   semantics preservation (differential against the interpreter) and
   SafeFlow-analysis stability under optimization. *)

open Minic

let compile src =
  Ssair.Build.lower (Typecheck.check_program (Parser.parse_string src))

let run_int ir =
  match Ssair.Interp.run ir with
  | Ssair.Interp.VInt n -> n
  | VFloat f -> Int64.of_float f
  | _ -> Alcotest.fail "expected integer result"

let instr_count f = List.length (Ssair.Ir.all_instrs f)
let block_count (f : Ssair.Ir.func) = List.length f.Ssair.Ir.blocks

(* -- folding behavior --------------------------------------------------------- *)

let test_constant_folding () =
  let ir = compile "int main() { return 2 + 3 * 4 - 1; }" in
  let n = Ssair.Opt.run ir in
  Alcotest.(check bool) "some rewrites" true (n > 0);
  let f = Option.get (Ssair.Index.func_opt (Ssair.Index.of_program ir) "main") in
  (* everything folds into a constant return *)
  Alcotest.(check int) "no instructions left" 0 (instr_count f);
  Alcotest.(check int64) "still 13" 13L (run_int ir)

let test_branch_folding () =
  let ir = compile "int main() { if (1 < 2) { return 10; } return 20; }" in
  ignore (Ssair.Opt.run ir);
  let f = Option.get (Ssair.Index.func_opt (Ssair.Index.of_program ir) "main") in
  Alcotest.(check int) "collapsed to one block" 1 (block_count f);
  Alcotest.(check int64) "result" 10L (run_int ir)

let test_switch_folding () =
  let ir =
    compile "int main() { switch (2) { case 1: return 100; case 2: return 200; \
             default: return 300; } }"
  in
  ignore (Ssair.Opt.run ir);
  let f = Option.get (Ssair.Index.func_opt (Ssair.Index.of_program ir) "main") in
  Alcotest.(check int) "one block" 1 (block_count f);
  Alcotest.(check int64) "result" 200L (run_int ir)

let test_dead_code_removed () =
  let ir = compile "int main(){ int unused = 5 * 7; int x = 2; return x + 1; }" in
  ignore (Ssair.Opt.run ir);
  let f = Option.get (Ssair.Index.func_opt (Ssair.Index.of_program ir) "main") in
  Alcotest.(check int) "all folded away" 0 (instr_count f)

let test_calls_not_removed () =
  let ir =
    compile
      "extern int effectful(void); int main() { effectful(); return 1; }"
  in
  ignore (Ssair.Opt.run ir);
  let f = Option.get (Ssair.Index.func_opt (Ssair.Index.of_program ir) "main") in
  let calls =
    List.filter
      (fun i -> match i.Ssair.Ir.idesc with Ssair.Ir.Call _ -> true | _ -> false)
      (Ssair.Ir.all_instrs f)
  in
  Alcotest.(check int) "call kept" 1 (List.length calls)

let test_annotations_kept () =
  let ir =
    compile
      "extern void sendControl(double v); \
       int main() { double v = 1.5; /*** SafeFlow Annotation assert(safe(v)) ***/ \
       sendControl(v); return 0; }"
  in
  ignore (Ssair.Opt.run ir);
  let f = Option.get (Ssair.Index.func_opt (Ssair.Index.of_program ir) "main") in
  let annots =
    List.filter
      (fun i -> match i.Ssair.Ir.idesc with Ssair.Ir.Annotation _ -> true | _ -> false)
      (Ssair.Ir.all_instrs f)
  in
  Alcotest.(check int) "annotation kept" 1 (List.length annots)

let test_ssa_preserved () =
  let ir =
    compile
      "int f(int n) { int s = 0; for (int i = 0; i < n; i++) { if (i % 2 == 0) { s += i; } } return s; } \
       int main() { return f(10); }"
  in
  ignore (Ssair.Opt.run ir);
  Alcotest.(check (list string)) "ssa verifies" []
    (List.map (fun v -> v.Ssair.Verify.vmsg) (Ssair.Verify.check_program ~ssa:true ir))

(* Branch folding used to keep the phi operand of the edge it removed, and
   block merging then added a second operand from the same predecessor. *)
let test_folded_edge_operand_dropped () =
  let src =
    "int main() { int x = 3; int y = 17; switch (((x + 10)) % 3) { case 0: y = (3 % (y + \
     7)); break; case 1: x = x + 1; default: y = y - 1; } return x * 31 + y; }"
  in
  let plain = compile src in
  let opt = compile src in
  ignore (Ssair.Opt.run opt);
  Alcotest.(check (list string)) "ssa verifies" []
    (List.map (fun v -> v.Ssair.Verify.vmsg) (Ssair.Verify.check_program ~ssa:true opt));
  Alcotest.(check int64) "same result" (run_int plain) (run_int opt)

(* The verifier rejects a phi with two operands from one predecessor. *)
let test_verify_repeated_predecessor () =
  let open Ssair.Ir in
  let phi = { pid = 1; pty = Ty.Int; incoming = [ (0, Vint (4L, Ty.Int)); (0, Vint (3L, Ty.Int)) ];
              pname = "x" } in
  let b0 = { bbid = 0; phis = []; instrs = []; termin = Br 1 } in
  let b1 = { bbid = 1; phis = [ phi ]; instrs = []; termin = Ret (Some (Vreg 1)) } in
  let f =
    { fname = "f"; fret = Ty.Int; fparams = []; blocks = [ b0; b1 ]; fentry = 0; fannot = [];
      floc = Loc.dummy }
  in
  Alcotest.(check bool) "rejected" true (Ssair.Verify.check_func ~ssa:true f <> [])

(* -- differential semantics ---------------------------------------------------- *)

let gen_prog =
  let open QCheck.Gen in
  let expr_leaf =
    oneof [ map (fun n -> string_of_int (abs n mod 50)) small_int; return "x"; return "y" ]
  in
  let expr =
    let* a = expr_leaf and* b = expr_leaf and* op = oneofl [ "+"; "-"; "*"; "%" ] in
    if op = "%" then return (Fmt.str "(%s %s (%s + 7))" a op b)
    else return (Fmt.str "(%s %s %s)" a op b)
  in
  let assign =
    let* v = oneofl [ "x"; "y" ] and* e = expr in
    return (Fmt.str "%s = %s;" v e)
  in
  let rec stmt n =
    if n <= 0 then assign
    else
      frequency
        [ (3, assign);
          ( 1,
            let* c = expr and* s1 = stmt (n / 2) and* s2 = stmt (n / 2) in
            return (Fmt.str "if (%s > 10) { %s } else { %s }" c s1 s2) );
          ( 1,
            let* s1 = stmt (n / 2) in
            return (Fmt.str "{ int k = 0; while (k < 4) { %s k++; } }" s1) );
          ( 1,
            let* c = expr and* s1 = stmt (n / 2) in
            return
              (Fmt.str "switch ((%s) %% 3) { case 0: %s break; case 1: x = x + 1; \
                        default: y = y - 1; }"
                 c s1) ) ]
  in
  let* body = stmt 6 in
  return (Fmt.str "int main() { int x = 3; int y = 17; %s return x * 31 + y; }" body)

let arb_prog = QCheck.make ~print:Fun.id gen_prog

let prop_opt_preserves_semantics =
  QCheck.Test.make ~name:"optimization preserves semantics" ~count:150 arb_prog
    (fun src ->
      let plain = compile src in
      let opt = compile src in
      ignore (Ssair.Opt.run opt);
      run_int plain = run_int opt)

let prop_opt_preserves_ssa =
  QCheck.Test.make ~name:"optimization preserves SSA invariants" ~count:100 arb_prog
    (fun src ->
      let opt = compile src in
      ignore (Ssair.Opt.run opt);
      Ssair.Verify.check_program ~ssa:true opt = [])

let prop_opt_idempotent_result =
  QCheck.Test.make ~name:"second optimization pass changes nothing" ~count:80 arb_prog
    (fun src ->
      let opt = compile src in
      ignore (Ssair.Opt.run opt);
      Ssair.Opt.run opt = 0)

let prop_build_matches_oracle =
  QCheck.Test.make ~name:"SSA lowering equals the mem2reg oracle" ~count:150 arb_prog
    (fun src ->
      match
        Mem2reg.diff_against_oracle (Typecheck.check_program (Parser.parse_string src))
      with
      | None -> true
      | Some d -> QCheck.Test.fail_reportf "differs from the oracle: %s" d)

(* -- analysis stability ---------------------------------------------------------- *)

let find_system name =
  let candidates =
    [ "../../../systems/" ^ name; "../../systems/" ^ name; "systems/" ^ name ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some p -> p
  | None -> Alcotest.fail ("cannot locate systems/" ^ name)

let analyze_with_opt path =
  (* replicate Driver.analyze but optimize the IR first *)
  let p = Safeflow.Driver.prepare_file path in
  ignore (Ssair.Opt.run p.Safeflow.Driver.ir);
  let shm = Safeflow.Driver.stage_shm p in
  let p1 = Safeflow.Driver.stage_phase1 p shm in
  let pts = Safeflow.Driver.stage_pointsto p in
  Safeflow.Driver.stage_phase3 p shm p1 pts

let test_analysis_stable_under_optimization () =
  List.iter
    (fun name ->
      let path = find_system name in
      let plain = (Safeflow.Driver.analyze_file path).Safeflow.Driver.report in
      let optimized = analyze_with_opt path in
      Alcotest.(check int) (name ^ ": warnings stable")
        (List.length plain.Safeflow.Report.warnings)
        (List.length optimized.Safeflow.Phase3.warnings);
      let data_deps l =
        List.filter (fun d -> d.Safeflow.Report.d_kind = Safeflow.Report.Data) l
      in
      Alcotest.(check int) (name ^ ": errors stable")
        (List.length (data_deps plain.Safeflow.Report.dependencies))
        (List.length (data_deps optimized.Safeflow.Phase3.dependencies)))
    [ "figure2.c"; "ip_controller.c"; "generic_simplex.c"; "double_ip.c"; "car_follow.c" ]

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "opt"
    [ ( "folding",
        [ Alcotest.test_case "constants" `Quick test_constant_folding;
          Alcotest.test_case "branches" `Quick test_branch_folding;
          Alcotest.test_case "switch" `Quick test_switch_folding;
          Alcotest.test_case "dead code" `Quick test_dead_code_removed;
          Alcotest.test_case "calls kept" `Quick test_calls_not_removed;
          Alcotest.test_case "annotations kept" `Quick test_annotations_kept;
          Alcotest.test_case "ssa preserved" `Quick test_ssa_preserved;
          Alcotest.test_case "folded edge operand dropped" `Quick
            test_folded_edge_operand_dropped;
          Alcotest.test_case "repeated predecessor rejected" `Quick
            test_verify_repeated_predecessor ] );
      ( "properties",
        [ qt prop_opt_preserves_semantics; qt prop_opt_preserves_ssa;
          qt prop_opt_idempotent_result; qt prop_build_matches_oracle ] );
      ( "analysis-stability",
        [ Alcotest.test_case "systems stable" `Quick
            test_analysis_stable_under_optimization ] ) ]
