(* Tests for the SSA IR: lowering, dominators, SSA construction against
   the mem2reg oracle, the verifier, the control-dependence graph, and the
   reference interpreter (differential memory-form/SSA execution). *)

open Minic

let tast_of src = Typecheck.check_program (Parser.parse_string ~file:"<test>" src)

(* memory form: every local in a stack slot *)
let compile src = Ssair.Build.lower_memory (tast_of src)

let compile_ssa src = Ssair.Build.lower (tast_of src)

let run_int ?entry src =
  match Ssair.Interp.run ?entry src with
  | Ssair.Interp.VInt n -> n
  | VFloat f -> Int64.of_float f
  | _ -> Alcotest.fail "expected integer result"

let run_src ?entry src = run_int ?entry (compile_ssa src)

(* run a program in memory form and in SSA form; results must agree *)
let differential src expected =
  let pre_result = run_int (compile src) in
  let post_result = run_int (compile_ssa src) in
  Alcotest.(check int64) "pre-SSA result" expected pre_result;
  Alcotest.(check int64) "post-SSA result" expected post_result

let no_violations ?ssa ir =
  match Ssair.Verify.check_program ?ssa ir with
  | [] -> ()
  | vs ->
    Alcotest.fail
      (Fmt.str "verifier violations: %a" Fmt.(list ~sep:sp Ssair.Verify.pp_violation) vs)

(* -- Lowering shape ------------------------------------------------------- *)

let test_lower_simple () =
  let ir = compile "int add(int a, int b) { return a + b; }" in
  no_violations ir;
  let f = Option.get (Ssair.Ir.func_index ir "add") in
  Alcotest.(check int) "one block" 1 (List.length f.blocks)

let test_lower_if_blocks () =
  let ir = compile "int f(int x) { if (x > 0) { return 1; } return 0; }" in
  no_violations ir;
  let f = Option.get (Ssair.Ir.func_index ir "f") in
  Alcotest.(check bool) "several blocks" true (List.length f.blocks >= 3)

let test_lower_annotations_kept () =
  let src =
    "float dec(float x)\n/*** SafeFlow Annotation assume(core(g, 0, 8)) ***/\n{ return x; }\n\
     double *g;"
  in
  let ir = compile src in
  let f = Option.get (Ssair.Ir.func_index ir "dec") in
  let annots =
    List.filter
      (fun i -> match i.Ssair.Ir.idesc with Ssair.Ir.Annotation _ -> true | _ -> false)
      (Ssair.Ir.all_instrs f)
  in
  Alcotest.(check int) "annotation instr" 1 (List.length annots)

let test_lower_switch () =
  let ir =
    compile
      "int f(int m) { int r = 0; switch (m) { case 1: r = 10; break; case 2: r = 20; \
       default: r = r + 1; } return r; }"
  in
  no_violations ir;
  let f = Option.get (Ssair.Ir.func_index ir "f") in
  let has_switch =
    List.exists
      (fun b -> match b.Ssair.Ir.termin with Ssair.Ir.Switch _ -> true | _ -> false)
      f.blocks
  in
  Alcotest.(check bool) "switch terminator" true has_switch

let test_lower_pointer_gep () =
  let ir = compile "int f(int *p, int i) { return p[i]; }" in
  let f = Option.get (Ssair.Ir.func_index ir "f") in
  let has_gep =
    List.exists
      (fun i -> match i.Ssair.Ir.idesc with Ssair.Ir.Gep _ -> true | _ -> false)
      (Ssair.Ir.all_instrs f)
  in
  Alcotest.(check bool) "gep emitted" true has_gep

(* -- Dominators ------------------------------------------------------------ *)

let diamond_src =
  "int f(int x) { int r; if (x > 0) { r = 1; } else { r = 2; } return r; }"

let test_dom_diamond () =
  let ir = compile diamond_src in
  let f = Option.get (Ssair.Ir.func_index ir "f") in
  let t = Ssair.Dom.compute f in
  (* entry dominates everything *)
  List.iter
    (fun b ->
      Alcotest.(check bool)
        (Fmt.str "entry dominates b%d" b.Ssair.Ir.bbid)
        true
        (Ssair.Dom.dominates t f.fentry b.Ssair.Ir.bbid))
    f.blocks;
  (* the join block is not dominated by either branch *)
  let preds = Ssair.Ir.predecessors f in
  let join =
    List.find
      (fun b ->
        List.length (Option.value ~default:[] (Hashtbl.find_opt preds b.Ssair.Ir.bbid)) = 2)
      f.blocks
  in
  let branches = Hashtbl.find preds join.bbid in
  List.iter
    (fun br ->
      Alcotest.(check bool) "branch does not dominate join" false
        (Ssair.Dom.dominates t br join.bbid))
    branches

let test_dom_frontier_diamond () =
  let ir = compile diamond_src in
  let f = Option.get (Ssair.Ir.func_index ir "f") in
  let t = Ssair.Dom.compute f in
  let df = Mem2reg.frontiers f t in
  let preds = Ssair.Ir.predecessors f in
  let join =
    List.find
      (fun b ->
        List.length (Option.value ~default:[] (Hashtbl.find_opt preds b.Ssair.Ir.bbid)) = 2)
      f.blocks
  in
  let branches = Hashtbl.find preds join.bbid in
  List.iter
    (fun br ->
      let frontier = Option.value ~default:[] (Hashtbl.find_opt df br) in
      Alcotest.(check bool)
        (Fmt.str "DF(b%d) contains join" br)
        true
        (List.mem join.bbid frontier))
    branches

let test_dom_loop_header () =
  let ir = compile "int f(int n) { int s = 0; while (n > 0) { s += n; n--; } return s; }" in
  let f = Option.get (Ssair.Ir.func_index ir "f") in
  let t = Ssair.Dom.compute f in
  (* every block reachable: the dom tree covers all blocks *)
  List.iter
    (fun b ->
      if b.Ssair.Ir.bbid <> f.fentry then
        Alcotest.(check bool)
          (Fmt.str "b%d has idom" b.Ssair.Ir.bbid)
          true
          (Ssair.Dom.idom t b.Ssair.Ir.bbid <> None))
    f.blocks

(* -- SSA construction ------------------------------------------------------- *)

let test_ssa_verifies () =
  let ir = compile_ssa diamond_src in
  no_violations ~ssa:true ir

(* A hand-broken function: a phi, an instruction and the terminator each
   use an undefined value.  The verifier names every user in its message
   (formatted only once a violation is found). *)
let test_verify_undefined_operands () =
  let open Ssair.Ir in
  let add =
    { iid = 1; ity = Ty.Int; iloc = Loc.dummy;
      idesc = Binop { op = Ast.Add; bty = Ty.Int; lhs = Vreg 7; rhs = Vint (1L, Ty.Int) } }
  in
  let phi = { pid = 2; pty = Ty.Int; incoming = [ (0, Vreg 8) ]; pname = "x" } in
  let b = { bbid = 0; phis = [ phi ]; instrs = [ add ]; termin = Ret (Some (Vreg 9)) } in
  let f =
    { fname = "broken"; fret = Ty.Int; fparams = []; blocks = [ b ]; fentry = 0;
      fannot = []; floc = Loc.dummy }
  in
  Alcotest.(check (list string)) "violations"
    [ "[broken] phi %2: use of undefined %8";
      "[broken] instr %1: use of undefined %7";
      "[broken] term of b0: use of undefined %9" ]
    (List.map (Fmt.str "%a" Ssair.Verify.pp_violation) (Ssair.Verify.check_func f))

let test_ssa_phi_inserted () =
  let ir = compile_ssa diamond_src in
  let f = Option.get (Ssair.Ir.func_index ir "f") in
  Alcotest.(check bool) "phi exists" true (List.length (Ssair.Ir.all_phis f) >= 1)

let test_ssa_no_scalar_allocas () =
  let ir = compile_ssa diamond_src in
  let f = Option.get (Ssair.Ir.func_index ir "f") in
  let scalar_allocas =
    List.filter
      (fun i ->
        match i.Ssair.Ir.idesc with
        | Ssair.Ir.Alloca { aty; _ } -> Ty.is_scalar aty
        | _ -> false)
      (Ssair.Ir.all_instrs f)
  in
  Alcotest.(check int) "no scalar allocas left" 0 (List.length scalar_allocas)

let test_ssa_address_taken_not_promoted () =
  let ir = compile_ssa "int f() { int x = 1; int *p = &x; *p = 5; return x; }" in
  let f = Option.get (Ssair.Ir.func_index ir "f") in
  let allocas =
    List.filter
      (fun i -> match i.Ssair.Ir.idesc with Ssair.Ir.Alloca _ -> true | _ -> false)
      (Ssair.Ir.all_instrs f)
  in
  (* x must stay in memory (address taken); p is promotable *)
  Alcotest.(check int) "x not promoted" 1 (List.length allocas);
  no_violations ~ssa:true ir

let test_ssa_loop_phi () =
  let ir = compile_ssa "int f(int n) { int s = 0; int i = 0; while (i < n) { s += i; i++; } return s; }" in
  no_violations ~ssa:true ir;
  let f = Option.get (Ssair.Ir.func_index ir "f") in
  Alcotest.(check bool) "loop phis" true (List.length (Ssair.Ir.all_phis f) >= 2)

(* -- Interpreter (differential) -------------------------------------------- *)

let test_interp_arith () = differential "int main() { return 2 + 3 * 4; }" 14L

let test_interp_branch () =
  differential "int main() { int x = 7; if (x > 3) { return 1; } else { return 2; } }" 1L

let test_interp_loop () =
  differential
    "int main() { int s = 0; for (int i = 1; i <= 10; i++) { s += i; } return s; }" 55L

let test_interp_factorial () =
  differential
    "int fact(int n) { if (n <= 1) { return 1; } return n * fact(n - 1); } \
     int main() { return fact(6); }"
    720L

let test_interp_gcd () =
  differential
    "int gcd(int a, int b) { while (b != 0) { int t = a % b; a = b; b = t; } return a; } \
     int main() { return gcd(1071, 462); }"
    21L

let test_interp_pointers () =
  differential
    "void swap(int *a, int *b) { int t = *a; *a = *b; *b = t; } \
     int main() { int x = 3; int y = 9; swap(&x, &y); return x * 100 + y; }"
    903L

let test_interp_array () =
  differential
    "int main() { int a[5]; for (int i = 0; i < 5; i++) { a[i] = i * i; } \
     int s = 0; for (int i = 0; i < 5; i++) { s += a[i]; } return s; }"
    30L

let test_interp_struct () =
  differential
    "struct P { int x; int y; }; \
     int main() { struct P p; p.x = 11; p.y = 31; return p.x + p.y; }"
    42L

let test_interp_struct_copy () =
  differential
    "struct P { int x; int y; }; \
     int main() { struct P a; a.x = 5; a.y = 6; struct P b; b = a; a.x = 0; return b.x * 10 + b.y; }"
    56L

let test_interp_global () =
  differential
    "int counter = 10; void bump() { counter += 5; } \
     int main() { bump(); bump(); return counter; }"
    20L

let test_interp_shortcircuit () =
  (* the right operand must not run when the left decides *)
  differential
    "int hits = 0; int probe() { hits = hits + 1; return 1; } \
     int main() { int a = 0; if (a && probe()) { } if (1 || probe()) { } return hits; }"
    0L

let test_interp_ternary () =
  differential "int main() { int x = 4; return x > 2 ? 100 : 200; }" 100L

let test_interp_switch () =
  differential
    "int classify(int m) { switch (m) { case 0: return 1; case 1: case 2: return 5; \
     default: return 9; } } \
     int main() { return classify(0) * 100 + classify(2) * 10 + classify(7); }"
    159L

let test_interp_switch_fallthrough () =
  differential
    "int main() { int r = 0; switch (2) { case 2: r += 1; case 3: r += 10; break; \
     case 4: r += 100; } return r; }"
    11L

let test_interp_double () =
  let r = run_src "int main() { double x = 1.5; double y = 2.25; double z = x * y; \
                   if (z == 3.375) { return 1; } return 0; }" in
  Alcotest.(check int64) "double arithmetic" 1L r

let test_interp_float_single () =
  (* float truncates to single precision through memory *)
  let r = run_src
      "int main() { float f = 0.1f; double d = f; if (d != 0.1) { return 1; } return 0; }"
  in
  Alcotest.(check int64) "single-precision rounding observable" 1L r

let test_interp_char_wrap () =
  differential "int main() { char c = 200; return c; }" (Int64.of_int (200 - 256))

let test_interp_global_init () =
  differential
    "double K[3] = { 1.5, 2.5, 3.0 }; int scale = 4; \
     int main() { double s = 0.0; for (int i = 0; i < 3; i++) { s += K[i]; } \
     return (int) s * scale; }"
    28L

let test_interp_string () =
  let r = run_src
      "int main() { char *s = \"AB\"; if (s[0] == 'A' && s[1] == 'B' && s[2] == 0) { return 7; } return 0; }"
  in
  Alcotest.(check int64) "string literal" 7L r

let test_interp_oob_trap () =
  let ir = compile_ssa "int main() { int a[3]; return a[10]; }" in
  match Ssair.Interp.run ir with
  | exception Ssair.Interp.Trap _ -> ()
  | _ -> Alcotest.fail "expected out-of-bounds trap"

let test_interp_div_zero_trap () =
  let ir = compile_ssa "int main() { int z = 0; return 5 / z; }" in
  match Ssair.Interp.run ir with
  | exception Ssair.Interp.Trap _ -> ()
  | _ -> Alcotest.fail "expected division trap"

let test_interp_fuel () =
  let ir = compile_ssa "int main() { while (1) { } return 0; }" in
  match Ssair.Interp.run ~max_steps:1000 ir with
  | exception Ssair.Interp.Trap msg ->
    Alcotest.(check bool) "fuel message" true (Astring.String.is_infix ~affix:"fuel" msg)
  | _ -> Alcotest.fail "expected fuel trap"

let test_interp_extern_handler () =
  let ir =
    compile_ssa
      "extern int sensor_read(int); int main() { return sensor_read(3) + 1; }"
  in
  let handler _st name args =
    match (name, args) with
    | "sensor_read", [ Ssair.Interp.VInt n ] -> Ssair.Interp.VInt (Int64.mul n 10L)
    | _ -> Ssair.Interp.trap "unexpected extern %s" name
  in
  match Ssair.Interp.run ~extern_handler:handler ir with
  | Ssair.Interp.VInt 31L -> ()
  | _ -> Alcotest.fail "extern handler result"

(* but calling an *undeclared* function should be a type error at the
   frontend — keep that behaviour pinned here *)
let test_interp_undeclared_call_rejected () =
  match compile_ssa "int main() { return mystery(); }" with
  | exception Loc.Error (_, _) -> ()
  | _ -> Alcotest.fail "undeclared call must be rejected"

(* -- Control dependence graph ----------------------------------------------- *)

let test_cdg_if () =
  let ir = compile_ssa diamond_src in
  let f = Option.get (Ssair.Ir.func_index ir "f") in
  let cdg = Ssair.Cdg.compute f in
  (* the entry block (holding the condition) controls both branch blocks *)
  let controlled =
    Option.value ~default:[]
      (Hashtbl.find_opt (Lazy.force cdg.Ssair.Cdg.controls) f.fentry)
  in
  Alcotest.(check bool) "entry controls branches" true (List.length controlled >= 2)

let test_cdg_straightline () =
  let ir = compile_ssa "int f() { int a = 1; int b = 2; return a + b; }" in
  let f = Option.get (Ssair.Ir.func_index ir "f") in
  let cdg = Ssair.Cdg.compute f in
  List.iter
    (fun b ->
      Alcotest.(check (list int))
        (Fmt.str "b%d has no control deps" b.Ssair.Ir.bbid)
        []
        (Ssair.Cdg.deps_of cdg b.Ssair.Ir.bbid))
    f.blocks

let test_cdg_loop_self () =
  let ir = compile_ssa "int f(int n) { int s = 0; while (n > 0) { s++; n--; } return s; }" in
  let f = Option.get (Ssair.Ir.func_index ir "f") in
  let cdg = Ssair.Cdg.compute f in
  (* loop body is control-dependent on the header *)
  let dependent_blocks =
    List.filter (fun b -> Ssair.Cdg.deps_of cdg b.Ssair.Ir.bbid <> []) f.blocks
  in
  Alcotest.(check bool) "some blocks control-dependent" true (dependent_blocks <> [])

let test_cdg_infinite_loop_tolerated () =
  let ir = compile_ssa "void f() { while (1) { } }" in
  let f = Option.get (Ssair.Ir.func_index ir "f") in
  let _ = Ssair.Cdg.compute f in
  ()

(* -- Property tests ----------------------------------------------------------- *)

(* random structured programs (Sprog): lower → mem2reg → verifier passes
   and the interpreted result matches the pre-SSA interpretation *)
let arb_sprog = Sprog.arbitrary

let wrap_prog = Sprog.wrap_main

let prop_random_programs_verify =
  QCheck.Test.make ~name:"random programs: SSA verifies" ~count:120 arb_sprog (fun p ->
      let src = wrap_prog p in
      let ir = compile_ssa src in
      Ssair.Verify.check_program ~ssa:true ir = [])

let prop_mem2reg_preserves_semantics =
  QCheck.Test.make ~name:"mem2reg preserves semantics" ~count:120 arb_sprog (fun p ->
      let src = wrap_prog p in
      let pre = compile src in
      let post = compile src in
      ignore (Mem2reg.run post);
      run_int pre = run_int post)

let prop_build_preserves_semantics =
  QCheck.Test.make ~name:"SSA lowering preserves semantics" ~count:120 arb_sprog (fun p ->
      let src = wrap_prog p in
      run_int (compile src) = run_int (compile_ssa src))

(* -- Build's SSA against the mem2reg oracle ---------------------------------- *)

let agrees_with_oracle tast =
  match Mem2reg.diff_against_oracle tast with
  | None -> true
  | Some d -> QCheck.Test.fail_reportf "differs from the oracle: %s" d

let prop_oracle_random =
  QCheck.Test.make ~name:"SSA equals the oracle on random programs" ~count:120 arb_sprog
    (fun p -> agrees_with_oracle (tast_of (wrap_prog p)))

let prop_oracle_synth =
  QCheck.Test.make ~name:"SSA equals the oracle on Synth programs" ~count:12
    QCheck.(pair (int_range 1 1000) (int_range 1 24))
    (fun (seed, size) -> agrees_with_oracle (tast_of (Safeflow.Synth.of_size ~seed size)))

let find_system name =
  let candidates =
    [ "../../../systems/" ^ name; "../../systems/" ^ name; "systems/" ^ name ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some p -> p
  | None -> Alcotest.fail ("cannot locate systems/" ^ name)

let test_oracle_systems () =
  List.iter
    (fun name ->
      let tast = Typecheck.check_program (Parser.parse_file (find_system name)) in
      Alcotest.(check (option string)) name None (Mem2reg.diff_against_oracle tast))
    [ "figure2.c"; "ip_controller.c"; "generic_simplex.c"; "double_ip.c"; "car_follow.c" ]

(* The one intended divergence: an address taken only in unreachable code
   keeps the local in memory, where the oracle (which sees only the
   reachable code) promotes it. *)
let test_unreachable_address_taken () =
  let src = "int f(int c) { int x = c; return x; int *p = &x; *p = 1; return 0; }" in
  let allocas ir =
    List.length
      (List.filter
         (fun i -> match i.Ssair.Ir.idesc with Ssair.Ir.Alloca _ -> true | _ -> false)
         (Ssair.Ir.all_instrs (Option.get (Ssair.Ir.func_index ir "f"))))
  in
  let direct = compile_ssa src in
  let oracle = compile src in
  ignore (Mem2reg.run oracle);
  Alcotest.(check int) "build keeps x in memory" 1 (allocas direct);
  Alcotest.(check int) "oracle promotes x" 0 (allocas oracle);
  no_violations ~ssa:true direct;
  Alcotest.(check bool) "oracle reports the difference" true
    (Mem2reg.diff_against_oracle (tast_of src) <> None)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "ir"
    [ ( "lowering",
        [ Alcotest.test_case "simple" `Quick test_lower_simple;
          Alcotest.test_case "if blocks" `Quick test_lower_if_blocks;
          Alcotest.test_case "annotations kept" `Quick test_lower_annotations_kept;
          Alcotest.test_case "switch" `Quick test_lower_switch;
          Alcotest.test_case "pointer gep" `Quick test_lower_pointer_gep ] );
      ( "dominators",
        [ Alcotest.test_case "diamond" `Quick test_dom_diamond;
          Alcotest.test_case "frontier diamond" `Quick test_dom_frontier_diamond;
          Alcotest.test_case "loop header" `Quick test_dom_loop_header ] );
      ( "mem2reg",
        [ Alcotest.test_case "ssa verifies" `Quick test_ssa_verifies;
          Alcotest.test_case "undefined operands named" `Quick test_verify_undefined_operands;
          Alcotest.test_case "phi inserted" `Quick test_ssa_phi_inserted;
          Alcotest.test_case "no scalar allocas" `Quick test_ssa_no_scalar_allocas;
          Alcotest.test_case "address-taken kept" `Quick test_ssa_address_taken_not_promoted;
          Alcotest.test_case "loop phis" `Quick test_ssa_loop_phi ] );
      ( "interp",
        [ Alcotest.test_case "arith" `Quick test_interp_arith;
          Alcotest.test_case "branch" `Quick test_interp_branch;
          Alcotest.test_case "loop" `Quick test_interp_loop;
          Alcotest.test_case "factorial" `Quick test_interp_factorial;
          Alcotest.test_case "gcd" `Quick test_interp_gcd;
          Alcotest.test_case "pointers" `Quick test_interp_pointers;
          Alcotest.test_case "array" `Quick test_interp_array;
          Alcotest.test_case "struct" `Quick test_interp_struct;
          Alcotest.test_case "struct copy" `Quick test_interp_struct_copy;
          Alcotest.test_case "global" `Quick test_interp_global;
          Alcotest.test_case "shortcircuit" `Quick test_interp_shortcircuit;
          Alcotest.test_case "ternary" `Quick test_interp_ternary;
          Alcotest.test_case "switch" `Quick test_interp_switch;
          Alcotest.test_case "switch fallthrough" `Quick test_interp_switch_fallthrough;
          Alcotest.test_case "double" `Quick test_interp_double;
          Alcotest.test_case "float rounding" `Quick test_interp_float_single;
          Alcotest.test_case "char wrap" `Quick test_interp_char_wrap;
          Alcotest.test_case "global init" `Quick test_interp_global_init;
          Alcotest.test_case "string" `Quick test_interp_string;
          Alcotest.test_case "oob trap" `Quick test_interp_oob_trap;
          Alcotest.test_case "div zero trap" `Quick test_interp_div_zero_trap;
          Alcotest.test_case "fuel" `Quick test_interp_fuel;
          Alcotest.test_case "extern handler" `Quick test_interp_extern_handler;
          Alcotest.test_case "undeclared call rejected" `Quick
            test_interp_undeclared_call_rejected ] );
      ( "cdg",
        [ Alcotest.test_case "if" `Quick test_cdg_if;
          Alcotest.test_case "straightline" `Quick test_cdg_straightline;
          Alcotest.test_case "loop" `Quick test_cdg_loop_self;
          Alcotest.test_case "infinite loop" `Quick test_cdg_infinite_loop_tolerated ] );
      ( "ssa-oracle",
        [ Alcotest.test_case "five systems" `Quick test_oracle_systems;
          Alcotest.test_case "unreachable address-taken" `Quick test_unreachable_address_taken;
          qt prop_oracle_random; qt prop_oracle_synth ] );
      ( "properties",
        [ qt prop_random_programs_verify; qt prop_mem2reg_preserves_semantics;
          qt prop_build_preserves_semantics ] ) ]
