(* Tests for the MiniC frontend: lexer, parser, annotations, typechecker,
   layout, and parse/print round-trips. *)

open Minic

let parse = Parser.parse_string ~file:"<test>"
let check_prog src = Typecheck.check_program (parse src)

(* -- Lexer ------------------------------------------------------------- *)

let tok_kinds src =
  Lexer.tokenize ~file:"<t>" src |> List.map (fun l -> l.Lexer.tok)

let test_lex_basic () =
  let toks = tok_kinds "int x = 42;" in
  Alcotest.(check int) "token count" 6 (List.length toks);
  (match toks with
  | [ KW_int; IDENT "x"; ASSIGN; INT 42L; SEMI; EOF ] -> ()
  | _ -> Alcotest.fail "unexpected tokens")

let test_lex_operators () =
  let toks = tok_kinds "a<<=b >>= == != <= >= && || -> ++ --" in
  let has t = List.mem t toks in
  List.iter
    (fun t -> Alcotest.(check bool) (Token.to_string t) true (has t))
    Token.[ SHLEQ; SHREQ; EQEQ; NEQ; LE; GE; ANDAND; OROR; ARROW; PLUSPLUS; MINUSMINUS ]

let test_lex_floats () =
  (match tok_kinds "3.14 1e3 2.5f 10L 0x1F" with
  | [ FLOATLIT a; FLOATLIT b; FLOATLIT c; INT 10L; INT 31L; EOF ] ->
    Alcotest.(check (float 1e-9)) "pi" 3.14 a;
    Alcotest.(check (float 1e-9)) "1e3" 1000.0 b;
    Alcotest.(check (float 1e-9)) "2.5f" 2.5 c
  | _ -> Alcotest.fail "unexpected float tokens")

let test_lex_comments () =
  let toks = tok_kinds "a /* plain comment */ b // line\nc" in
  Alcotest.(check int) "comments skipped" 4 (List.length toks)

let test_lex_annotation () =
  let toks = tok_kinds "x; /*** SafeFlow Annotation shminit ***/ y;" in
  let annots =
    List.filter_map (function Token.ANNOT s -> Some s | _ -> None) toks
  in
  Alcotest.(check int) "one annotation token" 1 (List.length annots)

let annot_payloads src =
  List.filter_map (function Token.ANNOT s -> Some s | _ -> None) (tok_kinds src)

let test_lex_annotation_payload () =
  let check name expected src =
    Alcotest.(check (list string)) name expected (annot_payloads src)
  in
  check "marker mid-comment" [ " shminit " ] "/* note: SafeFlow Annotation shminit */ x;";
  check "after the first occurrence" [ " a SafeFlow Annotation b " ]
    "/*SafeFlow Annotation a SafeFlow Annotation b */";
  check "marker closes the comment" [ "" ] "/* SafeFlow Annotation*/";
  check "near miss" [] "/* SafeFlow Annotatio shminit */ x;";
  check "shorter than the marker" [] "/*SafeFlow*/"

let test_lex_string_escape () =
  match tok_kinds {|"a\nb"|} with
  | [ STRING "a\nb"; EOF ] -> ()
  | _ -> Alcotest.fail "string escape"

let test_lex_preprocessor_skipped () =
  let toks = tok_kinds "#include <stdio.h>\nint x;" in
  Alcotest.(check int) "pp line skipped" 4 (List.length toks)

let test_lex_error_position () =
  match Lexer.tokenize ~file:"<t>" "int x;\n  @" with
  | exception Loc.Error (loc, _) ->
    Alcotest.(check int) "line" 2 loc.Loc.line;
    Alcotest.(check int) "col" 3 loc.Loc.col
  | _ -> Alcotest.fail "expected lex error"

(* every token's line:col over each kind of skipped text: spaces, tabs,
   CRLF line ends (the CR counts as a column), line comments, a
   preprocessor line, a block comment spanning a CRLF, an annotation
   comment (located at its opening slash) and a block comment inside a
   line *)
let test_lex_positions () =
  let src =
    "#define N 4\r\n\
     int\tx = 1; // c1\r\n\
     \  /* plain\r\n\
     \   comment */ y\n\
     /*** SafeFlow Annotation shminit ***/\tz;\n\
     \t\tw /* a */ = 2;"
  in
  let got =
    List.map
      (fun (l : Lexer.lexed) ->
        let tok = match l.Lexer.tok with Token.ANNOT _ -> "ANNOT" | t -> Token.to_string t in
        Fmt.str "%s@%d:%d" tok l.Lexer.loc.Loc.line l.Lexer.loc.Loc.col)
      (Lexer.tokenize ~file:"<t>" src)
  in
  Alcotest.(check (list string)) "token positions"
    [ "int@2:1"; "x@2:5"; "=@2:7"; "1@2:9"; ";@2:10"; "y@4:15"; "ANNOT@5:1"; "z@5:39";
      ";@5:40"; "w@6:3"; "=@6:13"; "2@6:15"; ";@6:16"; "<eof>@6:17" ]
    got

let test_lex_literal_range () =
  List.iter
    (fun (src, col) ->
      match Lexer.tokenize ~file:"<t>" src with
      | exception Loc.Error (loc, msg) ->
        Alcotest.(check int) (src ^ ": column") col loc.Loc.col;
        Alcotest.(check bool) (src ^ ": names the literal") true
          (Astring.String.is_infix ~affix:"numeric literal" msg)
      | _ -> Alcotest.fail ("expected a literal error: " ^ src))
    [ ("int a[99999999999999999999];", 7); ("double d = 1e;", 12) ]

(* -- Annotation payloads ------------------------------------------------ *)

let test_annot_core () =
  match Annot.parse_payload " assume(core(noncoreCtrl, 0, sizeof(SHMData))) " with
  | [ Annot.Assume_core { ptr = "noncoreCtrl"; off = Aint 0; size = Asizeof (Ty.Named "SHMData") } ]
    -> ()
  | _ -> Alcotest.fail "assume(core) parse"

let test_annot_multi () =
  let clauses =
    Annot.parse_payload
      "shminit; assume(shmvar(feedback, sizeof(struct SHM))); assume(noncore(ctrl))"
  in
  Alcotest.(check int) "three clauses" 3 (List.length clauses);
  (match clauses with
  | [ Annot.Shminit; Annot.Shmvar { ptr = "feedback"; _ }; Annot.Noncore "ctrl" ] -> ()
  | _ -> Alcotest.fail "clause shapes")

let test_annot_assert_safe () =
  match Annot.parse_payload "assert(safe(output))" with
  | [ Annot.Assert_safe "output" ] -> ()
  | _ -> Alcotest.fail "assert(safe)"

let test_annot_arith () =
  match Annot.parse_payload "assume(shmvar(p, sizeof(double) * 16))" with
  | [ Annot.Shmvar { size; _ } ] ->
    let env = Ty.empty_env () in
    Alcotest.(check int) "size value" 128 (Annot.eval_aexpr env size)
  | _ -> Alcotest.fail "shmvar arith"

let test_annot_trailing_stars () =
  (* payload as it appears inside a boxed comment *)
  match Annot.parse_payload " assert(safe(v)) **" with
  | [ Annot.Assert_safe "v" ] -> ()
  | _ -> Alcotest.fail "trailing decoration"

let test_annot_bad () =
  match Annot.parse_payload "assume(bogus(x))" with
  | exception Annot.Parse_error _ -> ()
  | _ -> Alcotest.fail "expected parse error"

(* -- Parser -------------------------------------------------------------- *)

let test_parse_function () =
  match parse "int add(int a, int b) { return a + b; }" with
  | [ Ast.Dfunc f ] ->
    Alcotest.(check string) "name" "add" f.fname;
    Alcotest.(check int) "params" 2 (List.length f.fparams)
  | _ -> Alcotest.fail "expected one function"

let test_parse_struct_typedef () =
  let prog =
    parse "struct Point { double x; double y; }; typedef struct Point Point;\n\
           Point origin;"
  in
  Alcotest.(check int) "three decls" 3 (List.length prog)

let test_parse_precedence () =
  match parse "int f() { return 1 + 2 * 3; }" with
  | [ Ast.Dfunc { fbody = [ { sdesc = Sreturn (Some e); _ } ]; _ } ] -> (
    match e.edesc with
    | Ast.Binop (Ast.Add, _, { edesc = Ast.Binop (Ast.Mul, _, _); _ }) -> ()
    | _ -> Alcotest.fail "precedence shape")
  | _ -> Alcotest.fail "parse shape"

let test_parse_compound_assign () =
  match parse "int f(int x) { x += 2; return x; }" with
  | [ Ast.Dfunc { fbody = { sdesc = Sexpr { edesc = Assign (_, rhs); _ }; _ } :: _; _ } ]
    -> (
    match rhs.edesc with
    | Ast.Binop (Ast.Add, _, _) -> ()
    | _ -> Alcotest.fail "compound assign desugar")
  | _ -> Alcotest.fail "parse shape"

let test_parse_pointer_decl () =
  match parse "int f() { int x; int *p; p = &x; *p = 3; return *p; }" with
  | [ Ast.Dfunc f ] -> Alcotest.(check int) "stmts" 5 (List.length f.fbody)
  | _ -> Alcotest.fail "pointer decl"

let test_parse_for_loop () =
  match parse "int f() { int s = 0; for (int i = 0; i < 10; i++) s += i; return s; }" with
  | [ Ast.Dfunc { fbody = [ _; { sdesc = Sfor (Some _, Some _, Some _, _); _ }; _ ]; _ } ]
    -> ()
  | _ -> Alcotest.fail "for loop shape"

let test_parse_switch () =
  let src =
    "int f(int m) { switch (m) { case 0: return 1; case 1: case 2: return 5; default: \
     break; } return 0; }"
  in
  match parse src with
  | [ Ast.Dfunc { fbody = [ { sdesc = Sswitch (_, cases); _ }; _ ]; _ } ] ->
    Alcotest.(check int) "cases" 4 (List.length cases)
  | _ -> Alcotest.fail "switch shape"

let test_parse_func_annotation () =
  let src =
    "float decision(float x)\n\
     /*** SafeFlow Annotation assume(core(noncoreCtrl, 0, sizeof(struct SHMData))) ***/\n\
     { return x; }"
  in
  match parse src with
  | [ Ast.Dfunc f ] -> (
    match f.fannot with
    | [ Annot.Assume_core { ptr = "noncoreCtrl"; _ } ] -> ()
    | _ -> Alcotest.fail "annotation attached")
  | _ -> Alcotest.fail "parse shape"

let test_parse_stmt_annotation () =
  let src = "int f() { int v = 1; /*** SafeFlow Annotation assert(safe(v)) ***/ return v; }" in
  match parse src with
  | [ Ast.Dfunc f ] ->
    let has_annot =
      List.exists (fun s -> match s.Ast.sdesc with Ast.Sannot _ -> true | _ -> false) f.fbody
    in
    Alcotest.(check bool) "annot stmt present" true has_annot
  | _ -> Alcotest.fail "parse shape"

let test_parse_global_array_init () =
  match parse "double K[4] = { 1.0, 2.0, 3.0, 4.0 };" with
  | [ Ast.Dglobal { gty = Ty.Array (Ty.Double, 4); ginit = Some (Ilist l); _ } ] ->
    Alcotest.(check int) "init elems" 4 (List.length l)
  | _ -> Alcotest.fail "global array init"

let test_parse_cast () =
  let src = "typedef struct S SHMData; struct S { int v; }; \n\
             SHMData *g; int f(void *p) { g = (SHMData *) p; return g->v; }" in
  match List.rev (parse src) with
  | Ast.Dfunc f :: _ ->
    (match f.fbody with
    | { sdesc = Sexpr { edesc = Assign (_, { edesc = Cast (Ty.Ptr (Ty.Named "SHMData"), _); _ }); _ }; _ } :: _ ->
      ()
    | _ -> Alcotest.fail "cast shape")
  | _ -> Alcotest.fail "parse shape"

(* The parser pulls tokens from the lexer as it goes, so a parse error
   wins over a lexical error later in the file. *)
let test_parse_error_before_lex_error () =
  match parse "int x = ;\nint y = 1 @ 2;" with
  | exception Loc.Error (loc, msg) ->
    Alcotest.(check (pair int int)) "location" (1, 9) (loc.Loc.line, loc.Loc.col);
    Alcotest.(check string) "message" "parse error: unexpected token ; in expression" msg
  | _ -> Alcotest.fail "expected a parse error"

let test_parse_error_reports_location () =
  match parse "int f() { return + ; }" with
  | exception Loc.Error (_, msg) ->
    Alcotest.(check bool) "mentions parse" true
      (Astring.String.is_infix ~affix:"" msg || String.length msg > 0)
  | _ -> Alcotest.fail "expected error"

(* -- Round trip ---------------------------------------------------------- *)

let roundtrip src =
  let p1 = parse src in
  let printed = Pretty.program_to_string p1 in
  let p2 = Parser.parse_string ~file:"<rt>" printed in
  let printed2 = Pretty.program_to_string p2 in
  Alcotest.(check string) "print/parse/print stable" printed printed2

let test_roundtrip_simple () =
  roundtrip
    "struct S { int a; double b[3]; };\n\
     typedef struct S S;\n\
     S glob;\n\
     int f(int x, double *p) { if (x > 0) { return x; } else { return -x; } }"

let test_roundtrip_control () =
  roundtrip
    "int f(int n) { int s = 0; for (int i = 0; i < n; i++) { s += i; } \
     while (s > 100) { s /= 2; } do { s++; } while (s < 3); \
     switch (n) { case 1: return s; default: break; } return s ? s : n; }"

(* -- Typechecker --------------------------------------------------------- *)

let test_tc_simple () =
  let p = check_prog "int add(int a, int b) { return a + b; }" in
  Alcotest.(check int) "one function" 1 (List.length p.Tast.p_funcs)

let test_tc_promotion () =
  let p = check_prog "double f(int a, double b) { return a + b; }" in
  let f = List.hd p.Tast.p_funcs in
  (match f.tf_body with
  | [ { tsdesc = Tast.TSreturn (Some e); _ } ] ->
    Alcotest.(check bool) "result is double" true (Ty.equal e.tty Ty.Double)
  | _ -> Alcotest.fail "body shape")

let test_tc_pointer_arith () =
  let p = check_prog "int f(int *p) { return *(p + 2); }" in
  ignore p

let test_tc_field_access () =
  let p =
    check_prog
      "struct V { double x; double y; }; double f(struct V *v) { return v->x + v->y; }"
  in
  ignore p

let test_tc_redefinition () =
  (match check_prog "int f(void) { return 1; }\nint f(void) { return 2; }" with
  | exception Loc.Error (loc, msg) ->
    Alcotest.(check int) "line of the second definition" 2 loc.Loc.line;
    Alcotest.(check string) "message" "type error: redefinition of function f" msg
  | _ -> Alcotest.fail "expected a redefinition error");
  (* declarations around the one definition stay legal *)
  ignore
    (check_prog
       "int f(void); extern int f(void); int f(void) { return 1; } int f(void);\n\
        int main(void) { return f(); }")

let test_tc_unbound_var () =
  match check_prog "int f() { return y; }" with
  | exception Loc.Error (_, msg) ->
    Alcotest.(check bool) "mentions unbound" true
      (Astring.String.is_infix ~affix:"unbound" msg)
  | _ -> Alcotest.fail "expected type error"

let test_tc_bad_call_arity () =
  match check_prog "int g(int x) { return x; } int f() { return g(1, 2); }" with
  | exception Loc.Error (_, _) -> ()
  | _ -> Alcotest.fail "expected arity error"

let test_tc_undeclared_function () =
  match check_prog "int f() { return mystery(); }" with
  | exception Loc.Error (_, _) -> ()
  | _ -> Alcotest.fail "expected undeclared error"

let test_tc_void_assign () =
  match check_prog "void g() { } int f() { int x; x = g(); return x; }" with
  | exception Loc.Error (_, _) -> ()
  | _ -> Alcotest.fail "expected void assign error"

let test_tc_recursive_struct () =
  List.iter
    (fun src ->
      match check_prog src with
      | exception Loc.Error (_, msg) ->
        Alcotest.(check bool) "mentions self-containment" true
          (Astring.String.is_infix ~affix:"contains itself" msg)
      | _ -> Alcotest.fail ("expected a recursive-layout error: " ^ src))
    [ "struct s { int a; struct s x; }; long f() { return sizeof(struct s); }";
      "struct s { int a; struct t y[2]; }; struct t { struct s z; }; int f() { return 0; }" ];
  (* a pointer breaks the cycle: the layout is finite *)
  ignore (check_prog "struct s { int a; struct s *next; }; long f() { return sizeof(struct s); }")

let test_tc_shadowing_renamed () =
  let p =
    check_prog
      "int f(int x) { int s = 0; { int t = x; s += t; } { int t = 2 * x; s += t; } return s; }"
  in
  let f = List.hd p.Tast.p_funcs in
  let names = List.map fst f.tf_locals in
  Alcotest.(check int) "three locals" 3 (List.length names);
  Alcotest.(check bool) "renamed uniquely" true
    (List.length (List.sort_uniq compare names) = 3)

let test_tc_sizeof_folded () =
  let p =
    check_prog "struct S { double a; int b; }; long f() { return sizeof(struct S); }"
  in
  let f = List.hd p.Tast.p_funcs in
  (match f.tf_body with
  | [ { tsdesc = Tast.TSreturn (Some { tdesc = Tast.Tint n; _ }); _ } ] ->
    Alcotest.(check int64) "sizeof folded (8 + 4 pad to 16)" 16L n
  | _ -> Alcotest.fail "sizeof shape")

let test_tc_array_decay () =
  let p = check_prog "double sum(double *p, int n) { return p[0]; } \
                      double f() { double a[4]; return sum(a, 4); }" in
  let f = List.find (fun f -> f.Tast.tf_name = "f") p.Tast.p_funcs in
  let found_decay = ref false in
  Tast.fold_texpr_stmts
    (fun () e -> match e.Tast.tdesc with Tast.Tdecay _ -> found_decay := true | _ -> ())
    () f.tf_body;
  Alcotest.(check bool) "decay inserted" true !found_decay

let test_tc_global_init_flatten () =
  let p =
    check_prog
      "struct G { double k[2]; int mode; }; struct G cfg = { { 1.5, 2.5 }, 7 };"
  in
  match p.Tast.p_globals with
  | [ g ] ->
    Alcotest.(check int) "three scalar inits" 3 (List.length g.tg_init);
    let offs = List.map (fun i -> i.Tast.gi_offset) g.tg_init in
    Alcotest.(check (list int)) "offsets" [ 0; 8; 16 ] (List.sort compare offs)
  | _ -> Alcotest.fail "globals shape"

let test_tc_builtin_externs () =
  (* shmget/shmat/kill are implicitly declared *)
  let p =
    check_prog
      "void f() { int id = shmget(100, 4096, 0); void *base = shmat(id, 0, 0); \
       kill(7, 9); shmdt(base); }"
  in
  ignore p

(* -- Layout --------------------------------------------------------------- *)

let test_layout_struct_padding () =
  let env = Ty.empty_env () in
  Hashtbl.replace env.Ty.structs "S"
    [ { Ty.fname = "c"; fty = Ty.Char }; { Ty.fname = "d"; fty = Ty.Double };
      { Ty.fname = "i"; fty = Ty.Int } ];
  Alcotest.(check int) "sizeof" 24 (Ty.sizeof env (Ty.Struct "S"));
  Alcotest.(check (option int)) "offset c" (Some 0) (Ty.field_offset env "S" "c");
  Alcotest.(check (option int)) "offset d" (Some 8) (Ty.field_offset env "S" "d");
  Alcotest.(check (option int)) "offset i" (Some 16) (Ty.field_offset env "S" "i")

let test_layout_nested_array () =
  let env = Ty.empty_env () in
  Alcotest.(check int) "double[3][4]" 96
    (Ty.sizeof env (Ty.Array (Ty.Array (Ty.Double, 4), 3)))

let test_layout_typedef_resolution () =
  let env = Ty.empty_env () in
  Hashtbl.replace env.Ty.typedefs "myint" Ty.Int;
  Hashtbl.replace env.Ty.typedefs "myint2" (Ty.Named "myint");
  Alcotest.(check int) "chained typedef" 4 (Ty.sizeof env (Ty.Named "myint2"));
  Alcotest.(check bool) "compat through typedef" true
    (Ty.compatible env (Ty.Named "myint2") Ty.Int)

(* -- Property tests -------------------------------------------------------- *)

(* random well-formed arithmetic expressions over ints should roundtrip *)
let gen_expr =
  let open QCheck.Gen in
  sized @@ fix (fun self n ->
      if n <= 0 then
        oneof [ map (fun i -> Ast.int_e (abs i mod 1000)) small_int; return (Ast.var_e "x") ]
      else
        let sub = self (n / 2) in
        oneof
          [ map2 (fun a b -> Ast.mk_expr (Ast.Binop (Ast.Add, a, b))) sub sub;
            map2 (fun a b -> Ast.mk_expr (Ast.Binop (Ast.Mul, a, b))) sub sub;
            map2 (fun a b -> Ast.mk_expr (Ast.Binop (Ast.Lt, a, b))) sub sub;
            map (fun a -> Ast.mk_expr (Ast.Unop (Ast.Neg, a))) sub;
            map (fun a -> Ast.mk_expr (Ast.Unop (Ast.Lnot, a))) sub ])

let arb_expr = QCheck.make ~print:(fun e -> Fmt.str "%a" Pretty.pp_expr e) gen_expr

let rec expr_equal_modulo_loc (a : Ast.expr) (b : Ast.expr) =
  match (a.edesc, b.edesc) with
  | Ast.Cint x, Ast.Cint y -> Int64.equal x y
  | Ast.Var x, Ast.Var y -> String.equal x y
  | Ast.Unop (o1, a1), Ast.Unop (o2, a2) -> o1 = o2 && expr_equal_modulo_loc a1 a2
  | Ast.Binop (o1, a1, b1), Ast.Binop (o2, a2, b2) ->
    o1 = o2 && expr_equal_modulo_loc a1 a2 && expr_equal_modulo_loc b1 b2
  | _ -> false

let prop_expr_roundtrip =
  QCheck.Test.make ~name:"expr print/parse roundtrip" ~count:200 arb_expr (fun e ->
      let src = Fmt.str "int f(int x) { return %a; }" Pretty.pp_expr e in
      match parse src with
      | [ Ast.Dfunc { fbody = [ { sdesc = Sreturn (Some e'); _ } ]; _ } ] ->
        expr_equal_modulo_loc e e'
      | _ -> false)

let prop_typecheck_roundtrip =
  QCheck.Test.make ~name:"random exprs typecheck" ~count:100 arb_expr (fun e ->
      let src = Fmt.str "int f(int x) { return %a; }" Pretty.pp_expr e in
      match check_prog src with _ -> true)

(* layout properties *)
let gen_ty =
  let open QCheck.Gen in
  sized @@ fix (fun self n ->
      if n <= 0 then oneofl [ Ty.Char; Ty.Int; Ty.Long; Ty.Float; Ty.Double ]
      else
        frequency
          [ (3, oneofl [ Ty.Char; Ty.Int; Ty.Long; Ty.Float; Ty.Double ]);
            (1, map (fun t -> Ty.Ptr t) (self (n / 2)));
            (1, map2 (fun t k -> Ty.Array (t, 1 + (abs k mod 8))) (self (n / 2)) small_int) ])

let arb_ty = QCheck.make ~print:Ty.to_string gen_ty

let prop_size_multiple_of_align =
  QCheck.Test.make ~name:"sizeof is a multiple of alignof" ~count:200 arb_ty (fun ty ->
      let env = Ty.empty_env () in
      Ty.sizeof env ty mod Ty.alignof env ty = 0)

let prop_array_size_linear =
  QCheck.Test.make ~name:"array size is n * element size" ~count:200
    (QCheck.pair arb_ty QCheck.small_int) (fun (ty, n) ->
      let n = 1 + (abs n mod 16) in
      let env = Ty.empty_env () in
      Ty.sizeof env (Ty.Array (ty, n)) = n * Ty.sizeof env ty)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "minic"
    [ ( "lexer",
        [ Alcotest.test_case "basic" `Quick test_lex_basic;
          Alcotest.test_case "operators" `Quick test_lex_operators;
          Alcotest.test_case "floats" `Quick test_lex_floats;
          Alcotest.test_case "comments" `Quick test_lex_comments;
          Alcotest.test_case "annotation token" `Quick test_lex_annotation;
          Alcotest.test_case "annotation payload" `Quick test_lex_annotation_payload;
          Alcotest.test_case "string escapes" `Quick test_lex_string_escape;
          Alcotest.test_case "preprocessor skipped" `Quick test_lex_preprocessor_skipped;
          Alcotest.test_case "error position" `Quick test_lex_error_position;
          Alcotest.test_case "token positions" `Quick test_lex_positions;
          Alcotest.test_case "literal out of range" `Quick test_lex_literal_range ] );
      ( "annotations",
        [ Alcotest.test_case "assume core" `Quick test_annot_core;
          Alcotest.test_case "multi clause" `Quick test_annot_multi;
          Alcotest.test_case "assert safe" `Quick test_annot_assert_safe;
          Alcotest.test_case "size arithmetic" `Quick test_annot_arith;
          Alcotest.test_case "trailing stars" `Quick test_annot_trailing_stars;
          Alcotest.test_case "bad payload" `Quick test_annot_bad ] );
      ( "parser",
        [ Alcotest.test_case "function" `Quick test_parse_function;
          Alcotest.test_case "struct+typedef" `Quick test_parse_struct_typedef;
          Alcotest.test_case "precedence" `Quick test_parse_precedence;
          Alcotest.test_case "compound assign" `Quick test_parse_compound_assign;
          Alcotest.test_case "pointer decl" `Quick test_parse_pointer_decl;
          Alcotest.test_case "for loop" `Quick test_parse_for_loop;
          Alcotest.test_case "switch" `Quick test_parse_switch;
          Alcotest.test_case "function annotation" `Quick test_parse_func_annotation;
          Alcotest.test_case "stmt annotation" `Quick test_parse_stmt_annotation;
          Alcotest.test_case "global array init" `Quick test_parse_global_array_init;
          Alcotest.test_case "cast" `Quick test_parse_cast;
          Alcotest.test_case "error location" `Quick test_parse_error_reports_location;
          Alcotest.test_case "parse error before lex error" `Quick
            test_parse_error_before_lex_error ] );
      ( "roundtrip",
        [ Alcotest.test_case "simple" `Quick test_roundtrip_simple;
          Alcotest.test_case "control flow" `Quick test_roundtrip_control;
          qt prop_expr_roundtrip;
          qt prop_typecheck_roundtrip ] );
      ( "typecheck",
        [ Alcotest.test_case "simple" `Quick test_tc_simple;
          Alcotest.test_case "promotion" `Quick test_tc_promotion;
          Alcotest.test_case "pointer arith" `Quick test_tc_pointer_arith;
          Alcotest.test_case "field access" `Quick test_tc_field_access;
          Alcotest.test_case "unbound var" `Quick test_tc_unbound_var;
          Alcotest.test_case "redefinition" `Quick test_tc_redefinition;
          Alcotest.test_case "bad call arity" `Quick test_tc_bad_call_arity;
          Alcotest.test_case "undeclared function" `Quick test_tc_undeclared_function;
          Alcotest.test_case "void assign" `Quick test_tc_void_assign;
          Alcotest.test_case "recursive struct" `Quick test_tc_recursive_struct;
          Alcotest.test_case "shadowing renamed" `Quick test_tc_shadowing_renamed;
          Alcotest.test_case "sizeof folded" `Quick test_tc_sizeof_folded;
          Alcotest.test_case "array decay" `Quick test_tc_array_decay;
          Alcotest.test_case "global init flatten" `Quick test_tc_global_init_flatten;
          Alcotest.test_case "builtin externs" `Quick test_tc_builtin_externs ] );
      ( "layout",
        [ Alcotest.test_case "struct padding" `Quick test_layout_struct_padding;
          Alcotest.test_case "nested array" `Quick test_layout_nested_array;
          Alcotest.test_case "typedef resolution" `Quick test_layout_typedef_resolution;
          qt prop_size_multiple_of_align;
          qt prop_array_size_linear ] ) ]
