(** Recursive-descent parser for MiniC.

    Typedef names are tracked during parsing to disambiguate declarations
    from expressions (the classic C lexer hack, kept inside the parser).

    Compound assignments ([+=], ...) and increment operators are desugared
    into plain assignments; this duplicates the left-hand side
    syntactically, which is harmless for the analysis because the subset
    forbids side effects inside lvalues. *)

open Token

(* Tokens are pulled from the lexer on demand through a window of at
   most three: the current token and up to two lexed ahead for
   [peek_at].  The parser never backtracks, so nothing else is kept. *)
type state = {
  lex : Lexer.state;
  win : Lexer.lexed array;  (** [win.(0)] is the current token *)
  mutable filled : int;  (** tokens in [win], at least 1 *)
  typedefs : (string, unit) Hashtbl.t;
}

let make lex =
  { lex; win = Array.make 3 (Lexer.next lex); filled = 1; typedefs = Hashtbl.create 16 }

let cur st = st.win.(0).tok
let cur_loc st = st.win.(0).loc

(* n <= 2; past the end the lexer keeps answering EOF *)
let peek_at st n =
  while st.filled <= n do
    st.win.(st.filled) <- Lexer.next st.lex;
    st.filled <- st.filled + 1
  done;
  st.win.(n).tok

let advance st =
  if st.filled = 1 then st.win.(0) <- Lexer.next st.lex
  else begin
    st.win.(0) <- st.win.(1);
    st.win.(1) <- st.win.(2);
    st.filled <- st.filled - 1
  end

let parse_error st fmt =
  Loc.error (cur_loc st) ("parse error: " ^^ fmt)

let expect st tok =
  if cur st = tok then advance st
  else
    parse_error st "expected %s but found %s" (Token.to_string tok)
      (Token.to_string (cur st))

let expect_ident st =
  match cur st with
  | IDENT x ->
    advance st;
    x
  | t -> parse_error st "expected identifier, found %s" (Token.to_string t)

let is_typedef_name st name = Hashtbl.mem st.typedefs name

(** Does the current token start a type specifier? *)
let starts_type st =
  match cur st with
  | KW_void | KW_char | KW_int | KW_long | KW_float | KW_double | KW_struct
  | KW_const | KW_unsigned | KW_static ->
    true
  | IDENT x -> is_typedef_name st x
  | _ -> false

(* -- Types ------------------------------------------------------------ *)

let rec parse_type_spec st : Ty.t =
  match cur st with
  | KW_const | KW_static ->
    advance st;
    parse_type_spec st
  | KW_unsigned ->
    advance st;
    (* unsigned is folded into the signed carrier type *)
    (match cur st with
    | KW_char | KW_int | KW_long -> parse_type_spec st
    | _ -> Ty.Int)
  | KW_void -> advance st; Ty.Void
  | KW_char -> advance st; Ty.Char
  | KW_int -> advance st; Ty.Int
  | KW_long ->
    advance st;
    (match cur st with KW_int -> advance st | _ -> ());
    Ty.Long
  | KW_float -> advance st; Ty.Float
  | KW_double -> advance st; Ty.Double
  | KW_struct ->
    advance st;
    let name = expect_ident st in
    Ty.Struct name
  | IDENT x when is_typedef_name st x ->
    advance st;
    Ty.Named x
  | t -> parse_error st "expected type, found %s" (Token.to_string t)

(** Pointer stars following a type specifier. *)
let parse_stars st base =
  let ty = ref base in
  while cur st = STAR do
    advance st;
    (match cur st with KW_const -> advance st | _ -> ());
    ty := Ty.Ptr !ty
  done;
  !ty

(** Array suffixes after a declarator name: [N][M]... *)
let parse_array_suffix st base =
  let dims = ref [] in
  while cur st = LBRACKET do
    advance st;
    (match cur st with
    | INT n ->
      advance st;
      dims := Int64.to_int n :: !dims
    | RBRACKET -> parse_error st "array size required in MiniC"
    | t -> parse_error st "expected array size, found %s" (Token.to_string t));
    expect st RBRACKET
  done;
  List.fold_left (fun ty n -> Ty.Array (ty, n)) base !dims

(* -- Expressions ------------------------------------------------------ *)

let rec parse_expr st : Ast.expr = parse_assign st

and parse_assign st =
  let lhs = parse_cond st in
  let loc = lhs.Ast.eloc in
  let mk_compound op =
    advance st;
    let rhs = parse_assign st in
    Ast.mk_expr ~loc (Ast.Assign (lhs, Ast.mk_expr ~loc (Ast.Binop (op, lhs, rhs))))
  in
  match cur st with
  | ASSIGN ->
    advance st;
    let rhs = parse_assign st in
    Ast.mk_expr ~loc (Ast.Assign (lhs, rhs))
  | PLUSEQ -> mk_compound Ast.Add
  | MINUSEQ -> mk_compound Ast.Sub
  | STAREQ -> mk_compound Ast.Mul
  | SLASHEQ -> mk_compound Ast.Div
  | PERCENTEQ -> mk_compound Ast.Mod
  | AMPEQ -> mk_compound Ast.Band
  | PIPEEQ -> mk_compound Ast.Bor
  | CARETEQ -> mk_compound Ast.Bxor
  | SHLEQ -> mk_compound Ast.Shl
  | SHREQ -> mk_compound Ast.Shr
  | _ -> lhs

and parse_cond st =
  let c = parse_lor st in
  if cur st = QUESTION then begin
    advance st;
    let a = parse_expr st in
    expect st COLON;
    let b = parse_cond st in
    Ast.mk_expr ~loc:c.Ast.eloc (Ast.Cond (c, a, b))
  end
  else c

(* one precedence level: [op_of] maps the level's tokens to operators *)
and parse_binop_level st op_of next =
  let lhs = ref (next st) in
  let continue = ref true in
  while !continue do
    match op_of (cur st) with
    | Some op ->
      advance st;
      let rhs = next st in
      lhs := Ast.mk_expr ~loc:(!lhs).Ast.eloc (Ast.Binop (op, !lhs, rhs))
    | None -> continue := false
  done;
  !lhs

and parse_lor st = parse_binop_level st (function OROR -> Some Ast.Lor | _ -> None) parse_land
and parse_land st = parse_binop_level st (function ANDAND -> Some Ast.Land | _ -> None) parse_bor
and parse_bor st = parse_binop_level st (function PIPE -> Some Ast.Bor | _ -> None) parse_bxor
and parse_bxor st = parse_binop_level st (function CARET -> Some Ast.Bxor | _ -> None) parse_band
and parse_band st = parse_binop_level st (function AMP -> Some Ast.Band | _ -> None) parse_equality

and parse_equality st =
  parse_binop_level st
    (function EQEQ -> Some Ast.Eq | NEQ -> Some Ast.Ne | _ -> None)
    parse_relational

and parse_relational st =
  parse_binop_level st
    (function
      | LT -> Some Ast.Lt | LE -> Some Ast.Le | GT -> Some Ast.Gt | GE -> Some Ast.Ge | _ -> None)
    parse_shift

and parse_shift st =
  parse_binop_level st (function SHL -> Some Ast.Shl | SHR -> Some Ast.Shr | _ -> None) parse_additive

and parse_additive st =
  parse_binop_level st
    (function PLUS -> Some Ast.Add | MINUS -> Some Ast.Sub | _ -> None)
    parse_multiplicative

and parse_multiplicative st =
  parse_binop_level st
    (function STAR -> Some Ast.Mul | SLASH -> Some Ast.Div | PERCENT -> Some Ast.Mod | _ -> None)
    parse_unary

and parse_unary st =
  let loc = cur_loc st in
  match cur st with
  | MINUS ->
    advance st;
    Ast.mk_expr ~loc (Ast.Unop (Ast.Neg, parse_unary st))
  | BANG ->
    advance st;
    Ast.mk_expr ~loc (Ast.Unop (Ast.Lnot, parse_unary st))
  | TILDE ->
    advance st;
    Ast.mk_expr ~loc (Ast.Unop (Ast.Bnot, parse_unary st))
  | PLUS ->
    advance st;
    parse_unary st
  | STAR ->
    advance st;
    Ast.mk_expr ~loc (Ast.Deref (parse_unary st))
  | AMP ->
    advance st;
    Ast.mk_expr ~loc (Ast.Addr (parse_unary st))
  | PLUSPLUS ->
    advance st;
    let lv = parse_unary st in
    Ast.mk_expr ~loc
      (Ast.Assign (lv, Ast.mk_expr ~loc (Ast.Binop (Ast.Add, lv, Ast.int_e ~loc 1))))
  | MINUSMINUS ->
    advance st;
    let lv = parse_unary st in
    Ast.mk_expr ~loc
      (Ast.Assign (lv, Ast.mk_expr ~loc (Ast.Binop (Ast.Sub, lv, Ast.int_e ~loc 1))))
  | KW_sizeof ->
    advance st;
    expect st LPAREN;
    let ty =
      if starts_type st then parse_stars st (parse_type_spec st)
      else
        (* sizeof(expr) is restricted to sizeof(type) in MiniC *)
        parse_error st "sizeof requires a type in MiniC"
    in
    expect st RPAREN;
    Ast.mk_expr ~loc (Ast.Sizeof ty)
  | LPAREN when starts_type_cast st ->
    advance st;
    let ty = parse_stars st (parse_type_spec st) in
    expect st RPAREN;
    Ast.mk_expr ~loc (Ast.Cast (ty, parse_unary st))
  | _ -> parse_postfix st

(* A '(' begins a cast if the following token starts a type (and the parse
   is not a compound literal, which MiniC lacks). *)
and starts_type_cast st =
  match peek_at st 1 with
  | KW_void | KW_char | KW_int | KW_long | KW_float | KW_double | KW_struct
  | KW_const | KW_unsigned ->
    true
  | IDENT x -> is_typedef_name st x
  | _ -> false

and parse_postfix st =
  let e = ref (parse_primary st) in
  let continue = ref true in
  while !continue do
    let loc = cur_loc st in
    match cur st with
    | LBRACKET ->
      advance st;
      let idx = parse_expr st in
      expect st RBRACKET;
      e := Ast.mk_expr ~loc (Ast.Index (!e, idx))
    | DOT ->
      advance st;
      let f = expect_ident st in
      e := Ast.mk_expr ~loc (Ast.Field (!e, f))
    | ARROW ->
      advance st;
      let f = expect_ident st in
      e := Ast.mk_expr ~loc (Ast.Arrow (!e, f))
    | PLUSPLUS ->
      advance st;
      let lv = !e in
      e :=
        Ast.mk_expr ~loc
          (Ast.Assign (lv, Ast.mk_expr ~loc (Ast.Binop (Ast.Add, lv, Ast.int_e ~loc 1))))
    | MINUSMINUS ->
      advance st;
      let lv = !e in
      e :=
        Ast.mk_expr ~loc
          (Ast.Assign (lv, Ast.mk_expr ~loc (Ast.Binop (Ast.Sub, lv, Ast.int_e ~loc 1))))
    | _ -> continue := false
  done;
  !e

and parse_primary st =
  let loc = cur_loc st in
  match cur st with
  | INT n ->
    advance st;
    Ast.mk_expr ~loc (Ast.Cint n)
  | FLOATLIT f ->
    advance st;
    Ast.mk_expr ~loc (Ast.Cfloat f)
  | STRING s ->
    advance st;
    Ast.mk_expr ~loc (Ast.Cstr s)
  | CHARLIT c ->
    advance st;
    Ast.mk_expr ~loc (Ast.Cchar c)
  | IDENT x ->
    advance st;
    if cur st = LPAREN then begin
      advance st;
      let args = parse_args st in
      expect st RPAREN;
      Ast.mk_expr ~loc (Ast.Call (x, args))
    end
    else Ast.mk_expr ~loc (Ast.Var x)
  | LPAREN ->
    advance st;
    let e = parse_expr st in
    expect st RPAREN;
    e
  | t -> parse_error st "unexpected token %s in expression" (Token.to_string t)

and parse_args st =
  if cur st = RPAREN then []
  else
    let rec go acc =
      let e = parse_expr st in
      if cur st = COMMA then begin
        advance st;
        go (e :: acc)
      end
      else List.rev (e :: acc)
    in
    go []

(* -- Initializers ------------------------------------------------------ *)

let rec parse_init st : Ast.init =
  if cur st = LBRACE then begin
    advance st;
    let rec go acc =
      if cur st = RBRACE then begin
        advance st;
        List.rev acc
      end
      else begin
        let i = parse_init st in
        (match cur st with COMMA -> advance st | _ -> ());
        go (i :: acc)
      end
    in
    Ast.Ilist (go [])
  end
  else Ast.Iexpr (parse_expr st)

(* -- Statements -------------------------------------------------------- *)

let rec parse_stmt st : Ast.stmt =
  let loc = cur_loc st in
  match cur st with
  | ANNOT payload ->
    advance st;
    let clauses =
      try Annot.parse_payload payload
      with Annot.Parse_error msg -> Loc.error loc "bad annotation: %s" msg
    in
    Ast.mk_stmt ~loc (Ast.Sannot clauses)
  | LBRACE ->
    advance st;
    let body = parse_block_items st in
    expect st RBRACE;
    Ast.mk_stmt ~loc (Ast.Sblock body)
  | KW_if ->
    advance st;
    expect st LPAREN;
    let c = parse_expr st in
    expect st RPAREN;
    let then_branch = parse_branch st in
    let else_branch =
      if cur st = KW_else then begin
        advance st;
        parse_branch st
      end
      else []
    in
    Ast.mk_stmt ~loc (Ast.Sif (c, then_branch, else_branch))
  | KW_while ->
    advance st;
    expect st LPAREN;
    let c = parse_expr st in
    expect st RPAREN;
    Ast.mk_stmt ~loc (Ast.Swhile (c, parse_branch st))
  | KW_do ->
    advance st;
    let body = parse_branch st in
    expect st KW_while;
    expect st LPAREN;
    let c = parse_expr st in
    expect st RPAREN;
    expect st SEMI;
    Ast.mk_stmt ~loc (Ast.Sdo (body, c))
  | KW_for ->
    advance st;
    expect st LPAREN;
    let init =
      if cur st = SEMI then None
      else if starts_type st then Some (parse_decl_stmt st ~consume_semi:false)
      else Some (Ast.mk_stmt ~loc (Ast.Sexpr (parse_expr st)))
    in
    expect st SEMI;
    let cond = if cur st = SEMI then None else Some (parse_expr st) in
    expect st SEMI;
    let step =
      if cur st = RPAREN then None
      else Some (Ast.mk_stmt ~loc (Ast.Sexpr (parse_expr st)))
    in
    expect st RPAREN;
    Ast.mk_stmt ~loc (Ast.Sfor (init, cond, step, parse_branch st))
  | KW_switch ->
    advance st;
    expect st LPAREN;
    let e = parse_expr st in
    expect st RPAREN;
    expect st LBRACE;
    let cases = parse_cases st in
    expect st RBRACE;
    Ast.mk_stmt ~loc (Ast.Sswitch (e, cases))
  | KW_return ->
    advance st;
    let e = if cur st = SEMI then None else Some (parse_expr st) in
    expect st SEMI;
    Ast.mk_stmt ~loc (Ast.Sreturn e)
  | KW_break ->
    advance st;
    expect st SEMI;
    Ast.mk_stmt ~loc Ast.Sbreak
  | KW_continue ->
    advance st;
    expect st SEMI;
    Ast.mk_stmt ~loc Ast.Scontinue
  | SEMI ->
    advance st;
    Ast.mk_stmt ~loc (Ast.Sblock [])
  | _ when starts_type st -> parse_decl_stmt st ~consume_semi:true
  | _ ->
    let e = parse_expr st in
    expect st SEMI;
    Ast.mk_stmt ~loc (Ast.Sexpr e)

(** A single statement or block used as a branch body, normalized to a
    statement list. *)
and parse_branch st : Ast.stmt list =
  match (parse_stmt st).sdesc with
  | Ast.Sblock body -> body
  | other -> [ Ast.mk_stmt other ]

and parse_cases st : Ast.case list =
  let rec go acc =
    let loc = cur_loc st in
    match cur st with
    | KW_case ->
      advance st;
      let v =
        match cur st with
        | INT n ->
          advance st;
          n
        | MINUS ->
          advance st;
          (match cur st with
          | INT n ->
            advance st;
            Int64.neg n
          | t -> parse_error st "expected integer case label, found %s" (Token.to_string t))
        | CHARLIT c ->
          advance st;
          Int64.of_int (Char.code c)
        | t -> parse_error st "expected integer case label, found %s" (Token.to_string t)
      in
      expect st COLON;
      let body = parse_case_body st in
      go ({ Ast.cval = Some v; cbody = body; cloc = loc } :: acc)
    | KW_default ->
      advance st;
      expect st COLON;
      let body = parse_case_body st in
      go ({ Ast.cval = None; cbody = body; cloc = loc } :: acc)
    | RBRACE -> List.rev acc
    | t -> parse_error st "expected case/default, found %s" (Token.to_string t)
  in
  go []

and parse_case_body st : Ast.stmt list =
  let rec go acc =
    match cur st with
    | KW_case | KW_default | RBRACE -> List.rev acc
    | _ -> go (parse_stmt st :: acc)
  in
  go []

and parse_block_items st : Ast.stmt list =
  let rec go acc =
    match cur st with RBRACE | EOF -> List.rev acc | _ -> go (parse_stmt st :: acc)
  in
  go []

(** Parse a local declaration statement: [ty d1 [= init] (, d2 [= init])* ;].
    Multiple declarators desugar into a block of single declarations. *)
and parse_decl_stmt st ~consume_semi : Ast.stmt =
  let loc = cur_loc st in
  let base = parse_type_spec st in
  let parse_one () =
    let ty = parse_stars st base in
    let name = expect_ident st in
    let ty = parse_array_suffix st ty in
    let init =
      if cur st = ASSIGN then begin
        advance st;
        Some (parse_init st)
      end
      else None
    in
    Ast.mk_stmt ~loc (Ast.Sdecl (ty, name, init))
  in
  let first = parse_one () in
  let rec more acc =
    if cur st = COMMA then begin
      advance st;
      more (parse_one () :: acc)
    end
    else List.rev acc
  in
  let rest = more [] in
  if consume_semi then expect st SEMI;
  match rest with [] -> first | _ -> Ast.mk_stmt ~loc (Ast.Sblock (first :: rest))

(* -- Top-level declarations -------------------------------------------- *)

let parse_params st : Ast.param list =
  if cur st = RPAREN then []
  else if cur st = KW_void && peek_at st 1 = RPAREN then begin
    advance st;
    []
  end
  else begin
    let rec go acc =
      let base = parse_type_spec st in
      let ty = parse_stars st base in
      (* prototypes may omit parameter names *)
      let name = match cur st with
        | IDENT x -> advance st; x
        | _ -> Fmt.str "$arg%d" (List.length acc)
      in
      let ty = parse_array_suffix st ty in
      (* array parameters decay to pointers *)
      let ty = match ty with Ty.Array (t, _) -> Ty.Ptr t | t -> t in
      let p = { Ast.pname = name; pty = ty } in
      if cur st = COMMA then begin
        advance st;
        go (p :: acc)
      end
      else List.rev (p :: acc)
    in
    go []
  end

let parse_struct_fields st : Ty.field list =
  let rec go acc =
    if cur st = RBRACE then List.rev acc
    else begin
      let base = parse_type_spec st in
      let rec declarators acc =
        let ty = parse_stars st base in
        let name = expect_ident st in
        let ty = parse_array_suffix st ty in
        let acc = { Ty.fname = name; fty = ty } :: acc in
        if cur st = COMMA then begin
          advance st;
          declarators acc
        end
        else acc
      in
      let acc = declarators acc in
      expect st SEMI;
      go acc
    end
  in
  go []

let rec parse_decl st ~(pending_annot : Annot.t) : Ast.decl list =
  let loc = cur_loc st in
  match cur st with
  | ANNOT payload ->
    advance st;
    let clauses =
      try Annot.parse_payload payload
      with Annot.Parse_error msg -> Loc.error loc "bad annotation: %s" msg
    in
    parse_decl st ~pending_annot:(pending_annot @ clauses)
  | KW_typedef ->
    advance st;
    let base = parse_type_spec st in
    let ty = parse_stars st base in
    let name = expect_ident st in
    let ty = parse_array_suffix st ty in
    expect st SEMI;
    Hashtbl.replace st.typedefs name ();
    [ Ast.Dtypedef (name, ty, loc) ]
  | KW_struct when peek_at st 2 = LBRACE ->
    advance st;
    let name = expect_ident st in
    expect st LBRACE;
    let fields = parse_struct_fields st in
    expect st RBRACE;
    (* allow "} TypedefName;" style?  MiniC: plain "};" *)
    expect st SEMI;
    [ Ast.Dstruct (name, fields, loc) ]
  | KW_extern ->
    advance st;
    let base = parse_type_spec st in
    let ty = parse_stars st base in
    let name = expect_ident st in
    if cur st = LPAREN then begin
      advance st;
      let params = parse_params st in
      expect st RPAREN;
      expect st SEMI;
      [ Ast.Dextern (name, ty, List.map (fun p -> p.Ast.pty) params, loc) ]
    end
    else begin
      let ty = parse_array_suffix st ty in
      expect st SEMI;
      (* extern data declaration: modeled as a global without initializer *)
      [ Ast.Dglobal { gname = name; gty = ty; ginit = None; gloc = loc } ]
    end
  | _ ->
    let base = parse_type_spec st in
    let ty = parse_stars st base in
    let name = expect_ident st in
    if cur st = LPAREN then begin
      (* function definition or prototype *)
      advance st;
      let params = parse_params st in
      expect st RPAREN;
      let annots = ref pending_annot in
      while (match cur st with ANNOT _ -> true | _ -> false) do
        (match cur st with
        | ANNOT payload ->
          let clauses =
            try Annot.parse_payload payload
            with Annot.Parse_error msg -> Loc.error (cur_loc st) "bad annotation: %s" msg
          in
          annots := !annots @ clauses
        | _ -> ());
        advance st
      done;
      if cur st = SEMI then begin
        advance st;
        [ Ast.Dextern (name, ty, List.map (fun p -> p.Ast.pty) params, loc) ]
      end
      else begin
        expect st LBRACE;
        let body = parse_block_items st in
        expect st RBRACE;
        [ Ast.Dfunc
            { fname = name; fret = ty; fparams = params; fbody = body;
              fannot = !annots; floc = loc } ]
      end
    end
    else begin
      (* global variable(s) *)
      let rec go acc ty name =
        let ty = parse_array_suffix st ty in
        let init =
          if cur st = ASSIGN then begin
            advance st;
            Some (parse_init st)
          end
          else None
        in
        let g = Ast.Dglobal { gname = name; gty = ty; ginit = init; gloc = loc } in
        if cur st = COMMA then begin
          advance st;
          let ty' = parse_stars st base in
          let name' = expect_ident st in
          go (g :: acc) ty' name'
        end
        else List.rev (g :: acc)
      in
      let decls = go [] ty name in
      expect st SEMI;
      decls
    end

(** Parse a full translation unit. *)
let parse_program lex : Ast.program =
  let st = make lex in
  let rec go acc =
    match cur st with
    | EOF -> List.concat (List.rev acc)
    | _ -> go (parse_decl st ~pending_annot:[] :: acc)
  in
  go []

(** Convenience: lex and parse a source string. *)
let parse_string ?(file = "<string>") src = parse_program (Lexer.make ~file src)

(** Lex and parse a file on disk. *)
let parse_file path = parse_string ~file:path (Loc.read_source path)
