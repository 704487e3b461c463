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
   [peek_at].  Each slot keeps its token and the token's start line and
   column as plain ints; a {!Loc.t} is built only for the tokens an AST
   node or a diagnostic is located at.  The parser never backtracks, so
   nothing else is kept. *)
type state = {
  lex : Lexer.state;
  toks : Token.t array;  (** [toks.(0)] is the current token *)
  lines : int array;
  cols : int array;
  mutable filled : int;  (** tokens in the window, at least 1 *)
  typedefs : (string, int) Hashtbl.t;
      (** typedef names, each with the number of typedef names declared
          before it *)
  mutable typedef_limit : int;  (** names numbered from here on are not visible yet *)
  defer_bodies : bool;  (** skip function bodies, recording them in [deferred] *)
  mutable deferred : body list;  (** newest first *)
  mutable last_loc : Loc.t;  (** the location built last, shared when asked again *)
}

(* A function body skipped by [parse_program_deferred]: the lexer
   position after its opening brace and the typedefs visible there. *)
and body = { b_st : state; b_mark : Lexer.mark; b_limit : int }

let pull st k =
  st.toks.(k) <- Lexer.next st.lex;
  st.lines.(k) <- Lexer.tok_line st.lex;
  st.cols.(k) <- Lexer.tok_col st.lex

let make ?(defer_bodies = false) lex =
  let st =
    { lex; toks = Array.make 3 EOF; lines = Array.make 3 0; cols = Array.make 3 0; filled = 1;
      typedefs = Hashtbl.create 16; typedef_limit = max_int; defer_bodies; deferred = [];
      last_loc = Loc.dummy }
  in
  pull st 0;
  st

let cur st = Array.unsafe_get st.toks 0

(* Is the current token [t]?  Only for constant constructors, which are
   immediate values, so physical equality decides it without a
   polymorphic compare. *)
let is st (t : Token.t) = cur st == t

(* A statement and its first expression start at the same token, so
   the last location built is reused when it is asked for again. *)
let cur_loc st =
  let l = st.last_loc in
  if l.Loc.line = st.lines.(0) && l.Loc.col = st.cols.(0) && l.Loc.file == Lexer.file st.lex then l
  else begin
    let l = Loc.make ~file:(Lexer.file st.lex) ~line:st.lines.(0) ~col:st.cols.(0) in
    st.last_loc <- l;
    l
  end

(* n <= 2; past the end the lexer keeps answering EOF *)
let peek_at st n =
  while st.filled <= n do
    pull st st.filled;
    st.filled <- st.filled + 1
  done;
  st.toks.(n)

let advance st =
  if st.filled = 1 then pull st 0
  else begin
    st.toks.(0) <- st.toks.(1);
    st.lines.(0) <- st.lines.(1);
    st.cols.(0) <- st.cols.(1);
    st.toks.(1) <- st.toks.(2);
    st.lines.(1) <- st.lines.(2);
    st.cols.(1) <- st.cols.(2);
    st.filled <- st.filled - 1
  end

(* AST nodes without the optional-argument box of {!Ast.mk_expr} *)
let ex loc edesc = { Ast.edesc; eloc = loc }
let stm loc sdesc = { Ast.sdesc; sloc = loc }

let parse_error st fmt =
  Loc.error (cur_loc st) ("parse error: " ^^ fmt)

let expect st tok =
  if is st tok then advance st
  else
    parse_error st "expected %s but found %s" (Token.to_string tok)
      (Token.to_string (cur st))

let expect_ident st =
  match cur st with
  | IDENT x ->
    advance st;
    x
  | t -> parse_error st "expected identifier, found %s" (Token.to_string t)

let is_typedef_name st name =
  match Hashtbl.find st.typedefs name with
  | i -> i < st.typedef_limit
  | exception Not_found -> false

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
  while is st STAR do
    advance st;
    (match cur st with KW_const -> advance st | _ -> ());
    ty := Ty.Ptr !ty
  done;
  !ty

(** Array suffixes after a declarator name: [N][M]... *)
let parse_array_suffix st base =
  let dims = ref [] in
  while is st LBRACKET do
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

(* Binary operators by precedence climbing: the precedence of a token
   that is a binary operator (0 for any other token), from [||] (1) to
   the multiplicative operators (10).  All levels are left-associative,
   so [parse_binary st p] builds the same tree as one descent function
   per level would. *)
let binop_prec : Token.t -> int = function
  | OROR -> 1
  | ANDAND -> 2
  | PIPE -> 3
  | CARET -> 4
  | AMP -> 5
  | EQEQ | NEQ -> 6
  | LT | LE | GT | GE -> 7
  | SHL | SHR -> 8
  | PLUS | MINUS -> 9
  | STAR | SLASH | PERCENT -> 10
  | _ -> 0

let binop_of : Token.t -> Ast.binop = function
  | OROR -> Lor
  | ANDAND -> Land
  | PIPE -> Bor
  | CARET -> Bxor
  | AMP -> Band
  | EQEQ -> Eq
  | NEQ -> Ne
  | LT -> Lt
  | LE -> Le
  | GT -> Gt
  | GE -> Ge
  | SHL -> Shl
  | SHR -> Shr
  | PLUS -> Add
  | MINUS -> Sub
  | STAR -> Mul
  | SLASH -> Div
  | PERCENT -> Mod
  | t -> invalid_arg ("Parser.binop_of " ^ Token.to_string t)

(* [lv = lv op 1], the desugaring of [++]/[--] *)
let bump loc op lv = ex loc (Ast.Assign (lv, ex loc (Ast.Binop (op, lv, Ast.int_e ~loc 1))))

let rec parse_expr st : Ast.expr = parse_assign st

and parse_assign st =
  let lhs = parse_cond st in
  match cur st with
  | ASSIGN ->
    advance st;
    let rhs = parse_assign st in
    ex lhs.Ast.eloc (Ast.Assign (lhs, rhs))
  | PLUSEQ -> compound st lhs Ast.Add
  | MINUSEQ -> compound st lhs Ast.Sub
  | STAREQ -> compound st lhs Ast.Mul
  | SLASHEQ -> compound st lhs Ast.Div
  | PERCENTEQ -> compound st lhs Ast.Mod
  | AMPEQ -> compound st lhs Ast.Band
  | PIPEEQ -> compound st lhs Ast.Bor
  | CARETEQ -> compound st lhs Ast.Bxor
  | SHLEQ -> compound st lhs Ast.Shl
  | SHREQ -> compound st lhs Ast.Shr
  | _ -> lhs

and compound st lhs op =
  advance st;
  let rhs = parse_assign st in
  let loc = lhs.Ast.eloc in
  ex loc (Ast.Assign (lhs, ex loc (Ast.Binop (op, lhs, rhs))))

and parse_cond st =
  let c = parse_binary st 1 in
  if is st QUESTION then begin
    advance st;
    let a = parse_expr st in
    expect st COLON;
    let b = parse_cond st in
    ex c.Ast.eloc (Ast.Cond (c, a, b))
  end
  else c

(* a unary operand followed by binary operators of precedence at least
   [min_prec] *)
and parse_binary st min_prec = climb st min_prec (parse_unary st)

and climb st min_prec lhs =
  let t = cur st in
  let p = binop_prec t in
  if p = 0 || p < min_prec then lhs
  else begin
    advance st;
    let rhs = parse_binary st (p + 1) in
    climb st min_prec (ex lhs.Ast.eloc (Ast.Binop (binop_of t, lhs, rhs)))
  end

and parse_unary st =
  match cur st with
  | MINUS -> prefix st (fun a -> Ast.Unop (Ast.Neg, a))
  | BANG -> prefix st (fun a -> Ast.Unop (Ast.Lnot, a))
  | TILDE -> prefix st (fun a -> Ast.Unop (Ast.Bnot, a))
  | PLUS ->
    advance st;
    parse_unary st
  | STAR -> prefix st (fun a -> Ast.Deref a)
  | AMP -> prefix st (fun a -> Ast.Addr a)
  | PLUSPLUS ->
    let loc = cur_loc st in
    advance st;
    bump loc Ast.Add (parse_unary st)
  | MINUSMINUS ->
    let loc = cur_loc st in
    advance st;
    bump loc Ast.Sub (parse_unary st)
  | KW_sizeof ->
    let loc = cur_loc st in
    advance st;
    expect st LPAREN;
    let ty =
      if starts_type st then parse_stars st (parse_type_spec st)
      else
        (* sizeof(expr) is restricted to sizeof(type) in MiniC *)
        parse_error st "sizeof requires a type in MiniC"
    in
    expect st RPAREN;
    ex loc (Ast.Sizeof ty)
  | LPAREN when starts_type_cast st ->
    let loc = cur_loc st in
    advance st;
    let ty = parse_stars st (parse_type_spec st) in
    expect st RPAREN;
    ex loc (Ast.Cast (ty, parse_unary st))
  | _ -> parse_postfix st

(* a prefix operator at the current token applied to the unary operand
   after it *)
and prefix st mk =
  let loc = cur_loc st in
  advance st;
  ex loc (mk (parse_unary st))

(* A '(' begins a cast if the following token starts a type (and the parse
   is not a compound literal, which MiniC lacks). *)
and starts_type_cast st =
  match peek_at st 1 with
  | KW_void | KW_char | KW_int | KW_long | KW_float | KW_double | KW_struct
  | KW_const | KW_unsigned ->
    true
  | IDENT x -> is_typedef_name st x
  | _ -> false

and parse_postfix st = postfix st (parse_primary st)

and postfix st e =
  match cur st with
  | LBRACKET ->
    let loc = cur_loc st in
    advance st;
    let idx = parse_expr st in
    expect st RBRACKET;
    postfix st (ex loc (Ast.Index (e, idx)))
  | DOT ->
    let loc = cur_loc st in
    advance st;
    let f = expect_ident st in
    postfix st (ex loc (Ast.Field (e, f)))
  | ARROW ->
    let loc = cur_loc st in
    advance st;
    let f = expect_ident st in
    postfix st (ex loc (Ast.Arrow (e, f)))
  | PLUSPLUS ->
    let loc = cur_loc st in
    advance st;
    postfix st (bump loc Ast.Add e)
  | MINUSMINUS ->
    let loc = cur_loc st in
    advance st;
    postfix st (bump loc Ast.Sub e)
  | _ -> e

and parse_primary st =
  match cur st with
  | INT n -> leaf st (Ast.Cint n)
  | FLOATLIT f -> leaf st (Ast.Cfloat f)
  | STRING s -> leaf st (Ast.Cstr s)
  | CHARLIT c -> leaf st (Ast.Cchar c)
  | IDENT x ->
    let loc = cur_loc st in
    advance st;
    if is st LPAREN then begin
      advance st;
      let args = parse_args st in
      expect st RPAREN;
      ex loc (Ast.Call (x, args))
    end
    else ex loc (Ast.Var x)
  | LPAREN ->
    advance st;
    let e = parse_expr st in
    expect st RPAREN;
    e
  | t -> parse_error st "unexpected token %s in expression" (Token.to_string t)

(* the one-token expression at the current token *)
and leaf st edesc =
  let loc = cur_loc st in
  advance st;
  ex loc edesc

and parse_args st =
  if is st RPAREN then []
  else
    let rec go acc =
      let e = parse_expr st in
      if is st COMMA then begin
        advance st;
        go (e :: acc)
      end
      else List.rev (e :: acc)
    in
    go []

(* -- Initializers ------------------------------------------------------ *)

let rec parse_init st : Ast.init =
  if is st LBRACE then begin
    advance st;
    let rec go acc =
      if is st RBRACE then begin
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
    stm loc (Ast.Sannot clauses)
  | LBRACE ->
    advance st;
    let body = parse_block_items st in
    expect st RBRACE;
    stm loc (Ast.Sblock body)
  | KW_if ->
    advance st;
    expect st LPAREN;
    let c = parse_expr st in
    expect st RPAREN;
    let then_branch = parse_branch st in
    let else_branch =
      if is st KW_else then begin
        advance st;
        parse_branch st
      end
      else []
    in
    stm loc (Ast.Sif (c, then_branch, else_branch))
  | KW_while ->
    advance st;
    expect st LPAREN;
    let c = parse_expr st in
    expect st RPAREN;
    stm loc (Ast.Swhile (c, parse_branch st))
  | KW_do ->
    advance st;
    let body = parse_branch st in
    expect st KW_while;
    expect st LPAREN;
    let c = parse_expr st in
    expect st RPAREN;
    expect st SEMI;
    stm loc (Ast.Sdo (body, c))
  | KW_for ->
    advance st;
    expect st LPAREN;
    let init =
      if is st SEMI then None
      else if starts_type st then Some (parse_decl_stmt st ~consume_semi:false)
      else Some (stm loc (Ast.Sexpr (parse_expr st)))
    in
    expect st SEMI;
    let cond = if is st SEMI then None else Some (parse_expr st) in
    expect st SEMI;
    let step =
      if is st RPAREN then None
      else Some (stm loc (Ast.Sexpr (parse_expr st)))
    in
    expect st RPAREN;
    stm loc (Ast.Sfor (init, cond, step, parse_branch st))
  | KW_switch ->
    advance st;
    expect st LPAREN;
    let e = parse_expr st in
    expect st RPAREN;
    expect st LBRACE;
    let cases = parse_cases st in
    expect st RBRACE;
    stm loc (Ast.Sswitch (e, cases))
  | KW_return ->
    advance st;
    let e = if is st SEMI then None else Some (parse_expr st) in
    expect st SEMI;
    stm loc (Ast.Sreturn e)
  | KW_break ->
    advance st;
    expect st SEMI;
    stm loc Ast.Sbreak
  | KW_continue ->
    advance st;
    expect st SEMI;
    stm loc Ast.Scontinue
  | SEMI ->
    advance st;
    stm loc (Ast.Sblock [])
  | _ when starts_type st -> parse_decl_stmt st ~consume_semi:true
  | _ ->
    let e = parse_expr st in
    expect st SEMI;
    stm loc (Ast.Sexpr e)

(** A single statement or block used as a branch body, normalized to a
    statement list. *)
and parse_branch st : Ast.stmt list =
  match (parse_stmt st).sdesc with
  | Ast.Sblock body -> body
  | other -> [ stm Loc.dummy other ]

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

(* statement lists are built in order, without a reversed copy *)
and parse_case_body st : Ast.stmt list =
  match cur st with
  | KW_case | KW_default | RBRACE -> []
  | _ ->
    let s = parse_stmt st in
    s :: parse_case_body st

and parse_block_items st : Ast.stmt list =
  match cur st with
  | RBRACE | EOF -> []
  | _ ->
    let s = parse_stmt st in
    s :: parse_block_items st

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
      if is st ASSIGN then begin
        advance st;
        Some (parse_init st)
      end
      else None
    in
    stm loc (Ast.Sdecl (ty, name, init))
  in
  let first = parse_one () in
  let rec more acc =
    if is st COMMA then begin
      advance st;
      more (parse_one () :: acc)
    end
    else List.rev acc
  in
  let rest = more [] in
  if consume_semi then expect st SEMI;
  match rest with [] -> first | _ -> stm loc (Ast.Sblock (first :: rest))

(* -- Top-level declarations -------------------------------------------- *)

(* Skip the block whose opening brace is the current token up to the
   brace that closes it, which becomes the current token.  The window
   must hold only the current token. *)
let skip_block st =
  let closed = Lexer.skip_block st.lex in
  st.toks.(0) <- (if closed then RBRACE else EOF);
  st.lines.(0) <- Lexer.tok_line st.lex;
  st.cols.(0) <- Lexer.tok_col st.lex

let parse_params st : Ast.param list =
  if is st RPAREN then []
  else if is st KW_void && peek_at st 1 == RPAREN then begin
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
      if is st COMMA then begin
        advance st;
        go (p :: acc)
      end
      else List.rev (p :: acc)
    in
    go []
  end

let parse_struct_fields st : Ty.field list =
  let rec go acc =
    if is st RBRACE then List.rev acc
    else begin
      let base = parse_type_spec st in
      let rec declarators acc =
        let ty = parse_stars st base in
        let name = expect_ident st in
        let ty = parse_array_suffix st ty in
        let acc = { Ty.fname = name; fty = ty } :: acc in
        if is st COMMA then begin
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
    if not (Hashtbl.mem st.typedefs name) then
      Hashtbl.add st.typedefs name (Hashtbl.length st.typedefs);
    [ Ast.Dtypedef (name, ty, loc) ]
  | KW_struct when peek_at st 2 == LBRACE ->
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
    if is st LPAREN then begin
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
    if is st LPAREN then begin
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
      if is st SEMI then begin
        advance st;
        [ Ast.Dextern (name, ty, List.map (fun p -> p.Ast.pty) params, loc) ]
      end
      else begin
        let body =
          if st.defer_bodies && is st LBRACE then begin
            (* a body is deferred from the lexer position right after its
               brace, so no token after the brace may be lexed yet *)
            if st.filled <> 1 then parse_error st "function body after a lookahead";
            st.deferred <-
              { b_st = st; b_mark = Lexer.mark st.lex; b_limit = Hashtbl.length st.typedefs }
              :: st.deferred;
            skip_block st;
            []
          end
          else begin
            expect st LBRACE;
            parse_block_items st
          end
        in
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
          if is st ASSIGN then begin
            advance st;
            Some (parse_init st)
          end
          else None
        in
        let g = Ast.Dglobal { gname = name; gty = ty; ginit = init; gloc = loc } in
        if is st COMMA then begin
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

(** A translation unit whose function bodies are left unparsed. *)
let parse_program_deferred lex : Ast.program * body list =
  let st = make ~defer_bodies:true lex in
  let rec go acc =
    match cur st with
    | EOF -> List.concat (List.rev acc)
    | _ -> go (parse_decl st ~pending_annot:[] :: acc)
  in
  let prog = go [] in
  (prog, List.rev st.deferred)

(** The statements of a deferred body, parsed by the state that skipped
    it, moved back to the body and to the typedefs visible there. *)
let parse_body b : Ast.stmt list =
  let st = b.b_st in
  Lexer.seek st.lex b.b_mark;
  st.typedef_limit <- b.b_limit;
  st.filled <- 1;
  pull st 0;
  let stmts = parse_block_items st in
  (* the closing brace is the skipping state's next token already *)
  if not (is st RBRACE) then expect st RBRACE;
  stmts

(** Convenience: lex and parse a source string. *)
let parse_string ?(file = "<string>") src = parse_program (Lexer.make ~file src)

(** Lex and parse a file on disk. *)
let parse_file path = parse_string ~file:path (Loc.read_source path)
