(* The previous MiniC frontend, kept as the test oracle for the current
   one: a lexer that builds a located record per token, a parser that
   descends one function per precedence level and compares tokens with
   polymorphic equality, and a typechecker whose block scopes are a
   chain of hash tables.  test_minic.ml checks that the library frontend
   yields the same AST and typed AST, or the same located error, on
   sprog programs, Synth output and token-level mutants of the five
   systems. *)

open Minic

module Lexer = struct
  let keyword_of_string : string -> Token.t option = function
    | "void" -> Some Token.KW_void
    | "char" -> Some Token.KW_char
    | "int" -> Some Token.KW_int
    | "long" -> Some Token.KW_long
    | "float" -> Some Token.KW_float
    | "double" -> Some Token.KW_double
    | "struct" -> Some Token.KW_struct
    | "typedef" -> Some Token.KW_typedef
    | "extern" -> Some Token.KW_extern
    | "static" -> Some Token.KW_static
    | "const" -> Some Token.KW_const
    | "unsigned" -> Some Token.KW_unsigned
    | "if" -> Some Token.KW_if
    | "else" -> Some Token.KW_else
    | "while" -> Some Token.KW_while
    | "for" -> Some Token.KW_for
    | "do" -> Some Token.KW_do
    | "return" -> Some Token.KW_return
    | "break" -> Some Token.KW_break
    | "continue" -> Some Token.KW_continue
    | "switch" -> Some Token.KW_switch
    | "case" -> Some Token.KW_case
    | "default" -> Some Token.KW_default
    | "sizeof" -> Some Token.KW_sizeof
    | _ -> None

  (** Hand-written lexer for MiniC.

      Block comments whose body contains the SafeFlow annotation marker are
      not discarded: their payload (marker stripped) is emitted as an
      [ANNOT] token so the parser can attach annotations to functions and
      statements. *)

  type lexed = { tok : Token.t; loc : Loc.t }

  type state = {
    src : string;
    file : string;
    mutable pos : int;
    mutable line : int;
    mutable bol : int;  (* offset of beginning of current line *)
  }

  let make ~file src = { src; file; pos = 0; line = 1; bol = 0 }

  let loc_of st = Loc.make ~file:st.file ~line:st.line ~col:(st.pos - st.bol + 1)

  let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

  (* the character at [st.pos + k], or NUL past the end (which matches no
     character the lexer looks ahead for) *)
  let char_at st k =
    let i = st.pos + k in
    if i < String.length st.src then String.unsafe_get st.src i else '\000'

  let advance st =
    if st.pos < String.length st.src && String.unsafe_get st.src st.pos = '\n' then begin
      st.line <- st.line + 1;
      st.bol <- st.pos + 1
    end;
    st.pos <- st.pos + 1

  (* advance over a run of characters satisfying [p] (none of them a
     newline) *)
  let skip_while st p =
    let src = st.src in
    let len = String.length src in
    let i = ref st.pos in
    while !i < len && p (String.unsafe_get src !i) do
      incr i
    done;
    st.pos <- !i

  let is_digit c = c >= '0' && c <= '9'
  let is_hex_digit c = is_digit c || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
  let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
  let is_ident_char c = is_ident_start c || is_digit c

  let lex_error st fmt = Loc.error (loc_of st) fmt

  (** Consume a block comment (opening "/*" already consumed).  Returns the
      end offset of its body, which starts where the call found [st.pos]. *)
  let skip_block_comment st =
    let src = st.src in
    let len = String.length src in
    let rec go i =
      if i + 1 < len && String.unsafe_get src i = '*' && String.unsafe_get src (i + 1) = '/'
      then begin
        st.pos <- i + 2;
        i
      end
      else if i >= len then begin
        st.pos <- len;
        lex_error st "unterminated comment"
      end
      else begin
        if String.unsafe_get src i = '\n' then begin
          st.line <- st.line + 1;
          st.bol <- i + 1
        end;
        go (i + 1)
      end
    in
    go st.pos

  (* Skip whitespace, line comments and preprocessor lines (systems use
     #include/#define only for constants we inline), stopping at the first
     character of anything else. *)
  let skip_blank st =
    let src = st.src in
    let len = String.length src in
    let rec line_end i = if i < len && String.unsafe_get src i <> '\n' then line_end (i + 1) else i in
    let rec go i =
      if i >= len then i
      else
        match String.unsafe_get src i with
        | ' ' | '\t' | '\r' -> go (i + 1)
        | '\n' ->
          st.line <- st.line + 1;
          st.bol <- i + 1;
          go (i + 1)
        | '#' -> go (line_end i)
        | '/' when i + 1 < len && String.unsafe_get src (i + 1) = '/' -> go (line_end i)
        | _ -> i
    in
    st.pos <- go st.pos

  (** The payload of an annotation comment whose body is
      [src.[start .. stop-1]]: the text after the first occurrence of the
      annotation marker, or [None] when the body does not contain it. *)
  let annotation_payload src ~start ~stop =
    let m = Annot.marker in
    let k = String.length m in
    let rec matches_at i j = j = k || (src.[i + j] = m.[j] && matches_at i (j + 1)) in
    let rec find i =
      if i + k > stop then None
      else if matches_at i 0 then Some (String.sub src (i + k) (stop - i - k))
      else find (i + 1)
    in
    find start

  let read_escaped st =
    match peek st with
    | Some 'n' -> advance st; '\n'
    | Some 't' -> advance st; '\t'
    | Some 'r' -> advance st; '\r'
    | Some '0' -> advance st; '\000'
    | Some '\\' -> advance st; '\\'
    | Some '\'' -> advance st; '\''
    | Some '"' -> advance st; '"'
    | Some c -> advance st; c
    | None -> lex_error st "unterminated escape"

  let read_string st =
    let buf = Buffer.create 16 in
    let rec go () =
      match peek st with
      | Some '"' -> advance st
      | Some '\\' ->
        advance st;
        Buffer.add_char buf (read_escaped st);
        go ()
      | Some c ->
        Buffer.add_char buf c;
        advance st;
        go ()
      | None -> lex_error st "unterminated string literal"
    in
    go ();
    Buffer.contents buf

  let read_number st =
    let loc = loc_of st in
    let start = st.pos in
    let is_hex =
      match (char_at st 0, char_at st 1) with
      | '0', ('x' | 'X') ->
        st.pos <- st.pos + 2;
        true
      | _ -> false
    in
    skip_while st (if is_hex then is_hex_digit else is_digit);
    let is_float = ref false in
    if not is_hex then begin
      if char_at st 0 = '.' then begin
        is_float := true;
        st.pos <- st.pos + 1;
        skip_while st is_digit
      end;
      match char_at st 0 with
      | 'e' | 'E' ->
        is_float := true;
        st.pos <- st.pos + 1;
        (match char_at st 0 with '+' | '-' -> st.pos <- st.pos + 1 | _ -> ());
        skip_while st is_digit
      | _ -> ()
    end;
    (* trailing suffixes f/F/l/L/u/U — not part of the numeric text *)
    let suffix_start = st.pos in
    let f_suffix = ref false in
    skip_while st (function
      | 'f' | 'F' when not is_hex ->
        f_suffix := true;
        true
      | 'l' | 'L' | 'u' | 'U' -> true
      | _ -> false);
    let text = String.sub st.src start (suffix_start - start) in
    let bad () = Loc.error loc "malformed or out-of-range numeric literal %s" text in
    if !is_float || !f_suffix then
      match float_of_string_opt text with Some x -> Token.FLOATLIT x | None -> bad ()
    else match Int64.of_string_opt text with Some n -> Token.INT n | None -> bad ()

  (** Lex the next token.  Skips whitespace, line comments, preprocessor
      lines and plain block comments; annotation comments become tokens. *)
  let rec next st : lexed =
    skip_blank st;
    let loc = loc_of st in
    if st.pos >= String.length st.src then { tok = EOF; loc }
    else
      match String.unsafe_get st.src st.pos with
      | '/' -> (
        match char_at st 1 with
        | '*' ->
          st.pos <- st.pos + 2;
          let start = st.pos in
          let stop = skip_block_comment st in
          (match annotation_payload st.src ~start ~stop with
          | Some payload -> { tok = ANNOT payload; loc }
          | None -> next st)
        | '=' ->
          st.pos <- st.pos + 2;
          { tok = SLASHEQ; loc }
        | _ ->
          st.pos <- st.pos + 1;
          { tok = SLASH; loc })
      | '"' ->
        advance st;
        { tok = STRING (read_string st); loc }
      | '\'' ->
        advance st;
        let c =
          match peek st with
          | Some '\\' ->
            advance st;
            read_escaped st
          | Some c ->
            advance st;
            c
          | None -> lex_error st "unterminated char literal"
        in
        (match peek st with
        | Some '\'' -> advance st
        | _ -> lex_error st "unterminated char literal");
        { tok = CHARLIT c; loc }
      | c when is_digit c -> { tok = read_number st; loc }
      | c when is_ident_start c ->
        let start = st.pos in
        skip_while st is_ident_char;
        let text = String.sub st.src start (st.pos - start) in
        let tok =
          match keyword_of_string text with
          | Some kw -> kw
          | None -> Token.IDENT text
        in
        { tok; loc }
      | c ->
        st.pos <- st.pos + 1;
        let two expected (tok1 : Token.t) (tok0 : Token.t) =
          if char_at st 0 = expected then begin
            st.pos <- st.pos + 1;
            tok1
          end
          else tok0
        in
        let tok : Token.t =
          match c with
          | '(' -> LPAREN
          | ')' -> RPAREN
          | '{' -> LBRACE
          | '}' -> RBRACE
          | '[' -> LBRACKET
          | ']' -> RBRACKET
          | ';' -> SEMI
          | ',' -> COMMA
          | ':' -> COLON
          | '?' -> QUESTION
          | '.' -> DOT
          | '+' -> (
            match char_at st 0 with
            | '+' -> st.pos <- st.pos + 1; PLUSPLUS
            | '=' -> st.pos <- st.pos + 1; PLUSEQ
            | _ -> PLUS)
          | '-' -> (
            match char_at st 0 with
            | '-' -> st.pos <- st.pos + 1; MINUSMINUS
            | '=' -> st.pos <- st.pos + 1; MINUSEQ
            | '>' -> st.pos <- st.pos + 1; ARROW
            | _ -> MINUS)
          | '*' -> two '=' STAREQ STAR
          | '%' -> two '=' PERCENTEQ PERCENT
          | '~' -> TILDE
          | '!' -> two '=' NEQ BANG
          | '^' -> two '=' CARETEQ CARET
          | '&' -> (
            match char_at st 0 with
            | '&' -> st.pos <- st.pos + 1; ANDAND
            | '=' -> st.pos <- st.pos + 1; AMPEQ
            | _ -> AMP)
          | '|' -> (
            match char_at st 0 with
            | '|' -> st.pos <- st.pos + 1; OROR
            | '=' -> st.pos <- st.pos + 1; PIPEEQ
            | _ -> PIPE)
          | '<' -> (
            match char_at st 0 with
            | '<' ->
              st.pos <- st.pos + 1;
              two '=' SHLEQ SHL
            | '=' -> st.pos <- st.pos + 1; LE
            | _ -> LT)
          | '>' -> (
            match char_at st 0 with
            | '>' ->
              st.pos <- st.pos + 1;
              two '=' SHREQ SHR
            | '=' -> st.pos <- st.pos + 1; GE
            | _ -> GT)
          | '=' -> two '=' EQEQ ASSIGN
          | c -> Loc.error loc "unexpected character %C" c
        in
        { tok; loc }

  (** Lex an entire source buffer. *)
  let tokenize ~file src : lexed list =
    let st = make ~file src in
    let rec go acc =
      let lx = next st in
      match lx.tok with EOF -> List.rev (lx :: acc) | _ -> go (lx :: acc)
    in
    go []
end

module Parser = struct
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
end

module Typecheck = struct
  (** Type checker and elaborator: [Ast.program] → [Tast.program].

      Responsibilities:
      - build the struct/typedef environment;
      - resolve typedefs and fold [sizeof];
      - insert explicit array-to-pointer decay and implicit arithmetic
        conversions (as casts);
      - alpha-rename block-scoped locals to unique names and collect them;
      - desugar brace initializers of locals into element assignments and of
        globals into (offset, value) lists;
      - reject constructs outside the MiniC subset. *)

  type scope = {
    parent : scope option;
    vars : (string, string * Ty.t) Hashtbl.t;  (* source name -> unique name, type *)
  }

  type fstate = {
    env : Ty.env;
    globals : (string, Ty.t) Hashtbl.t;
    funcs : (string, Ty.t * Ty.t list) Hashtbl.t;  (* defined + extern *)
    mutable locals : (string * Ty.t) list;  (* accumulated, reverse order *)
    counters : (string, int) Hashtbl.t;
    ret : Ty.t;
  }

  let err loc fmt = Loc.error loc ("type error: " ^^ fmt)

  let rec lookup_scope scope name =
    match Hashtbl.find_opt scope.vars name with
    | Some r -> Some r
    | None -> ( match scope.parent with Some p -> lookup_scope p name | None -> None)

  let fresh_name fs name =
    let n = Option.value ~default:0 (Hashtbl.find_opt fs.counters name) in
    Hashtbl.replace fs.counters name (n + 1);
    if n = 0 then name else Fmt.str "%s$%d" name n

  (** Resolve a possibly-typedef'd type, erroring on unknown names. *)
  let resolve_ty env loc ty =
    try Ty.resolve env ty
    with Not_found -> err loc "unknown type %a" Ty.pp ty

  (* deep-resolve: rewrite Named nodes everywhere inside the type *)
  let rec deep_resolve env loc ty =
    match resolve_ty env loc ty with
    | Ty.Ptr t -> Ty.Ptr (deep_resolve env loc t)
    | Ty.Array (t, n) -> Ty.Array (deep_resolve env loc t, n)
    | Ty.Fun (r, args) ->
      Ty.Fun (deep_resolve env loc r, List.map (deep_resolve env loc) args)
    | t -> t

  let mk ?(loc = Loc.dummy) tdesc tty : Tast.texpr = { tdesc; tty; tloc = loc }

  (** Insert array decay when an array-typed expression is used as a value. *)
  let decay e =
    match e.Tast.tty with
    | Ty.Array (t, _) -> mk ~loc:e.Tast.tloc (Tast.Tdecay e) (Ty.Ptr t)
    | _ -> e

  (** Usual arithmetic conversion: the common type of two arithmetic
      operands. *)
  let common_arith a b =
    match (a, b) with
    | Ty.Double, _ | _, Ty.Double -> Ty.Double
    | Ty.Float, _ | _, Ty.Float -> Ty.Float
    | Ty.Long, _ | _, Ty.Long -> Ty.Long
    | _ -> Ty.Int

  (** Coerce [e] to type [want], inserting a cast when needed.  Allows
      arithmetic conversions, void*-to-pointer adjustments and null-pointer
      constants. *)
  let coerce env loc want e =
    let have = e.Tast.tty in
    if Ty.compatible env want have then e
    else
      match (Ty.resolve env want, Ty.resolve env have) with
      | a, b when Ty.is_arith a && Ty.is_arith b -> mk ~loc (Tast.Tcast (want, e)) want
      | Ty.Ptr _, Ty.Ptr Ty.Void | Ty.Ptr Ty.Void, Ty.Ptr _ ->
        mk ~loc (Tast.Tcast (want, e)) want
      | Ty.Ptr _, _ when (match e.Tast.tdesc with Tast.Tint 0L -> true | _ -> false) ->
        mk ~loc (Tast.Tcast (want, e)) want
      | _ ->
        err loc "cannot convert %a to %a" Ty.pp have Ty.pp want

  let rec check_expr fs scope (e : Ast.expr) : Tast.texpr =
    let loc = e.eloc in
    let env = fs.env in
    match e.edesc with
    | Ast.Cint n -> mk ~loc (Tast.Tint n) Ty.Int
    | Ast.Cfloat f -> mk ~loc (Tast.Tfloat f) Ty.Double
    | Ast.Cchar c -> mk ~loc (Tast.Tint (Int64.of_int (Char.code c))) Ty.Char
    | Ast.Cstr s -> mk ~loc (Tast.Tstr s) (Ty.Ptr Ty.Char)
    | Ast.Var x -> (
      match lookup_scope scope x with
      | Some (uname, ty) -> mk ~loc (Tast.Tlocal uname) ty
      | None -> (
        match Hashtbl.find_opt fs.globals x with
        | Some ty -> mk ~loc (Tast.Tglobal x) ty
        | None -> err loc "unbound variable %s" x))
    | Ast.Sizeof ty ->
      let ty = deep_resolve env loc ty in
      mk ~loc (Tast.Tint (Int64.of_int (Ty.sizeof env ty))) Ty.Long
    | Ast.Unop (op, a) -> (
      let a = decay (check_expr fs scope a) in
      match op with
      | Ast.Neg ->
        if not (Ty.is_arith (Ty.resolve env a.tty)) then err loc "negation of non-arithmetic";
        mk ~loc (Tast.Tunop (op, a)) a.tty
      | Ast.Lnot ->
        if not (Ty.is_scalar (Ty.resolve env a.tty)) then err loc "! of non-scalar";
        mk ~loc (Tast.Tunop (op, a)) Ty.Int
      | Ast.Bnot ->
        if not (Ty.is_integer (Ty.resolve env a.tty)) then err loc "~ of non-integer";
        mk ~loc (Tast.Tunop (op, a)) a.tty)
    | Ast.Binop (op, a, b) -> check_binop fs scope loc op a b
    | Ast.Assign (lhs, rhs) ->
      let lhs = check_expr fs scope lhs in
      if not (Tast.is_lvalue lhs) then err loc "assignment to non-lvalue";
      (match Ty.resolve env lhs.tty with
      | Ty.Array _ -> err loc "assignment to array"
      | _ -> ());
      let rhs = decay (check_expr fs scope rhs) in
      let rhs = coerce env loc lhs.tty rhs in
      mk ~loc (Tast.Tassign (lhs, rhs)) lhs.tty
    | Ast.Call (fname, args) -> (
      match Hashtbl.find_opt fs.funcs fname with
      | None -> err loc "call to undeclared function %s" fname
      | Some (ret, ptys) ->
        if List.length ptys <> List.length args then
          err loc "wrong number of arguments to %s (expected %d, got %d)" fname
            (List.length ptys) (List.length args);
        let args =
          List.map2
            (fun pty arg -> coerce env loc pty (decay (check_expr fs scope arg)))
            ptys args
        in
        mk ~loc (Tast.Tcall (fname, args)) ret)
    | Ast.Deref p -> (
      let p = decay (check_expr fs scope p) in
      match Ty.resolve env p.tty with
      | Ty.Ptr t -> mk ~loc (Tast.Tderef p) (deep_resolve env loc t)
      | t -> err loc "dereference of non-pointer (%a)" Ty.pp t)
    | Ast.Addr a ->
      let a = check_expr fs scope a in
      if not (Tast.is_lvalue a) then err loc "address of non-lvalue";
      mk ~loc (Tast.Taddr a) (Ty.Ptr a.tty)
    | Ast.Index (base, idx) -> (
      let base = check_expr fs scope base in
      let idx = decay (check_expr fs scope idx) in
      if not (Ty.is_integer (Ty.resolve env idx.tty)) then err loc "non-integer array index";
      match Ty.resolve env base.tty with
      | Ty.Array (t, _) -> mk ~loc (Tast.Tindex (base, idx)) (deep_resolve env loc t)
      | Ty.Ptr t -> mk ~loc (Tast.Tindex (decay base, idx)) (deep_resolve env loc t)
      | t -> err loc "indexing non-array (%a)" Ty.pp t)
    | Ast.Field (s, f) -> (
      let s = check_expr fs scope s in
      match Ty.resolve env s.tty with
      | Ty.Struct sname -> (
        match Ty.field_type env sname f with
        | Some fty -> mk ~loc (Tast.Tfield (s, f)) (deep_resolve env loc fty)
        | None -> err loc "struct %s has no field %s" sname f)
      | t -> err loc "field access on non-struct (%a)" Ty.pp t)
    | Ast.Arrow (p, f) ->
      check_expr fs scope
        (Ast.mk_expr ~loc (Ast.Field (Ast.mk_expr ~loc (Ast.Deref p), f)))
    | Ast.Cast (ty, a) ->
      let ty = deep_resolve env loc ty in
      let a = decay (check_expr fs scope a) in
      mk ~loc (Tast.Tcast (ty, a)) ty
    | Ast.Cond (c, a, b) ->
      let c = decay (check_expr fs scope c) in
      if not (Ty.is_scalar (Ty.resolve env c.tty)) then err loc "non-scalar condition";
      let a = decay (check_expr fs scope a) in
      let b = decay (check_expr fs scope b) in
      let ty =
        if Ty.compatible env a.tty b.tty then a.tty
        else if Ty.is_arith (Ty.resolve env a.tty) && Ty.is_arith (Ty.resolve env b.tty)
        then common_arith (Ty.resolve env a.tty) (Ty.resolve env b.tty)
        else err loc "incompatible branches of ?:"
      in
      mk ~loc (Tast.Tcond (c, coerce env loc ty a, coerce env loc ty b)) ty

  and check_binop fs scope loc op a b =
    let env = fs.env in
    let a = decay (check_expr fs scope a) in
    let b = decay (check_expr fs scope b) in
    let ra = Ty.resolve env a.tty and rb = Ty.resolve env b.tty in
    match op with
    | Ast.Add | Ast.Sub -> (
      match (ra, rb) with
      | ta, tb when Ty.is_arith ta && Ty.is_arith tb ->
        let ty = common_arith ta tb in
        mk ~loc (Tast.Tbinop (op, coerce env loc ty a, coerce env loc ty b)) ty
      | Ty.Ptr _, tb when Ty.is_integer tb -> mk ~loc (Tast.Tbinop (op, a, b)) a.tty
      | ta, Ty.Ptr _ when Ty.is_integer ta && op = Ast.Add ->
        mk ~loc (Tast.Tbinop (op, b, a)) b.tty
      | Ty.Ptr _, Ty.Ptr _ when op = Ast.Sub ->
        mk ~loc (Tast.Tbinop (op, a, b)) Ty.Long
      | _ -> err loc "invalid operands of +/-")
    | Ast.Mul | Ast.Div ->
      if not (Ty.is_arith ra && Ty.is_arith rb) then err loc "invalid operands of */";
      let ty = common_arith ra rb in
      mk ~loc (Tast.Tbinop (op, coerce env loc ty a, coerce env loc ty b)) ty
    | Ast.Mod | Ast.Shl | Ast.Shr | Ast.Band | Ast.Bor | Ast.Bxor ->
      if not (Ty.is_integer ra && Ty.is_integer rb) then
        err loc "invalid operands of integer operator";
      let ty = common_arith ra rb in
      mk ~loc (Tast.Tbinop (op, coerce env loc ty a, coerce env loc ty b)) ty
    | Ast.Eq | Ast.Ne | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge -> (
      match (ra, rb) with
      | ta, tb when Ty.is_arith ta && Ty.is_arith tb ->
        let ty = common_arith ta tb in
        mk ~loc (Tast.Tbinop (op, coerce env loc ty a, coerce env loc ty b)) Ty.Int
      | Ty.Ptr _, Ty.Ptr _ -> mk ~loc (Tast.Tbinop (op, a, b)) Ty.Int
      | Ty.Ptr _, tb when Ty.is_integer tb ->
        mk ~loc (Tast.Tbinop (op, a, coerce env loc a.tty b)) Ty.Int
      | ta, Ty.Ptr _ when Ty.is_integer ta ->
        mk ~loc (Tast.Tbinop (op, coerce env loc b.tty a, b)) Ty.Int
      | _ -> err loc "invalid comparison operands")
    | Ast.Land | Ast.Lor ->
      if not (Ty.is_scalar ra && Ty.is_scalar rb) then err loc "invalid logical operands";
      mk ~loc (Tast.Tbinop (op, a, b)) Ty.Int

  (* -- Initializers ------------------------------------------------------- *)

  (** Desugar a brace/scalar initializer for a local of type [ty] rooted at
      lvalue [lv] into assignment statements. *)
  let rec lower_local_init fs scope loc (lv : Tast.texpr) ty (init : Ast.init) acc =
    let env = fs.env in
    match (init, Ty.resolve env ty) with
    | Ast.Iexpr e, _ ->
      let rhs = coerce env loc ty (decay (check_expr fs scope e)) in
      { Tast.tsdesc = Tast.TSexpr (mk ~loc (Tast.Tassign (lv, rhs)) ty); tsloc = loc } :: acc
    | Ast.Ilist items, Ty.Array (elt, n) ->
      if List.length items > n then err loc "too many initializers";
      List.fold_left
        (fun (acc, i) item ->
          let idx = mk ~loc (Tast.Tint (Int64.of_int i)) Ty.Int in
          let cell = mk ~loc (Tast.Tindex (lv, idx)) (deep_resolve env loc elt) in
          (lower_local_init fs scope loc cell elt item acc, i + 1))
        (acc, 0) items
      |> fst
    | Ast.Ilist items, Ty.Struct sname ->
      let fields = try Hashtbl.find env.Ty.structs sname with Not_found -> [] in
      if List.length items > List.length fields then err loc "too many initializers";
      List.fold_left2
        (fun acc item (f : Ty.field) ->
          let cell = mk ~loc (Tast.Tfield (lv, f.fname)) (deep_resolve env loc f.fty) in
          lower_local_init fs scope loc cell f.fty item acc)
        acc
        items
        (List.filteri (fun i _ -> i < List.length items) fields)
    | Ast.Ilist _, t -> err loc "brace initializer for non-aggregate %a" Ty.pp t

  (** Flatten a global initializer into (offset, constant expression) pairs. *)
  let rec flatten_global_init fs loc ty off (init : Ast.init) acc =
    let env = fs.env in
    match (init, Ty.resolve env ty) with
    | Ast.Iexpr e, _ ->
      let scope = { parent = None; vars = Hashtbl.create 1 } in
      let v = coerce env loc ty (decay (check_expr fs scope e)) in
      { Tast.gi_offset = off; gi_value = v } :: acc
    | Ast.Ilist items, Ty.Array (elt, n) ->
      if List.length items > n then err loc "too many initializers";
      let esz = Ty.sizeof env elt in
      List.fold_left
        (fun (acc, i) item ->
          (flatten_global_init fs loc elt (off + (i * esz)) item acc, i + 1))
        (acc, 0) items
      |> fst
    | Ast.Ilist items, Ty.Struct sname ->
      let fields = try Hashtbl.find env.Ty.structs sname with Not_found -> [] in
      List.fold_left2
        (fun acc item (f : Ty.field) ->
          let foff =
            match Ty.field_offset env sname f.fname with Some o -> o | None -> 0
          in
          flatten_global_init fs loc f.fty (off + foff) item acc)
        acc items
        (List.filteri (fun i _ -> i < List.length items) fields)
    | Ast.Ilist _, t -> err loc "brace initializer for non-aggregate %a" Ty.pp t

  (* -- Statements ---------------------------------------------------------- *)

  let rec check_stmts fs scope stmts = List.concat_map (check_stmt fs scope) stmts

  and check_block fs scope stmts =
    let inner = { parent = Some scope; vars = Hashtbl.create 8 } in
    check_stmts fs inner stmts

  and check_stmt fs scope (s : Ast.stmt) : Tast.tstmt list =
    let loc = s.sloc in
    let env = fs.env in
    let one tsdesc = [ { Tast.tsdesc; tsloc = loc } ] in
    match s.sdesc with
    | Ast.Sexpr e -> one (Tast.TSexpr (check_expr fs scope e))
    | Ast.Sdecl (ty, name, init) ->
      let ty = deep_resolve env loc ty in
      (match ty with Ty.Void -> err loc "void variable %s" name | _ -> ());
      let uname = fresh_name fs name in
      Hashtbl.replace scope.vars name (uname, ty);
      fs.locals <- (uname, ty) :: fs.locals;
      let decl = { Tast.tsdesc = Tast.TSdecl (uname, ty, None); tsloc = loc } in
      (match init with
      | None -> [ decl ]
      | Some (Ast.Iexpr e) ->
        let rhs = coerce env loc ty (decay (check_expr fs scope e)) in
        [ { Tast.tsdesc = Tast.TSdecl (uname, ty, Some rhs); tsloc = loc } ]
      | Some (Ast.Ilist _ as init) ->
        let lv = mk ~loc (Tast.Tlocal uname) ty in
        decl :: List.rev (lower_local_init fs scope loc lv ty init []))
    | Ast.Sif (c, t, e) ->
      let c = decay (check_expr fs scope c) in
      if not (Ty.is_scalar (Ty.resolve env c.tty)) then err loc "non-scalar if condition";
      one (Tast.TSif (c, check_block fs scope t, check_block fs scope e))
    | Ast.Swhile (c, body) ->
      let c = decay (check_expr fs scope c) in
      one (Tast.TSwhile (c, check_block fs scope body))
    | Ast.Sdo (body, c) ->
      let body = check_block fs scope body in
      let c = decay (check_expr fs scope c) in
      one (Tast.TSdo (body, c))
    | Ast.Sfor (init, cond, step, body) ->
      let inner = { parent = Some scope; vars = Hashtbl.create 4 } in
      let init =
        match init with
        | None -> None
        | Some s -> (
          match check_stmt fs inner s with
          | [ single ] -> Some single
          | many -> Some { Tast.tsdesc = Tast.TSblock many; tsloc = loc })
      in
      let cond = Option.map (fun c -> decay (check_expr fs inner c)) cond in
      let step =
        Option.map
          (fun s ->
            match check_stmt fs inner s with
            | [ single ] -> single
            | many -> { Tast.tsdesc = Tast.TSblock many; tsloc = loc })
          step
      in
      one (Tast.TSfor (init, cond, step, check_block fs inner body))
    | Ast.Sswitch (e, cases) ->
      let e = decay (check_expr fs scope e) in
      if not (Ty.is_integer (Ty.resolve env e.tty)) then err loc "non-integer switch";
      let cases =
        List.map
          (fun (c : Ast.case) ->
            { Tast.tcval = c.cval; tcbody = check_block fs scope c.cbody; tcloc = c.cloc })
          cases
      in
      one (Tast.TSswitch (e, cases))
    | Ast.Sreturn None ->
      if not (Ty.equal fs.ret Ty.Void) then err loc "return without value";
      one (Tast.TSreturn None)
    | Ast.Sreturn (Some e) ->
      if Ty.equal fs.ret Ty.Void then err loc "return with value in void function";
      let e = coerce env loc fs.ret (decay (check_expr fs scope e)) in
      one (Tast.TSreturn (Some e))
    | Ast.Sbreak -> one Tast.TSbreak
    | Ast.Scontinue -> one Tast.TScontinue
    | Ast.Sblock body -> one (Tast.TSblock (check_block fs scope body))
    | Ast.Sannot a ->
      (* the assertion check added with the single scope table, so the
         two typecheckers differ only in how they resolve names *)
      List.iter
        (function
          | Annot.Assert_safe x when lookup_scope scope x = None && not (Hashtbl.mem fs.globals x) ->
            err loc "assert(safe(%s)) names no variable in scope" x
          | _ -> ())
        a;
      one (Tast.TSannot a)

  (* -- Programs ------------------------------------------------------------ *)

  let builtin_externs : (string * Ty.t * Ty.t list) list =
    (* shared-memory and OS interface the paper's systems rely on; sizes use
       the LP64 model (int shmget(long,long,int), void* shmat(int,void*,int)) *)
    [ ("shmget", Ty.Int, [ Ty.Long; Ty.Long; Ty.Int ]);
      ("shmat", Ty.Ptr Ty.Void, [ Ty.Int; Ty.Ptr Ty.Void; Ty.Int ]);
      ("shmdt", Ty.Int, [ Ty.Ptr Ty.Void ]);
      ("shmctl", Ty.Int, [ Ty.Int; Ty.Int; Ty.Ptr Ty.Void ]);
      ("kill", Ty.Int, [ Ty.Int; Ty.Int ]);
      ("getpid", Ty.Int, []);
      ("InitCheck", Ty.Void, [ Ty.Ptr Ty.Void; Ty.Long ]);
    ]

  let check_program (prog : Ast.program) : Tast.program =
    let env = Ty.empty_env () in
    let globals = Hashtbl.create 32 in
    let funcs = Hashtbl.create 32 in
    List.iter (fun (n, r, ps) -> Hashtbl.replace funcs n (r, ps)) builtin_externs;
    (* pass 1: collect type definitions and signatures; a function may be
       declared any number of times but defined once *)
    let bodies = Hashtbl.create 32 in
    List.iter
      (fun d ->
        match d with
        | Ast.Dfunc f when Hashtbl.mem bodies f.fname ->
          err f.floc "redefinition of function %s" f.fname
        | Ast.Dstruct (name, fields, _) -> Hashtbl.replace env.Ty.structs name fields
        | Ast.Dtypedef (name, ty, _) -> Hashtbl.replace env.Ty.typedefs name ty
        | Ast.Dextern (name, ret, params, _) -> Hashtbl.replace funcs name (ret, params)
        | Ast.Dglobal g -> Hashtbl.replace globals g.gname g.gty
        | Ast.Dfunc f ->
          Hashtbl.replace bodies f.fname ();
          Hashtbl.replace funcs f.fname (f.fret, List.map (fun p -> p.Ast.pty) f.fparams))
      prog;
    (* resolve struct field types and global/function types *)
    let fix_ty loc ty =
      let fs_dummy =
        { env; globals; funcs; locals = []; counters = Hashtbl.create 1; ret = Ty.Void }
      in
      ignore fs_dummy;
      deep_resolve env loc ty
    in
    Hashtbl.iter
      (fun name fields ->
        let fields =
          List.map (fun (f : Ty.field) -> { f with fty = fix_ty Loc.dummy f.fty }) fields
        in
        Hashtbl.replace env.Ty.structs name fields)
      (Hashtbl.copy env.Ty.structs);
    (* a struct that contains itself by value — directly, through an array
       or through another struct — has no finite layout: reject it before
       anything sizes it *)
    let state = Hashtbl.create 16 in
    let rec visit name loc =
      match Hashtbl.find_opt state name with
      | Some `Done -> ()
      | Some `Active -> Loc.error loc "struct %s contains itself" name
      | None ->
        Hashtbl.replace state name `Active;
        List.iter
          (fun (f : Ty.field) -> contained f.fty loc)
          (Option.value ~default:[] (Hashtbl.find_opt env.Ty.structs name));
        Hashtbl.replace state name `Done
    and contained ty loc =
      match ty with
      | Ty.Struct s -> visit s loc
      | Ty.Array (t, _) -> contained t loc
      | _ -> ()
    in
    List.iter (function Ast.Dstruct (name, _, loc) -> visit name loc | _ -> ()) prog;
    Hashtbl.iter
      (fun name ty -> Hashtbl.replace globals name (fix_ty Loc.dummy ty))
      (Hashtbl.copy globals);
    Hashtbl.iter
      (fun name (r, ps) ->
        Hashtbl.replace funcs name (fix_ty Loc.dummy r, List.map (fix_ty Loc.dummy) ps))
      (Hashtbl.copy funcs);
    (* pass 2: check bodies *)
    let tglobals = ref [] in
    let tfuncs = ref [] in
    let texterns = ref [] in
    List.iter
      (fun d ->
        match d with
        | Ast.Dstruct _ | Ast.Dtypedef _ -> ()
        | Ast.Dextern (name, ret, params, loc) ->
          texterns :=
            (name, fix_ty loc ret, List.map (fix_ty loc) params) :: !texterns
        | Ast.Dglobal g ->
          let ty = fix_ty g.gloc g.gty in
          let fs =
            { env; globals; funcs; locals = []; counters = Hashtbl.create 4; ret = Ty.Void }
          in
          let init =
            match g.ginit with
            | None -> []
            | Some i -> List.rev (flatten_global_init fs g.gloc ty 0 i [])
          in
          tglobals :=
            { Tast.tg_name = g.gname; tg_ty = ty; tg_init = init; tg_loc = g.gloc }
            :: !tglobals
        | Ast.Dfunc f ->
          List.iter
            (function
              | Annot.Assert_safe x ->
                err f.floc "assert(safe(%s)) must annotate a statement, not a function" x
              | _ -> ())
            f.fannot;
          let ret = fix_ty f.floc f.fret in
          let fs =
            { env; globals; funcs; locals = []; counters = Hashtbl.create 16; ret }
          in
          let scope = { parent = None; vars = Hashtbl.create 8 } in
          let params =
            List.map
              (fun (p : Ast.param) ->
                let ty = fix_ty f.floc p.pty in
                let uname = fresh_name fs p.pname in
                Hashtbl.replace scope.vars p.pname (uname, ty);
                (uname, ty))
              f.fparams
          in
          let body = check_stmts fs scope f.fbody in
          tfuncs :=
            { Tast.tf_name = f.fname; tf_ret = ret; tf_params = params;
              tf_locals = List.rev fs.locals; tf_body = body; tf_annot = f.fannot;
              tf_loc = f.floc }
            :: !tfuncs)
      prog;
    (* add built-ins that were not explicitly declared *)
    let declared = List.map (fun (n, _, _) -> n) !texterns in
    let defined = List.map (fun f -> f.Tast.tf_name) !tfuncs in
    List.iter
      (fun (n, r, ps) ->
        if not (List.mem n declared || List.mem n defined) then
          texterns := (n, r, ps) :: !texterns)
      builtin_externs;
    { Tast.p_env = env; p_globals = List.rev !tglobals; p_externs = List.rev !texterns;
      p_funcs = List.rev !tfuncs }
end
