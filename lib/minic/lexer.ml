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

let peek2 st =
  if st.pos + 1 < String.length st.src then Some st.src.[st.pos + 1] else None

let advance st =
  (match peek st with
  | Some '\n' ->
    st.line <- st.line + 1;
    st.bol <- st.pos + 1
  | _ -> ());
  st.pos <- st.pos + 1

let is_digit c = c >= '0' && c <= '9'
let is_hex_digit c = is_digit c || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_ident_char c = is_ident_start c || is_digit c

let lex_error st fmt = Loc.error (loc_of st) fmt

(** Consume a block comment (opening "/*" already consumed).  Returns the
    end offset of its body, which starts where the call found [st.pos]. *)
let skip_block_comment st =
  let rec go () =
    match (peek st, peek2 st) with
    | Some '*', Some '/' ->
      let stop = st.pos in
      advance st;
      advance st;
      stop
    | Some _, _ ->
      advance st;
      go ()
    | None, _ -> lex_error st "unterminated comment"
  in
  go ()

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
    match (peek st, peek2 st) with
    | Some '0', Some ('x' | 'X') ->
      advance st;
      advance st;
      true
    | _ -> false
  in
  let digits_ok c = if is_hex then is_hex_digit c else is_digit c in
  while (match peek st with Some c -> digits_ok c | None -> false) do
    advance st
  done;
  let is_float = ref false in
  if not is_hex then begin
    (match (peek st, peek2 st) with
    | Some '.', Some c when is_digit c ->
      is_float := true;
      advance st;
      while (match peek st with Some c -> is_digit c | None -> false) do
        advance st
      done
    | Some '.', _ ->
      is_float := true;
      advance st
    | _ -> ());
    (match peek st with
    | Some ('e' | 'E') ->
      is_float := true;
      advance st;
      (match peek st with Some ('+' | '-') -> advance st | _ -> ());
      while (match peek st with Some c -> is_digit c | None -> false) do
        advance st
      done
    | _ -> ())
  end;
  (* trailing suffixes f/F/l/L/u/U — not part of the numeric text *)
  let suffix_start = st.pos in
  let f_suffix = ref false in
  while
    match peek st with
    | Some ('f' | 'F') when not is_hex ->
      f_suffix := true;
      true
    | Some ('l' | 'L' | 'u' | 'U') -> true
    | _ -> false
  do
    advance st
  done;
  let text = String.sub st.src start (suffix_start - start) in
  let bad () = Loc.error loc "malformed or out-of-range numeric literal %s" text in
  if !is_float || !f_suffix then
    match float_of_string_opt text with Some x -> Token.FLOATLIT x | None -> bad ()
  else match Int64.of_string_opt text with Some n -> Token.INT n | None -> bad ()

(** Lex the next token.  Skips whitespace, line comments, preprocessor
    lines and plain block comments; annotation comments become tokens. *)
let rec next st : lexed =
  let loc = loc_of st in
  match peek st with
  | None -> { tok = EOF; loc }
  | Some (' ' | '\t' | '\r' | '\n') ->
    advance st;
    next st
  | Some '#' ->
    (* preprocessor line: skipped wholesale (systems use #include/#define
       only for constants we inline) *)
    while (match peek st with Some c when c <> '\n' -> true | _ -> false) do
      advance st
    done;
    next st
  | Some '/' -> (
    match peek2 st with
    | Some '/' ->
      while (match peek st with Some c when c <> '\n' -> true | _ -> false) do
        advance st
      done;
      next st
    | Some '*' ->
      advance st;
      advance st;
      let start = st.pos in
      let stop = skip_block_comment st in
      (match annotation_payload st.src ~start ~stop with
      | Some payload -> { tok = ANNOT payload; loc }
      | None -> next st)
    | _ ->
      advance st;
      if peek st = Some '=' then begin advance st; { tok = SLASHEQ; loc } end
      else { tok = SLASH; loc })
  | Some '"' ->
    advance st;
    { tok = STRING (read_string st); loc }
  | Some '\'' ->
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
  | Some c when is_digit c -> { tok = read_number st; loc }
  | Some c when is_ident_start c ->
    let start = st.pos in
    while (match peek st with Some c -> is_ident_char c | None -> false) do
      advance st
    done;
    let text = String.sub st.src start (st.pos - start) in
    let tok =
      match Token.keyword_of_string text with
      | Some kw -> kw
      | None -> Token.IDENT text
    in
    { tok; loc }
  | Some c ->
    advance st;
    let two expected (tok1 : Token.t) (tok0 : Token.t) =
      if peek st = Some expected then begin
        advance st;
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
        match peek st with
        | Some '+' -> advance st; PLUSPLUS
        | Some '=' -> advance st; PLUSEQ
        | _ -> PLUS)
      | '-' -> (
        match peek st with
        | Some '-' -> advance st; MINUSMINUS
        | Some '=' -> advance st; MINUSEQ
        | Some '>' -> advance st; ARROW
        | _ -> MINUS)
      | '*' -> two '=' STAREQ STAR
      | '%' -> two '=' PERCENTEQ PERCENT
      | '~' -> TILDE
      | '!' -> two '=' NEQ BANG
      | '^' -> two '=' CARETEQ CARET
      | '&' -> (
        match peek st with
        | Some '&' -> advance st; ANDAND
        | Some '=' -> advance st; AMPEQ
        | _ -> AMP)
      | '|' -> (
        match peek st with
        | Some '|' -> advance st; OROR
        | Some '=' -> advance st; PIPEEQ
        | _ -> PIPE)
      | '<' -> (
        match peek st with
        | Some '<' ->
          advance st;
          two '=' SHLEQ SHL
        | Some '=' -> advance st; LE
        | _ -> LT)
      | '>' -> (
        match peek st with
        | Some '>' ->
          advance st;
          two '=' SHREQ SHR
        | Some '=' -> advance st; GE
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
