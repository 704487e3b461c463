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
        match Token.keyword_of_string text with
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
