(** Hand-written lexer for MiniC.

    Block comments whose body contains the SafeFlow annotation marker are
    not discarded: their payload (marker stripped) is emitted as an
    [ANNOT] token so the parser can attach annotations to functions and
    statements.

    A token is returned as a bare {!Token.t}; its start position stays in
    the state as two ints (line, column) until the next call, so the
    parser builds a {!Loc.t} only for the tokens an AST node or a
    diagnostic is located at.  Keywords are recognised in place in the
    source buffer, so only identifiers, literals and annotation payloads
    allocate. *)

type lexed = { tok : Token.t; loc : Loc.t }

type state = {
  src : string;
  file : string;
  mutable pos : int;
  mutable line : int;
  mutable bol : int;  (* offset of beginning of current line *)
  mutable tok_line : int;  (* start of the last token returned *)
  mutable tok_col : int;
  mutable count : int;  (* tokens returned, EOF included *)
}

let make ~file src =
  { src; file; pos = 0; line = 1; bol = 0; tok_line = 1; tok_col = 1; count = 0 }

type mark = { m_pos : int; m_line : int; m_bol : int }

let mark st = { m_pos = st.pos; m_line = st.line; m_bol = st.bol }

let seek st m =
  st.pos <- m.m_pos;
  st.line <- m.m_line;
  st.bol <- m.m_bol

let file st = st.file
let tok_line st = st.tok_line
let tok_col st = st.tok_col
let token_count st = st.count

let loc_of st = Loc.make ~file:st.file ~line:st.line ~col:(st.pos - st.bol + 1)

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

let is_digit c = c >= '0' && c <= '9'
let is_hex_digit c = is_digit c || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_ident_char c = is_ident_start c || is_digit c

let rec skip_digits src len i = if i < len && is_digit (String.unsafe_get src i) then skip_digits src len (i + 1) else i

let rec skip_hex_digits src len i =
  if i < len && is_hex_digit (String.unsafe_get src i) then skip_hex_digits src len (i + 1) else i

let rec skip_ident src len i =
  if i < len && is_ident_char (String.unsafe_get src i) then skip_ident src len (i + 1) else i

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
let rec line_end src len i = if i < len && String.unsafe_get src i <> '\n' then line_end src len (i + 1) else i

let rec blank_end st src len i =
  if i >= len then i
  else
    match String.unsafe_get src i with
    | ' ' | '\t' | '\r' -> blank_end st src len (i + 1)
    | '\n' ->
      st.line <- st.line + 1;
      st.bol <- i + 1;
      blank_end st src len (i + 1)
    | '#' -> blank_end st src len (line_end src len i)
    | '/' when i + 1 < len && String.unsafe_get src (i + 1) = '/' ->
      blank_end st src len (line_end src len i)
    | _ -> i

let skip_blank st = st.pos <- blank_end st st.src (String.length st.src) st.pos

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
  if st.pos >= String.length st.src then lex_error st "unterminated escape";
  let c =
    match String.unsafe_get st.src st.pos with
    | 'n' -> '\n'
    | 't' -> '\t'
    | 'r' -> '\r'
    | '0' -> '\000'
    | c -> c
  in
  advance st;
  c

let read_string st =
  let buf = Buffer.create 16 in
  let rec go () =
    if st.pos >= String.length st.src then lex_error st "unterminated string literal";
    match String.unsafe_get st.src st.pos with
    | '"' -> advance st
    | '\\' ->
      advance st;
      Buffer.add_char buf (read_escaped st);
      go ()
    | c ->
      Buffer.add_char buf c;
      advance st;
      go ()
  in
  go ();
  Buffer.contents buf

(* [src.[start .. stop-1]] (decimal digits) as an int64, or [None] past
   [Int64.max_int] — the same answer as [Int64.of_string_opt] on the
   substring; up to 18 digits fit a native int, so only longer literals
   make the substring *)
let rec decimal_int src i stop acc =
  if i = stop then acc else decimal_int src (i + 1) stop ((acc * 10) + Char.code (String.unsafe_get src i) - 48)

let decimal src start stop =
  if stop - start <= 18 then Some (Int64.of_int (decimal_int src start stop 0))
  else Int64.of_string_opt (String.sub src start (stop - start))

let rec suffix_end src len ~is_hex i =
  if i >= len then i
  else
    match String.unsafe_get src i with
    | 'f' | 'F' when not is_hex -> suffix_end src len ~is_hex (i + 1)
    | 'l' | 'L' | 'u' | 'U' -> suffix_end src len ~is_hex (i + 1)
    | _ -> i

let rec has_float_suffix src i stop =
  i < stop && (match String.unsafe_get src i with 'f' | 'F' -> true | _ -> has_float_suffix src (i + 1) stop)

let bad_number st start stop =
  Loc.error
    (Loc.make ~file:st.file ~line:st.tok_line ~col:st.tok_col)
    "malformed or out-of-range numeric literal %s" (String.sub st.src start (stop - start))

let is_exponent c = c = 'e' || c = 'E'

let is_sign c = c = '+' || c = '-'

(* Lex a numeric literal starting at [st.pos] (a digit). *)
let read_number st =
  let src = st.src and len = String.length st.src in
  let start = st.pos in
  let is_hex = char_at st 0 = '0' && (match char_at st 1 with 'x' | 'X' -> true | _ -> false) in
  let digits_end = if is_hex then skip_hex_digits src len (start + 2) else skip_digits src len start in
  let frac_end =
    if (not is_hex) && digits_end < len && String.unsafe_get src digits_end = '.' then
      skip_digits src len (digits_end + 1)
    else digits_end
  in
  let stop =
    if (not is_hex) && frac_end < len && is_exponent (String.unsafe_get src frac_end) then
      let s = frac_end + 1 in
      skip_digits src len (if s < len && is_sign (String.unsafe_get src s) then s + 1 else s)
    else frac_end
  in
  let is_float = stop > digits_end in
  (* trailing suffixes f/F/l/L/u/U — not part of the numeric text *)
  let fin = suffix_end src len ~is_hex stop in
  st.pos <- fin;
  let f_suffix = (not is_hex) && has_float_suffix src stop fin in
  if is_float || f_suffix then
    match float_of_string_opt (String.sub src start (stop - start)) with
    | Some x -> Token.FLOATLIT x
    | None -> bad_number st start stop
  else
    match
      if is_hex then Int64.of_string_opt (String.sub src start (stop - start))
      else decimal src start stop
    with
    | Some n -> Token.INT n
    | None -> bad_number st start stop

let rec same_from src start kw i len =
  i = len || (String.unsafe_get src (start + i) = String.unsafe_get kw i && same_from src start kw (i + 1) len)

(* does [src.[start .. start+len-1]] spell [kw]?  (its first character
   is already known to match) *)
let spells src start len kw = String.length kw = len && same_from src start kw 1 len

(** The keyword spelled by the identifier [src.[start .. start+len-1]],
    or [EOF] when it is an ordinary identifier. *)
let keyword src start len : Token.t =
  match String.unsafe_get src start with
  | 'b' -> if spells src start len "break" then KW_break else EOF
  | 'c' ->
    if spells src start len "char" then KW_char
    else if spells src start len "const" then KW_const
    else if spells src start len "case" then KW_case
    else if spells src start len "continue" then KW_continue
    else EOF
  | 'd' ->
    if spells src start len "do" then KW_do else if spells src start len "double" then KW_double else if spells src start len "default" then KW_default
    else EOF
  | 'e' -> if spells src start len "else" then KW_else else if spells src start len "extern" then KW_extern else EOF
  | 'f' -> if spells src start len "for" then KW_for else if spells src start len "float" then KW_float else EOF
  | 'i' -> if spells src start len "int" then KW_int else if spells src start len "if" then KW_if else EOF
  | 'l' -> if spells src start len "long" then KW_long else EOF
  | 'r' -> if spells src start len "return" then KW_return else EOF
  | 's' ->
    if spells src start len "struct" then KW_struct
    else if spells src start len "static" then KW_static
    else if spells src start len "sizeof" then KW_sizeof
    else if spells src start len "switch" then KW_switch
    else EOF
  | 't' -> if spells src start len "typedef" then KW_typedef else EOF
  | 'u' -> if spells src start len "unsigned" then KW_unsigned else EOF
  | 'v' -> if spells src start len "void" then KW_void else EOF
  | 'w' -> if spells src start len "while" then KW_while else EOF
  | _ -> EOF

(* the operator of one character [c] at [st.pos - 1], possibly extended
   by the characters after it *)
let follow st d (tok1 : Token.t) (tok0 : Token.t) =
  if char_at st 0 = d then begin
    st.pos <- st.pos + 1;
    tok1
  end
  else tok0

let operator st c : Token.t =
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
  | '~' -> TILDE
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
  | '*' -> follow st '=' STAREQ STAR
  | '%' -> follow st '=' PERCENTEQ PERCENT
  | '!' -> follow st '=' NEQ BANG
  | '^' -> follow st '=' CARETEQ CARET
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
      follow st '=' SHLEQ SHL
    | '=' -> st.pos <- st.pos + 1; LE
    | _ -> LT)
  | '>' -> (
    match char_at st 0 with
    | '>' ->
      st.pos <- st.pos + 1;
      follow st '=' SHREQ SHR
    | '=' -> st.pos <- st.pos + 1; GE
    | _ -> GT)
  | '=' -> follow st '=' EQEQ ASSIGN
  | c ->
    Loc.error (Loc.make ~file:st.file ~line:st.tok_line ~col:st.tok_col) "unexpected character %C" c

(** Lex the next token.  Skips whitespace, line comments, preprocessor
    lines and plain block comments; annotation comments become tokens.
    The token's start is {!tok_line}/{!tok_col} until the next call. *)
let rec next st : Token.t =
  skip_blank st;
  st.tok_line <- st.line;
  st.tok_col <- st.pos - st.bol + 1;
  let src = st.src in
  let len = String.length src in
  if st.pos >= len then begin
    st.count <- st.count + 1;
    EOF
  end
  else begin
    let tok : Token.t =
      match String.unsafe_get src st.pos with
      | '/' -> (
        match char_at st 1 with
        | '*' -> (
          st.pos <- st.pos + 2;
          let start = st.pos in
          let stop = skip_block_comment st in
          match annotation_payload src ~start ~stop with
          | Some payload -> ANNOT payload
          | None -> EOF (* a plain comment: lex on below *))
        | '=' ->
          st.pos <- st.pos + 2;
          SLASHEQ
        | _ ->
          st.pos <- st.pos + 1;
          SLASH)
      | '"' ->
        advance st;
        STRING (read_string st)
      | '\'' ->
        advance st;
        if st.pos >= len then lex_error st "unterminated char literal";
        let c =
          match String.unsafe_get src st.pos with
          | '\\' ->
            advance st;
            read_escaped st
          | c ->
            advance st;
            c
        in
        if char_at st 0 = '\'' && st.pos < len then advance st
        else lex_error st "unterminated char literal";
        CHARLIT c
      | c when is_digit c -> read_number st
      | c when is_ident_start c -> (
        let start = st.pos in
        let stop = skip_ident src len start in
        st.pos <- stop;
        match keyword src start (stop - start) with
        | EOF -> IDENT (String.sub src start (stop - start))
        | kw -> kw)
      | c ->
        st.pos <- st.pos + 1;
        operator st c
    in
    match tok with
    | EOF -> next st
    | tok ->
      st.count <- st.count + 1;
      tok
  end

(* the offset just past a string literal's body starting at [i], or the
   end of the buffer; lines are tracked *)
let rec string_end st src len i =
  if i >= len then len
  else
    match String.unsafe_get src i with
    | '"' -> i + 1
    | '\\' ->
      if i + 1 < len && String.unsafe_get src (i + 1) = '\n' then begin
        st.line <- st.line + 1;
        st.bol <- i + 2
      end;
      string_end st src len (i + 2)
    | '\n' ->
      st.line <- st.line + 1;
      st.bol <- i + 1;
      string_end st src len (i + 1)
    | _ -> string_end st src len (i + 1)

(* the offset past one character at [i], tracking a newline *)
let newline_at st src len i =
  if i < len && String.unsafe_get src i = '\n' then begin
    st.line <- st.line + 1;
    st.bol <- i + 1
  end;
  i + 1

(* Skip the rest of a block whose opening brace was the last token, up
   to and including the brace that closes it, which becomes the last
   token (not counted by {!token_count}: whoever lexes the block's
   tokens counts it).  Braces are matched character by character,
   passing over comments, preprocessor lines and string and character
   literals as the tokenizer does; nothing else is lexed, so a lexical
   error inside the block is not seen here.  Returns [false] at the end
   of the buffer. *)
let skip_block st =
  let src = st.src and len = String.length st.src in
  let rec go depth i =
    if i >= len then begin
      st.pos <- len;
      false
    end
    else
      match String.unsafe_get src i with
      | '\n' ->
        st.line <- st.line + 1;
        st.bol <- i + 1;
        go depth (i + 1)
      | '{' -> go (depth + 1) (i + 1)
      | '}' when depth = 1 ->
        st.tok_line <- st.line;
        st.tok_col <- i - st.bol + 1;
        st.pos <- i + 1;
        true
      | '}' -> go (depth - 1) (i + 1)
      | '"' -> go depth (string_end st src len (i + 1))
      | '\'' ->
        (* the character (escaped or not), then the closing quote *)
        let i = newline_at st src len (i + 1) in
        let i = if i < len && String.unsafe_get src (i - 1) = '\\' then newline_at st src len i else i in
        go depth (if i < len && String.unsafe_get src i = '\'' then i + 1 else i)
      | '#' -> go depth (line_end src len i)
      | '/' when i + 1 < len && String.unsafe_get src (i + 1) = '/' -> go depth (line_end src len i)
      | '/' when i + 1 < len && String.unsafe_get src (i + 1) = '*' ->
        st.pos <- i + 2;
        ignore (skip_block_comment st);
        go depth st.pos
      | _ -> go depth (i + 1)
  in
  let found = go 1 st.pos in
  if not found then begin
    st.tok_line <- st.line;
    st.tok_col <- st.pos - st.bol + 1
  end;
  found


(** Lex an entire source buffer. *)
let tokenize ~file src : lexed list =
  let st = make ~file src in
  let rec go acc =
    let tok = next st in
    let lx = { tok; loc = Loc.make ~file ~line:st.tok_line ~col:st.tok_col } in
    match tok with EOF -> List.rev (lx :: acc) | _ -> go (lx :: acc)
  in
  go []
