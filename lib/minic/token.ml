(** Tokens produced by the MiniC lexer. *)

type t =
  | INT of int64
  | FLOATLIT of float
  | STRING of string
  | CHARLIT of char
  | IDENT of string
  (* keywords *)
  | KW_void | KW_char | KW_int | KW_long | KW_float | KW_double
  | KW_struct | KW_typedef | KW_extern | KW_static | KW_const | KW_unsigned
  | KW_if | KW_else | KW_while | KW_for | KW_do | KW_return
  | KW_break | KW_continue | KW_switch | KW_case | KW_default | KW_sizeof
  (* punctuation *)
  | LPAREN | RPAREN | LBRACE | RBRACE | LBRACKET | RBRACKET
  | SEMI | COMMA | COLON | QUESTION
  | DOT | ARROW
  (* operators *)
  | PLUS | MINUS | STAR | SLASH | PERCENT
  | AMP | PIPE | CARET | TILDE | BANG
  | SHL | SHR
  | LT | LE | GT | GE | EQEQ | NEQ
  | ANDAND | OROR
  | ASSIGN
  | PLUSEQ | MINUSEQ | STAREQ | SLASHEQ | PERCENTEQ | AMPEQ | PIPEEQ | CARETEQ | SHLEQ | SHREQ
  | PLUSPLUS | MINUSMINUS
  (* SafeFlow annotation comment payload *)
  | ANNOT of string
  | EOF

let to_string = function
  | INT n -> Int64.to_string n
  | FLOATLIT f -> string_of_float f
  | STRING s -> Fmt.str "%S" s
  | CHARLIT c -> Fmt.str "%C" c
  | IDENT s -> s
  | KW_void -> "void" | KW_char -> "char" | KW_int -> "int" | KW_long -> "long"
  | KW_float -> "float" | KW_double -> "double"
  | KW_struct -> "struct" | KW_typedef -> "typedef" | KW_extern -> "extern"
  | KW_static -> "static" | KW_const -> "const" | KW_unsigned -> "unsigned"
  | KW_if -> "if" | KW_else -> "else" | KW_while -> "while" | KW_for -> "for"
  | KW_do -> "do" | KW_return -> "return"
  | KW_break -> "break" | KW_continue -> "continue" | KW_switch -> "switch"
  | KW_case -> "case" | KW_default -> "default" | KW_sizeof -> "sizeof"
  | LPAREN -> "(" | RPAREN -> ")" | LBRACE -> "{" | RBRACE -> "}"
  | LBRACKET -> "[" | RBRACKET -> "]"
  | SEMI -> ";" | COMMA -> "," | COLON -> ":" | QUESTION -> "?"
  | DOT -> "." | ARROW -> "->"
  | PLUS -> "+" | MINUS -> "-" | STAR -> "*" | SLASH -> "/" | PERCENT -> "%"
  | AMP -> "&" | PIPE -> "|" | CARET -> "^" | TILDE -> "~" | BANG -> "!"
  | SHL -> "<<" | SHR -> ">>"
  | LT -> "<" | LE -> "<=" | GT -> ">" | GE -> ">=" | EQEQ -> "==" | NEQ -> "!="
  | ANDAND -> "&&" | OROR -> "||"
  | ASSIGN -> "="
  | PLUSEQ -> "+=" | MINUSEQ -> "-=" | STAREQ -> "*=" | SLASHEQ -> "/="
  | PERCENTEQ -> "%=" | AMPEQ -> "&=" | PIPEEQ -> "|=" | CARETEQ -> "^="
  | SHLEQ -> "<<=" | SHREQ -> ">>="
  | PLUSPLUS -> "++" | MINUSMINUS -> "--"
  | ANNOT s -> Fmt.str "/*** %s ***/" s
  | EOF -> "<eof>"
