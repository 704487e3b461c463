(** Recursive-descent parser for MiniC.  Typedef names are tracked during
    parsing to disambiguate declarations from expressions; compound
    assignments and increments are desugared to plain assignments. *)

val parse_program : Lexer.state -> Ast.program
(** parses while it lexes: tokens are pulled as the parser needs them,
    at most two ahead of the current one, so a parse error is reported
    before a lexical error further on.
    @raise Loc.Error on lexical and parse errors *)

val parse_string : ?file:string -> string -> Ast.program

val parse_file : string -> Ast.program
