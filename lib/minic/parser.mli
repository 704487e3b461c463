(** Recursive-descent parser for MiniC.  Typedef names are tracked during
    parsing to disambiguate declarations from expressions; compound
    assignments and increments are desugared to plain assignments.
    Binary operators are parsed by precedence climbing (all levels
    left-associative), tokens are tested by pattern matching, and a
    {!Loc.t} is built only for an AST node or a diagnostic, from the
    token positions the lexer leaves in its state. *)

val parse_program : Lexer.state -> Ast.program
(** parses while it lexes: tokens are pulled as the parser needs them,
    at most two ahead of the current one, so a parse error is reported
    before a lexical error further on.
    @raise Loc.Error on lexical and parse errors *)

val parse_string : ?file:string -> string -> Ast.program

val parse_file : string -> Ast.program

type body
(** a function body {!parse_program_deferred} skipped *)

val parse_program_deferred : Lexer.state -> Ast.program * body list
(** {!parse_program} with every function body skipped (matching braces
    token by token) and returned unparsed, in definition order; the
    definitions' [fbody] is empty.  Parsing the bodies one at a time
    with {!parse_body} lets each be typechecked and lowered while it is
    young.  On a valid program, the program with each body parsed in
    place is {!parse_program}'s; an error may be another one than
    {!parse_program} would raise first (a lexical error further on, or
    a parse error found only when the body is parsed).
    @raise Loc.Error on lexical and parse errors *)

val parse_body : body -> Ast.stmt list
(** a deferred body's statements, parsed with the typedef names
    declared before its function
    @raise Loc.Error on lexical and parse errors *)
