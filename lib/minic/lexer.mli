(** Hand-written lexer.  Block comments containing the SafeFlow
    annotation marker are emitted as [ANNOT] tokens; other comments and
    preprocessor lines are skipped.

    {!next} returns a bare token and leaves its start position in the
    state ({!tok_line}, {!tok_col}), so a caller builds a {!Loc.t} only
    where it needs one.  Keywords are recognised in the source buffer
    without copying them out; identifiers, literals and annotation
    payloads are the only tokens that allocate. *)

type lexed = { tok : Token.t; loc : Loc.t }

type state
(** a position in one source buffer *)

val make : file:string -> string -> state

val next : state -> Token.t
(** the next token; [EOF] at the end of the buffer, and again on every
    later call.
    @raise Loc.Error on lexical errors *)

val skip_block : state -> bool
(** after the opening brace of a block (the last token returned), move
    past the brace that closes it, matching braces character by
    character around comments, preprocessor lines and string and
    character literals, without lexing the tokens in between (so without
    their lexical errors).  The closing brace's position is then
    {!tok_line}/{!tok_col}; it is not counted by {!token_count}.
    [false] when the buffer ends first. *)

val file : state -> string

val tok_line : state -> int
(** line of the first character of the token {!next} returned last *)

val tok_col : state -> int
(** its column (1-based) *)

val token_count : state -> int
(** tokens returned so far, each [EOF] included *)

type mark
(** a position between two tokens *)

val mark : state -> mark
(** the position right after the token {!next} returned last *)

val seek : state -> mark -> unit
(** lex on from the mark (tokens lexed again count again in
    {!token_count}) *)

val tokenize : file:string -> string -> lexed list
(** lex a whole buffer (last element is [EOF]).
    @raise Loc.Error on lexical errors *)
