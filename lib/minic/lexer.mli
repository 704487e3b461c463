(** Hand-written lexer.  Block comments containing the SafeFlow
    annotation marker are emitted as [ANNOT] tokens; other comments and
    preprocessor lines are skipped. *)

type lexed = { tok : Token.t; loc : Loc.t }

type state
(** a position in one source buffer *)

val make : file:string -> string -> state

val next : state -> lexed
(** the next token; [EOF] at the end of the buffer, and again on every
    later call.
    @raise Loc.Error on lexical errors *)

val tokenize : file:string -> string -> lexed list
(** lex a whole buffer (last element is [EOF]).
    @raise Loc.Error on lexical errors *)
