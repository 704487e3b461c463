(** Source locations and located diagnostics for the frontend. *)

type t = { file : string; line : int; col : int }

val dummy : t

val make : file:string -> line:int -> col:int -> t

val pp : Format.formatter -> t -> unit

val to_string : t -> string

exception Error of t * string
(** any frontend stage's diagnostic *)

val error : t -> ('a, Format.formatter, unit, 'b) format4 -> 'a
(** @raise Error *)

val read_source : string -> string
(** the contents of a file; a path that cannot be read (missing, a
    directory, ...) raises {!Error} located at the path *)

val compare : t -> t -> int

val equal : t -> t -> bool
