(** Source locations and located diagnostics for the MiniC frontend. *)

type t = {
  file : string;  (** originating file name (may be "<string>") *)
  line : int;     (** 1-based line number *)
  col : int;      (** 1-based column number *)
}

let dummy = { file = "<none>"; line = 0; col = 0 }

let make ~file ~line ~col = { file; line; col }

let pp ppf { file; line; col } = Fmt.pf ppf "%s:%d:%d" file line col

let to_string loc = Fmt.str "%a" pp loc

(** A diagnostic raised by any frontend stage. *)
exception Error of t * string

let error loc fmt = Fmt.kstr (fun msg -> raise (Error (loc, msg))) fmt

let read_source path =
  try In_channel.with_open_bin path (fun ic -> really_input_string ic (in_channel_length ic))
  with Sys_error msg -> error { file = path; line = 1; col = 1 } "cannot read source: %s" msg

let compare a b =
  match String.compare a.file b.file with
  | 0 -> ( match Int.compare a.line b.line with 0 -> Int.compare a.col b.col | c -> c)
  | c -> c

let equal a b = compare a b = 0
