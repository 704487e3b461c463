(** Minimal dependency-free JSON reader and writer.

    {!parse} reads fleet NDJSON events ({!Events}, {!Progress}), stats
    files in tests and certificate bundles; {!emit} writes the
    certificate and explain documents; {!escape} is the string escape of
    every emitter that builds its JSON by hand (SARIF, telemetry, the
    audit ledger).  Numbers are represented as floats, which is lossless
    for everything the tool itself emits. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse_error of string

val parse : string -> (t, string) result
(** parse a complete JSON document; trailing non-whitespace is an error *)

val parse_exn : string -> t
(** @raise Parse_error on malformed input *)

val member : string -> t -> t option
(** field lookup on an [Obj]; [None] on missing field or non-object *)

val to_string : t -> string option

val to_float : t -> float option

val to_int : t -> int option
(** [Some] only for numbers with an exact integer value *)

val to_bool : t -> bool option

val to_list : t -> t list option

val to_obj : t -> (string * t) list option

val escape : string -> string
(** JSON string-body escaping (no surrounding quotes) *)

val emit : t -> string
(** compact serialization ([parse (emit j) = Ok j] for trees whose
    numbers are exact integers below 2{^53}, which is all this repo
    emits); inverse direction of {!parse} for the certificate and
    explain emitters *)
