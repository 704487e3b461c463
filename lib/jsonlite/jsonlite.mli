(** Minimal dependency-free JSON reader and writer.

    {!parse} reads fleet NDJSON events ({!Events}, {!Progress}), stats
    files in tests and certificate bundles.  The writer ({!value},
    {!render}, {!to_channel}) is the one encoder of every JSON document the tool
    writes: SARIF, explain, certificate bundles, audit and hotspot
    documents, stats JSON, Chrome traces and fleet events.  Numbers are
    represented as floats in trees, which is lossless for everything the
    tool itself emits. *)

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

(** {1 Writing} *)

(** A document to write.  Building one only allocates; {!render} and
    {!to_channel} turn it into text, with every escape, separator and
    number format decided there. *)
type value =
  | Vnull
  | Vbool of bool
  | Vint of int
  | Vfixed of int * float  (** [Vfixed (digits, f)] prints as [Printf "%.*f"] *)
  | Vstr of string
      (** a double quote, a backslash, newline, return and tab take their
          two-character escapes, other bytes below 0x20 take [\u00XX],
          and every other byte (UTF-8 included) is written as is *)
  | Varr of value list
  | Vlist : ('a -> value) * 'a list -> value
      (** [Vlist (f, xs)] is [Varr (List.map f xs)], with each [f x] made
          only when it is written *)
  | Vobj of (string * value) list  (** members in list order *)
  | Vtree of t
      (** integers of magnitude up to 2{^53} print as [%.0f], other
          numbers as [%.17g] *)

val render : value -> string

val to_channel : out_channel -> value -> unit

val emit : t -> string
(** [render (Vtree j)]: compact serialization ([parse (emit j) = Ok j]
    for trees whose numbers are exact integers below 2{^53}, which is
    all this repo emits) *)
