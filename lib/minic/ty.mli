(** MiniC types, LP64 layout computation and compatibility rules. *)

type t =
  | Void
  | Char
  | Int
  | Long
  | Float
  | Double
  | Ptr of t
  | Array of t * int
  | Struct of string  (** by-name; fields live in the {!env} *)
  | Named of string   (** unresolved typedef *)
  | Fun of t * t list

type field = { fname : string; fty : t }

(** Struct and typedef environment (filled by the typechecker). *)
type env = {
  structs : (string, field list) Hashtbl.t;
  typedefs : (string, t) Hashtbl.t;
}

val empty_env : unit -> env

val resolve : env -> t -> t
(** chase typedefs to a structural type. @raise Not_found *)

val pp : Format.formatter -> t -> unit

val to_string : t -> string

val equal : t -> t -> bool

val is_integer : t -> bool

val is_float : t -> bool

val is_arith : t -> bool

val is_pointer : t -> bool

val is_scalar : t -> bool

val alignof : env -> t -> int

val sizeof : env -> t -> int
(** byte size under the LP64 layout the whole toolchain shares *)

val field_offset : env -> string -> string -> int option

val field_type : env -> string -> string -> t option

val compatible : env -> t -> t -> bool
(** structural compatibility after typedef resolution (restriction P3) *)
