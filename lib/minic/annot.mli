(** The SafeFlow annotation language (paper §3.1, §3.2.1, §3.4.3),
    embedded in C comments opening with {!marker}. *)

(** Arithmetic inside annotations: literals, [sizeof], sums, products. *)
type aexpr =
  | Aint of int
  | Asizeof of Ty.t
  | Aadd of aexpr * aexpr
  | Amul of aexpr * aexpr

type clause =
  | Assume_core of { ptr : string; off : aexpr; size : aexpr }
      (** within the annotated (monitoring) function and its callees,
          [ptr+off .. ptr+off+size) holds core values *)
  | Assert_safe of string
      (** the named local is critical data *)
  | Shminit
      (** marks a shared-memory initializing function *)
  | Shmvar of { ptr : string; size : aexpr }
      (** initializer post-condition: [ptr] names a region of [size] bytes *)
  | Noncore of string
      (** the region (or socket, §3.4.3) is writable by non-core components *)

type t = clause list

val eval_aexpr : Ty.env -> aexpr -> int

val pp_clause : Format.formatter -> clause -> unit

val pp : Format.formatter -> t -> unit

exception Parse_error of string

val parse_payload : string -> t
(** parse a comment payload (marker already stripped).
    @raise Parse_error *)

val marker : string
(** ["SafeFlow Annotation"] *)
