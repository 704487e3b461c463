(** Whole-program points-to analysis over the IR — the service DSA
    provides in the paper, implemented as an inclusion-based
    (Andersen-style) analysis: field-sensitive on pointer targets (byte
    offsets through geps), field-insensitive on the heap. *)

(** Abstract memory objects. *)
module Node : sig
  type t =
    | Nglobal of string
    | Nalloca of string * int  (** function, alloca instruction id *)
    | Nshm of string           (** shared-memory region *)
    | Nextern of string        (** opaque memory from an extern function *)
    | Nstr of string

  val compare : t -> t -> int

  val pp : Format.formatter -> t -> unit
end

module Offset : sig
  type t = Byte of int | Top

  val add : t -> t -> t

  val pp : Format.formatter -> t -> unit
end

module Target : sig
  type t = { node : Node.t; off : Offset.t }

  val compare : t -> t -> int

  val pp : Format.formatter -> t -> unit
end

module Tset : Set.S with type elt = Target.t

(** Points-to set keys. *)
type key =
  | Kreg of string * Ssair.Ir.vid
  | Kparam of string * string
  | Kret of string

type t

val analyze : Ssair.Index.t -> t
(** run to fixpoint over the whole program; facts are stored per
    function, by function index of the program index *)

val pts_get : t -> key -> Tset.t

val reg_facts : t -> int -> Tset.t array
(** [reg_facts t fx]: the points-to sets of function [fx]'s values by
    value id; ids past its end (and every id of a function whose values
    point nowhere, whose array is empty) have none *)

val param_pts : t -> int -> string -> Tset.t
(** [param_pts t fx p]: the points-to set of parameter [p] of function [fx] *)

val points_to : t -> Ssair.Ir.func -> Ssair.Ir.value -> Tset.t
(** objects a value may reference *)

val points_to_fx : t -> int -> Ssair.Ir.value -> Tset.t
(** {!points_to} in the function of that index *)

val reachable : t -> Tset.t -> Tset.t
(** objects transitively reachable through the heap *)
