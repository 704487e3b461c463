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

val analyze : Ssair.Ir.program -> t
(** run to fixpoint over the whole program *)

val pts_get : t -> key -> Tset.t

val fold_pts : (key -> Tset.t -> 'a -> 'a) -> t -> 'a -> 'a
(** fold over every points-to binding (iteration order unspecified) *)

val fold_heap : (Node.t -> Tset.t -> 'a -> 'a) -> t -> 'a -> 'a
(** fold over every heap cell (iteration order unspecified) *)

val points_to : t -> Ssair.Ir.func -> Ssair.Ir.value -> Tset.t
(** objects a value may reference *)

val reachable : t -> Tset.t -> Tset.t
(** objects transitively reachable through the heap *)

val may_alias : t -> Ssair.Ir.func -> Ssair.Ir.value -> Ssair.Ir.value -> bool

val pp_target_set : Format.formatter -> Tset.t -> unit
