(** Interning (hash-consing) support for the phase-3 engine.

    Taint entities are structural values — [(string * assumption list *
    vid)] tuples — so keying tables by them would structurally hash a
    monitoring context on every membership test.  This module maps such
    values to dense integer ids once, after which membership is an array
    lookup and context union is a memoized table hit. *)

(** A generic interner: structural value ⇄ dense id, ids start at 0. *)
type 'a t

val create : int -> 'a t

val intern : 'a t -> 'a -> int
(** id of [x], allocating the next dense id on first sight *)

val get : 'a t -> int -> 'a
(** inverse of {!intern}; O(1) *)

val length : 'a t -> int

val iter : (int -> 'a -> unit) -> 'a t -> unit

val to_array : 'a t -> 'a array
(** the interned values in id order (a fresh array of length
    {!length}) *)

(** Interner specialized to packed integer keys (open addressing over
    flat int arrays — no per-entry allocation, no structural hashing).
    The sparse engine packs taint-entity descriptors and (function id,
    context id) pairs into single ints and maps them to dense ids
    here. *)
module Packed : sig
  type t

  val create : int -> t
  (** capacity hint: expected number of distinct keys *)

  val intern : t -> int -> int
  (** dense id of the key, allocating the next id on first sight.
      Detect first sight by comparing {!length} before and after. *)

  val find_opt : t -> int -> int option
  (** id of the key if already interned *)

  val length : t -> int
end

(** Hash-consed monitoring contexts (canonical sorted assumption lists)
    with memoized union. *)
module Ctx : sig
  type store

  val create : unit -> store

  val intern : store -> Assume.assumption list -> int
  (** canonicalizes (sorts, dedups) before interning, so structurally
      equal contexts share one id *)

  val get : store -> int -> Assume.assumption list

  val union : store -> int -> int -> int
  (** id of the union of two contexts; memoized on the id pair *)

  val length : store -> int
end
