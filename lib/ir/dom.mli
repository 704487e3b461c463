(** Dominator tree (Cooper–Harvey–Kennedy) of a function's CFG. *)

type tree

val compute : Ir.func -> tree
(** dominator tree of a function's CFG; blocks unreachable from the
    entry are not in it *)

val idom : tree -> Ir.bid -> Ir.bid option
(** [None] for the root and for blocks outside the tree *)

val dominates : tree -> Ir.bid -> Ir.bid -> bool
(** reflexive; [false] when the second block is outside the tree *)
