(** Control-dependence graph (Ferrante–Ottenstein–Warren), computed from
    the post-dominator tree.  Used by phase 3 to detect critical data
    that is control-dependent on unmonitored non-core values. *)

type t = {
  slot_of : Ir.bid -> int;  (** block id → canonical dense slot, -1 if unknown *)
  slot_bid : int array;  (** dense slot → block id *)
  ctrl_slots : int list array;
      (** slot → slots directly control-dependent on it (its CDG
          children), each once; phase 3 wires one pc edge per entry *)
}

val compute : Ir.func -> t

