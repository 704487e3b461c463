(** Summary-based value-flow engine — the ESP-style optimization sketched
    at the end of paper §3.3: per-function value-flow summaries (return
    and critical-sink dependencies on parameters, read sites and memory
    objects) inlined at call sites in a bottom-up pass over call-graph
    SCCs.

    Warnings match the exact per-context engine ({!Vfgraph}); data
    dependencies match wherever
    every read site has uniform monitoring coverage across the contexts
    reaching it (and are conservative otherwise); control-only
    dependencies are not computed. *)

type source =
  | Sparam of string
  | Ssite of Minic.Loc.t * string
  | Ssocket of Minic.Loc.t * string

module Srcset : Set.S with type elt = source

type result = {
  warnings : Report.warning list;
  dependencies : Report.dependency list;  (** data dependencies only *)
  passes : int;
}

val pp_source : Format.formatter -> source -> unit

val run :
  ?config:Config.t -> Ssair.Ir.program -> Shm.t -> Phase1.t -> Pointsto.t -> result
