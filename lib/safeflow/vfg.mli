(** Value-flow-graph export: DOT rendering of the taint state, used for
    the manual review of reported dependencies the paper requires
    (§1, §4).  The bytes depend only on the result, never on the run
    or the cache state that produced it. *)

val to_dot : Phase3.result -> string
(** data-flow taint graph *)

val write_dot : string -> Phase3.result -> unit
