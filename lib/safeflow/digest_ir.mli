(** Stable structural digests of analysis inputs — the keys of the
    content-addressed analysis cache ({!Cache}).

    Every digest is a hex MD5 of a canonical [Marshal] encoding of pure
    data.  Hash-table-backed structures (type environments) are first
    converted to sorted association lists so the digest does not depend
    on internal bucket order.

    Two digests are equal iff the digested structures are structurally
    equal; since SSA functions carry source locations, an edit that
    shifts line numbers changes the program digest (a sound
    over-approximation — cached results are recomputed, never reused
    wrongly).  The per-function value-range summaries are keyed by
    {!Absint} itself, on location-free digests. *)

type t = {
  program : string;
      (** whole program: env + globals + externs + every function digest
          (annotations and callgraph edges are part of the function
          bodies, so they are covered) *)
  env : string;  (** type environment only (drives [Ty.sizeof]) *)
}

val of_value : 'a -> string
(** hex MD5 of the canonical marshalling of an arbitrary pure value; the
    value must not contain closures or custom blocks *)

val combine : string list -> string
(** digest of a list of digests *)

val source_key : ?file:string -> string -> string
(** key for the frontend tier: digest of (file name, source text) *)

val semantic_config : Config.t -> string
(** fingerprint of the {e semantic} configuration fields — the ones that
    change analysis results ([verbose] is excluded) *)

val of_program : Ssair.Ir.program -> t
