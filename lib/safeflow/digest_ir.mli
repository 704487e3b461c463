(** Stable digests of analysis inputs: the keys of the content-addressed
    analysis cache ({!Cache}) and the program fingerprint certificate
    bundles bind to.

    Every digest is a hex MD5 of a canonical [Marshal] encoding of pure
    data.  Hash-table-backed structures (type environments) are first
    converted to sorted association lists so the digest does not depend
    on internal bucket order.

    The cache keys an analysed input by its {!source_key} (file label
    and text) and {!semantic_config}; any edit, even one to whitespace
    or a comment, changes the key and recomputes the analysis.  The
    per-function value-range summaries are keyed by {!Absint} itself,
    on location-free digests, so such an edit recomputes none of them. *)

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
(** digest of (file name, source text); with {!semantic_config} it keys
    the ["analysis"] entry, and alone the input's absint pack *)

val semantic_config : Config.t -> string
(** fingerprint of the {e semantic} configuration fields — the ones that
    change analysis results ([verbose] is excluded) *)

val of_program : Ssair.Ir.program -> t
(** the program and environment digests a certificate manifest records;
    SSA functions carry source locations, so a line shift changes
    [program] *)
