(** Analysis configuration; defaults correspond to the paper's tool, the
    toggles drive the ablation benchmarks (B3). *)

type t = {
  field_sensitive : bool;
      (** track byte offsets into shared regions; off ⇒ whole-region *)
  context_sensitive : bool;
      (** analyze per (function, monitor-assumption-set) pair; off ⇒
          merge assumption sets over call sites *)
  control_deps : bool;
      (** report control-only dependencies (§3.4.1 false-positive class) *)
  check_restrictions : bool;  (** run phase 2 (P1–P3, A1/A2) *)
  omega_fuel : int;           (** budget per array-bounds query *)
  critical_sinks : (string * int list) list;
      (** extern functions with implicitly-critical argument positions
          (default: the pid argument of [kill]) *)
  recv_functions : string list;
      (** message-passing receive calls (§3.4.3), default [recv] *)
  verbose : bool;
      (** stderr diagnostics for silent recoveries (default false);
          report-invisible, excluded from {!Digest_ir.semantic_config} *)
  absint : bool;
      (** value-range abstract interpretation (default on): discharges
          A1/A2 bounds obligations and prunes decided control-dependence
          branches; precision-only (off ⇒ byte-identical to the
          pre-range analyzer).  Included in the semantic fingerprint. *)
}

val default : t
