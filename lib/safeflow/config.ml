(** Analysis configuration.

    The defaults correspond to the paper's tool; the toggles exist for the
    ablation benchmarks (B3) and for debugging. *)

type t = {
  field_sensitive : bool;
      (** track byte offsets into shared-memory regions; off = treat every
          region access as whole-region (more warnings) *)
  context_sensitive : bool;
      (** analyze (function, monitor-assumption-set) pairs separately; off
          = merge assumption sets over all call sites (can lose monitored
          reads and report spurious warnings) *)
  control_deps : bool;
      (** report critical data that is only control-dependent on
          unmonitored non-core values (§3.4.1 false-positive class) *)
  check_restrictions : bool;  (** run phase 2 (P1–P3, A1/A2) *)
  omega_fuel : int;           (** budget for each array-bounds query *)
  critical_sinks : (string * int list) list;
      (** extern functions whose listed argument positions are implicitly
          critical (the paper asserts the pid argument of [kill]) *)
  recv_functions : string list;
      (** message-passing extension (§3.4.3): extern receive calls whose
          buffer argument is tainted when the socket is non-core *)
  verbose : bool;
      (** emit one-line diagnostics to stderr for otherwise-silent
          recoveries (stale/corrupt cache entries); never changes
          reports, so deliberately outside the semantic fingerprint *)
  absint : bool;
      (** interprocedural value-range abstract interpretation
          ({!Absint}): phase 2 discharges A1/A2 obligations whose index
          range is provably in bounds (and strengthens the remaining
          Omega queries with range hypotheses), phase 3 prunes
          control-dependence edges of branches with a decided condition.
          Precision-only: off reproduces byte-identical reports, on can
          only remove findings.  Part of the semantic fingerprint. *)
}

let default =
  {
    verbose = false;
    absint = true;
    field_sensitive = true;
    context_sensitive = true;
    control_deps = true;
    check_restrictions = true;
    omega_fuel = 200_000;
    critical_sinks = [ ("kill", [ 0 ]) ];
    recv_functions = [ "recv" ];
  }
