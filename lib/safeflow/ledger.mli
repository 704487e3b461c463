(** Obligation ledger (PR 9): a structured audit trail recording, for
    every A1/A2 bounds obligation and every P1–P3 restriction-check
    site, {e which} prover discharged it, {e with what} facts (interval
    bounds, constraint-system size, query counts) and {e at what} cost.

    Entries ride alongside the phase-2 result — including through the
    ["analysis"] cache entry, so a warm run reconciles exactly like a
    cold one — but never feed into {!Report.t}: reports are
    byte-identical with or without anyone reading the ledger (the PR 3
    telemetry invariant).  [safeflow audit] renders the ledger as a
    human tree or as [--audit-json] (schema [safeflow-audit/1]);
    [safeflow hotspots] ranks functions by it. *)

open Minic

(** how an obligation / site check was settled *)
type discharge =
  | Ranges  (** absint interval proof; no Omega query issued for this side *)
  | Omega_unsat  (** Omega decided Unsat on the raw constraint system *)
  | Omega_hyp
      (** Omega Unsat only after absint range hypotheses were injected *)
  | Const  (** constant index statically inside the declared bound *)
  | Site_ok  (** P1–P3 site examined and found clean *)
  | Assumed  (** obligation suspended: initializing (exempt) function *)
  | Failed  (** a violation (or undischarged Unknown) was reported *)

type entry = {
  l_rule : string;  (** "A1" | "A2" | "P1" | "P2" | "P3" | "EXEMPT" *)
  l_func : string;
  l_loc : Loc.t;
  l_region : string;
      (** shm region / array symbol; [""] when not tied to one *)
  l_discharge : discharge;
  l_counted : bool;
      (** participates in the bounds tally ({!reconcile}): exactly the
          non-constant A1/A2 obligations *)
  l_queries : int;  (** Omega queries issued for this obligation *)
  l_avoided : int;  (** Omega queries skipped thanks to interval proofs *)
  l_cstrs : int;
      (** constraint-system size handed to Omega (max over its queries) *)
  l_hyps : int;  (** absint range hypotheses injected into Omega queries *)
  l_itv : (int * int) option;  (** interval fact used, when absint had one *)
  l_bound : int;  (** declared element count for bounds obligations; -1 n/a *)
  l_ns : int;  (** wall time spent deciding this entry, nanoseconds *)
}

val discharge_name : discharge -> string
(** stable lower-case name used in JSON and CLI output *)

val sort : entry list -> entry list
(** stable rendering order (function, location, rule, region) —
    emission order is a phase-2 traversal detail and must not leak *)

(** The bounds tally: sums over the [l_counted] entries.  Phase 2's
    [bounds], the coverage stats, [safeflow audit] and the certificate
    manifest all read this one record. *)
type recon = {
  r_ranges : int;
  r_omega : int;  (** [Omega_unsat] + [Omega_hyp] *)
  r_failed : int;
  r_total : int;
  r_queries : int;
  r_avoided : int;
}

val reconcile : entry list -> recon

val entries_json : entry list -> Jsonlite.value
(** the sorted entries as a JSON array (the [entries] payload of the
    [safeflow-audit/1] schema) *)

val summary_json : entry list -> Jsonlite.value
(** compact JSON object: entry count, bounds reconciliation block, and
    per-discharge totals — attached as a Telemetry section and embedded
    in audit JSON *)
