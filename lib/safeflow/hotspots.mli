(** Hot-spot attribution (PR 9): rank functions and shm regions by
    analysis cost and obligation pressure, from the phase-2 obligation
    ledger ({!Ledger}).  Works identically for a single file and for a
    fleet — members' ledgers arrive over the worker result channel
    ({!Fleet.member_result}[.mr_ledger]) — answering "which member and
    which function is burning the budget, and why". *)

type row = {
  hs_member : string;  (** member path; [""] for a single-file run *)
  hs_name : string;  (** function or region name *)
  hs_entries : int;  (** ledger entries attributed here (EXEMPT excluded) *)
  hs_failed : int;
  hs_queries : int;  (** Omega queries issued *)
  hs_avoided : int;  (** Omega queries skipped via interval proofs *)
  hs_time_ns : int;
  hs_score : float;
}

val rank : ?top:int -> (string * Ledger.entry list) list -> row list
(** per-function ranking over [(member path, ledger)] pairs, highest
    score first (ties broken by name for determinism); [top] truncates
    (0 or absent = all) *)

val rank_regions : ?top:int -> (string * Ledger.entry list) list -> row list
(** same, grouped by shm region name (entries without a region are
    skipped) *)

val rows_json : row list -> Jsonlite.value
(** rows as a JSON array (the [functions] / [regions] payloads of
    [safeflow hotspots --json]) *)

val pp_rows : Format.formatter -> row list -> unit
(** aligned human-readable table *)
