(** Synthetic core-component generator for the end-to-end benchmark and
    the fleet tests: configurable region count, worker functions,
    helper-chain depth and monitored fraction.

    Generation is deterministic and host-independent: randomness comes
    from a seeded LCG, never from [Random], so a (seed, params) pair
    reproduces identical sources on every machine.  Seed 0 (the default)
    reproduces the historical unseeded output byte-for-byte. *)

type params = {
  regions : int;
  workers : int;
  chain_depth : int;
  monitored_fraction : float;
}

val default : params

val generate : ?seed:int -> params -> string
(** MiniC source of a synthetic core component.  A non-zero [seed]
    varies the pure-arithmetic constants of the helper chains — every
    content digest changes, the taint structure and findings do not. *)

val of_size : ?seed:int -> int -> string
(** single-knob scaling: worker count (size grows roughly linearly) *)

(** {1 Fleets} *)

type fleet_params = {
  fleet_n : int;        (** number of member systems *)
  fleet_workers : int;  (** worker functions per member *)
  fleet_overlap : float;
      (** fraction of each member's workers drawn from a shared pool
          placed at byte-identical source positions in every member —
          the controlled cross-system function overlap *)
  fleet_dup : float;
      (** fraction of members that are exact byte-copies of member 0
          under their own file names *)
}

val default_fleet : fleet_params

val fleet : ?seed:int -> fleet_params -> (string * string) list
(** [(file name, MiniC source)] for every member.  Shared-pool functions
    are byte-identical (text {e and} position) across members, and
    duplicated members are byte-identical whole, so their cache entries
    dedupe fleet-wide when members are analyzed under one normalized
    source label (see {!Fleet.run}). *)

val context_explosion : depth:int -> string
(** binary tree of monitoring functions: 2^depth distinct monitoring
    contexts reach the leaf — the exact engine's exponential case (B4) *)
