(** Closed-loop simulation of the Simplex architecture with fault
    injection: the runtime counterpart of the paper's evaluation
    narrative (rigged feedback, kill-pid, faulty complex controllers). *)

(** Deterministic splitmix RNG (reproducible runs). *)
module Rng : sig
  type t

  val create : int -> t

  val next : t -> int64

  val uniform : t -> float
  (** uniform in [-1, 1] *)
end

type scenario =
  | Nominal
  | Complex_fault of Controller.fault
  | Rigged_feedback of int
      (** from the given step, the non-core component rewrites the
          published feedback so the vulnerable decision module's
          recoverability re-check sees a calm plant *)
  | Kill_pid of int
      (** from the given step, the watchdog pid cell holds the core's pid *)

type core_variant =
  | Vulnerable  (** decision re-reads the shared feedback (Figure 2) *)
  | Fixed       (** decision uses a local copy (the paper's fix) *)

type event =
  | Switched_to_safety of int
  | Switched_to_complex of int
  | Monitor_reject of int
  | Crash of int
  | Core_killed of int

type result = {
  steps_run : int;
  crashed : bool;
  core_killed : bool;
  safety_engagements : int;
  monitor_rejections : int;
  max_angle : float;
  max_position : float;
  final_state : Linalg.vec;
  events : event list;  (** newest first *)
  cost : float;         (** Σ xᵀx·dt *)
}

type config = {
  plant : Plant.t;
  scenario : scenario;
  variant : core_variant;
  steps : int;
  seed : int;
  disturbance : float;
  x0 : Linalg.vec option;
}

val default_config : Plant.t -> config

val run : config -> result
