(** Discrete-time plant models: linearized inverted pendulum (Figure 1 of
    the paper), double inverted pendulum (two poles of different lengths
    on one trolley), and a generic LTI plant for the "generic Simplex"
    configuration.  Continuous dynamics are discretized with a truncated
    matrix exponential. *)

type t = {
  name : string;
  a : Linalg.mat;   (** discrete-time state matrix *)
  b : Linalg.mat;   (** discrete-time input matrix (n×1) *)
  dt : float;
  u_min : float;    (** actuator saturation *)
  u_max : float;
  state_dim : int;
}

val make :
  name:string -> a:Linalg.mat -> b:Linalg.mat -> dt:float ->
  ?u_min:float -> ?u_max:float -> unit -> t
(** build a plant from continuous-time matrices *)

val inverted_pendulum : ?mc:float -> ?mp:float -> ?l:float -> ?dt:float -> unit -> t
(** linearized cart-pole; state [pos; vel; angle; angvel] *)

val double_inverted_pendulum :
  ?mc:float -> ?m1:float -> ?m2:float -> ?l1:float -> ?l2:float -> ?dt:float ->
  unit -> t
(** two independent poles on one trolley; controllable iff l1 ≠ l2;
    state [x; ẋ; θ1; θ̇1; θ2; θ̇2] *)

val generic_lti : ?dim:int -> ?pole:float -> ?dt:float -> unit -> t

val step : t -> Linalg.vec -> u:float -> w:Linalg.vec -> Linalg.vec
(** one simulation step x' = A·x + B·sat(u) + w *)

val crashed : t -> Linalg.vec -> bool
(** has the plant left the physically meaningful envelope? *)

val car_following : ?dt:float -> unit -> t
(** longitudinal car-following: state [gap; closing speed; own speed],
    input = ego acceleration; the lead vehicle acts through the
    disturbance *)

val collided : Linalg.vec -> bool
