(** Small dense linear-algebra kernel for the Simplex-architecture
    substrate: matrix/vector arithmetic, Gaussian-elimination solve and
    inverse, the discrete-time Lyapunov equation (stability-envelope
    monitors) and the discrete-time algebraic Riccati equation (LQR
    synthesis). *)

type mat = float array array  (** row-major *)

type vec = float array

exception Singular
(** raised by {!solve} / {!inverse} on (numerically) singular systems *)

(** {1 Construction} *)

val mat_make : int -> int -> float -> mat
(** [mat_make n m v] — n×m matrix filled with [v]. *)

val identity : int -> mat

val copy : mat -> mat

(** {1 Arithmetic} *)

val dims : mat -> int * int
(** (rows, columns) *)

val transpose : mat -> mat

val add : mat -> mat -> mat

val sub : mat -> mat -> mat

val scale : float -> mat -> mat

val mul : mat -> mat -> mat
(** matrix product; raises [Invalid_argument] on dimension mismatch *)

val mat_vec : mat -> vec -> vec

val vec_add : vec -> vec -> vec

val vec_sub : vec -> vec -> vec

val dot : vec -> vec -> float

val norm2 : vec -> float

val quadratic_form : mat -> vec -> float
(** [quadratic_form p x] = xᵀ·P·x — the Lyapunov value used by monitors. *)

(** {1 Solving} *)

val solve : mat -> vec -> vec
(** [solve a b] solves A·x = b by Gaussian elimination with partial
    pivoting.  @raise Singular when no unique solution exists. *)

val inverse : mat -> mat

val max_abs_diff : mat -> mat -> float
(** largest elementwise absolute difference (convergence tests) *)

(** {1 Control-theoretic equations} *)

val dlyap : ?iters:int -> ?tol:float -> mat -> mat -> mat
(** [dlyap a q] solves the discrete Lyapunov equation AᵀPA − P + Q = 0 by
    fixed-point iteration; converges for Schur-stable [a]. *)

val dare : ?iters:int -> ?tol:float -> mat -> mat -> mat -> mat -> mat
(** [dare a b q r] solves the discrete algebraic Riccati equation; the
    result feeds {!lqr_gain}. *)

val lqr_gain : mat -> mat -> mat -> mat -> mat
(** [lqr_gain a b p r] = (R + BᵀPB)⁻¹BᵀPA; u = −K·x is the optimal
    state feedback for the DARE solution [p]. *)

val closed_loop : mat -> mat -> mat -> mat
(** [closed_loop a b k] = A − B·K *)

val pp_mat : Format.formatter -> mat -> unit
