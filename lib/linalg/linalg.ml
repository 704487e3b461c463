(** Small dense linear-algebra kernel.

    Provides exactly what the Simplex-architecture substrate needs:
    matrix/vector arithmetic, Gaussian-elimination solve and inverse, the
    discrete-time Lyapunov equation (for the stability-envelope monitor)
    and the discrete-time algebraic Riccati equation via fixed-point
    iteration (for LQR safety-controller synthesis). *)

type mat = float array array  (* row major *)
type vec = float array

exception Singular

let mat_make n m v : mat = Array.init n (fun _ -> Array.make m v)

let identity n : mat = Array.init n (fun i -> Array.init n (fun j -> if i = j then 1.0 else 0.0))

let dims (a : mat) = (Array.length a, if Array.length a = 0 then 0 else Array.length a.(0))

let copy (a : mat) : mat = Array.map Array.copy a

let transpose (a : mat) : mat =
  let n, m = dims a in
  Array.init m (fun j -> Array.init n (fun i -> a.(i).(j)))

let add (a : mat) (b : mat) : mat =
  let n, m = dims a in
  Array.init n (fun i -> Array.init m (fun j -> a.(i).(j) +. b.(i).(j)))

let sub (a : mat) (b : mat) : mat =
  let n, m = dims a in
  Array.init n (fun i -> Array.init m (fun j -> a.(i).(j) -. b.(i).(j)))

let scale (k : float) (a : mat) : mat = Array.map (Array.map (fun x -> k *. x)) a

let mul (a : mat) (b : mat) : mat =
  let n, p = dims a in
  let p', m = dims b in
  if p <> p' then invalid_arg "Linalg.mul: dimension mismatch";
  Array.init n (fun i ->
      Array.init m (fun j ->
          let s = ref 0.0 in
          for k = 0 to p - 1 do
            s := !s +. (a.(i).(k) *. b.(k).(j))
          done;
          !s))

let mat_vec (a : mat) (x : vec) : vec =
  let n, m = dims a in
  if m <> Array.length x then invalid_arg "Linalg.mat_vec: dimension mismatch";
  Array.init n (fun i ->
      let s = ref 0.0 in
      for j = 0 to m - 1 do
        s := !s +. (a.(i).(j) *. x.(j))
      done;
      !s)

let vec_add (x : vec) (y : vec) : vec = Array.mapi (fun i xi -> xi +. y.(i)) x
let vec_sub (x : vec) (y : vec) : vec = Array.mapi (fun i xi -> xi -. y.(i)) x

let dot (x : vec) (y : vec) : float =
  let s = ref 0.0 in
  Array.iteri (fun i xi -> s := !s +. (xi *. y.(i))) x;
  !s

let norm2 x = sqrt (dot x x)

(** xᵀ A x — the quadratic form used by Lyapunov monitors. *)
let quadratic_form (a : mat) (x : vec) : float = dot x (mat_vec a x)

(** Solve A x = b by Gaussian elimination with partial pivoting. *)
let solve (a : mat) (b : vec) : vec =
  let n, m = dims a in
  if n <> m || n <> Array.length b then invalid_arg "Linalg.solve: dimension mismatch";
  let a = copy a in
  let b = Array.copy b in
  for col = 0 to n - 1 do
    (* pivot *)
    let pivot = ref col in
    for r = col + 1 to n - 1 do
      if Float.abs a.(r).(col) > Float.abs a.(!pivot).(col) then pivot := r
    done;
    if Float.abs a.(!pivot).(col) < 1e-12 then raise Singular;
    if !pivot <> col then begin
      let tmp = a.(col) in
      a.(col) <- a.(!pivot);
      a.(!pivot) <- tmp;
      let tb = b.(col) in
      b.(col) <- b.(!pivot);
      b.(!pivot) <- tb
    end;
    for r = col + 1 to n - 1 do
      let f = a.(r).(col) /. a.(col).(col) in
      if f <> 0.0 then begin
        for c = col to n - 1 do
          a.(r).(c) <- a.(r).(c) -. (f *. a.(col).(c))
        done;
        b.(r) <- b.(r) -. (f *. b.(col))
      end
    done
  done;
  let x = Array.make n 0.0 in
  for r = n - 1 downto 0 do
    let s = ref b.(r) in
    for c = r + 1 to n - 1 do
      s := !s -. (a.(r).(c) *. x.(c))
    done;
    x.(r) <- !s /. a.(r).(r)
  done;
  x

(** Matrix inverse via column-wise solves. *)
let inverse (a : mat) : mat =
  let n, _ = dims a in
  let cols =
    Array.init n (fun j ->
        let e = Array.make n 0.0 in
        e.(j) <- 1.0;
        solve a e)
  in
  Array.init n (fun i -> Array.init n (fun j -> cols.(j).(i)))

let max_abs_diff (a : mat) (b : mat) : float =
  let n, m = dims a in
  let worst = ref 0.0 in
  for i = 0 to n - 1 do
    for j = 0 to m - 1 do
      worst := Float.max !worst (Float.abs (a.(i).(j) -. b.(i).(j)))
    done
  done;
  !worst

(** Discrete-time Lyapunov equation AᵀPA − P + Q = 0, solved by the
    fixed-point iteration P ← Q + AᵀPA (converges for Schur-stable A). *)
let dlyap ?(iters = 10_000) ?(tol = 1e-12) (a : mat) (q : mat) : mat =
  let at = transpose a in
  let rec go p k =
    let p' = add q (mul at (mul p a)) in
    if k >= iters || max_abs_diff p p' < tol then p' else go p' (k + 1)
  in
  go (copy q) 0

(** Discrete-time algebraic Riccati equation
    P = AᵀPA − AᵀPB (R + BᵀPB)⁻¹ BᵀPA + Q, by fixed-point iteration.
    Returns [P]. *)
let dare ?(iters = 10_000) ?(tol = 1e-10) (a : mat) (b : mat) (q : mat) (r : mat) : mat =
  let at = transpose a and bt = transpose b in
  let step p =
    let pa = mul p a and pb = mul p b in
    let g = add r (mul bt pb) in
    let k = mul (inverse g) (mul bt pa) in
    (* Q + AᵀPA − AᵀPB·K *)
    add q (sub (mul at pa) (mul at (mul pb k)))
  in
  let rec go p n =
    let p' = step p in
    if n >= iters || max_abs_diff p p' < tol then p' else go p' (n + 1)
  in
  go (copy q) 0

(** LQR gain K = (R + BᵀPB)⁻¹ BᵀPA from a DARE solution [p]:
    u = −Kx is the optimal state feedback. *)
let lqr_gain (a : mat) (b : mat) (p : mat) (r : mat) : mat =
  let bt = transpose b in
  let g = add r (mul bt (mul p b)) in
  mul (inverse g) (mul bt (mul p a))

(** Closed-loop matrix A − BK. *)
let closed_loop (a : mat) (b : mat) (k : mat) : mat = sub a (mul b k)

let pp_mat ppf (a : mat) =
  Array.iter
    (fun row ->
      Fmt.pf ppf "[ %a ]@." Fmt.(array ~sep:(any ", ") (fmt "%8.4f")) row)
    a
