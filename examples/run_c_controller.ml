(* Hardware-in-the-loop (simulated): execute the actual C core controller
   (systems/ip_controller.c) on the IR interpreter, closed-loop against
   the OCaml pendulum plant, with an OCaml "non-core" complex controller
   writing into the interpreter's shared-memory segment.

   This demonstrates that the analyzed artifact is the running artifact:
   the same MiniC source that SafeFlow checks balances the simulated
   pendulum, and the kill-pid attack that SafeFlow flags statically
   actually brings the core down at run time. *)

open Simplex

let find path =
  let candidates = [ path; "../" ^ path; "../../" ^ path; "../../../" ^ path ] in
  match List.find_opt Sys.file_exists candidates with
  | Some p -> p
  | None -> failwith ("cannot find " ^ path)

(* shared-memory layout of ip_controller.c (LP64, same Ty.sizeof rules the
   analysis uses):
     Feedback      at   0: track 0, angle 8, track_vel 16, angle_vel 24, seq 32, ts 40
     NCControl     at  48: control 48, seq 56, valid 64
     NCStatus      at  72: heartbeat 72, mode 80, request 84, gain_scale 88
     WatchdogInfo  at  96: nc_pid 96, enable 100, restart 104 *)

type world = {
  plant : Plant.t;
  complex : Controller.t;
  mutable x : Linalg.vec;
  mutable shm : Ssair.Interp.ptr option;
  mutable control_steps : int;
  mutable outputs : float list;
  mutable nc_heartbeat : int64;
  mutable core_killed : bool;
  mutable crashed : bool;
  mutable rejected_hint : int;
  attack_at : int option;  (** control step at which the pid attack begins *)
  max_control_steps : int;
}

exception Done of string

let core_pid = 1000L

let run_system ~attack_at ~steps () =
  let file = find "systems/ip_controller.c" in
  let a = Safeflow.Driver.analyze_file file in
  let ir = (Lazy.force a.Safeflow.Driver.detail).Safeflow.Driver.prepared.Safeflow.Driver.ir in
  let env = ir.Ssair.Ir.env in
  let plant = Plant.inverted_pendulum () in
  let w =
    {
      plant;
      complex = Controller.complex plant;
      x = [| 0.05; 0.0; 0.03; 0.0 |];
      shm = None;
      control_steps = 0;
      outputs = [];
      nc_heartbeat = 0L;
      core_killed = false;
      crashed = false;
      rejected_hint = 0;
      attack_at;
      max_control_steps = steps;
    }
  in
  let fget st off =
    match w.shm with
    | Some p ->
      (match Ssair.Interp.load_scalar st env Minic.Ty.Double { p with poff = off } with
      | Ssair.Interp.VFloat f -> f
      | _ -> 0.0)
    | None -> 0.0
  in
  let fput st off v =
    match w.shm with
    | Some p ->
      Ssair.Interp.store_scalar st env Minic.Ty.Double { p with poff = off }
        (Ssair.Interp.VFloat v)
    | None -> ()
  in
  let lput st off v =
    match w.shm with
    | Some p ->
      Ssair.Interp.store_scalar st env Minic.Ty.Long { p with poff = off }
        (Ssair.Interp.VInt v)
    | None -> ()
  in
  let iput st off v =
    match w.shm with
    | Some p ->
      Ssair.Interp.store_scalar st env Minic.Ty.Int { p with poff = off }
        (Ssair.Interp.VInt v)
    | None -> ()
  in
  let lget st off =
    match w.shm with
    | Some p -> (
      match Ssair.Interp.load_scalar st env Minic.Ty.Long { p with poff = off } with
      | Ssair.Interp.VInt n -> n
      | _ -> 0L)
    | None -> 0L
  in
  (* the simulated non-core period: read the published feedback, publish a
     complex control output, bump the heartbeat, optionally attack *)
  let noncore_period st =
    let fb =
      [| fget st 0; fget st 16; fget st 8; fget st 24 |]
      (* [track, track_vel, angle, angle_vel] -> plant order [x, x', th, th'] *)
    in
    let u = Controller.output w.complex fb in
    fput st 48 u;
    lput st 56 (lget st 32);
    iput st 64 1L;
    let attacking =
      match w.attack_at with Some k -> w.control_steps >= k | None -> false
    in
    if not attacking then begin
      w.nc_heartbeat <- Int64.add w.nc_heartbeat 1L;
      lput st 72 w.nc_heartbeat;
      iput st 96 4242L;
      iput st 100 1L
    end
    else begin
      (* the attack: stall the heartbeat and point the watchdog at the
         core's own pid *)
      iput st 96 core_pid;
      iput st 100 1L
    end
  in
  let handler st name args =
    match (name, args) with
    | "shmget", _ -> Ssair.Interp.VInt 7L
    | "shmat", _ ->
      let p = Ssair.Interp.alloc_block st "ip-shm" 256 in
      w.shm <- Some p;
      Ssair.Interp.VPtr p
    | "readTrackSensor", _ -> Ssair.Interp.VFloat w.x.(0)
    | "readAngleSensor", _ -> Ssair.Interp.VFloat w.x.(2)
    | "readMotorCurrent", _ -> Ssair.Interp.VFloat 0.0
    | "sendControl", [ v ] ->
      let u = match v with Ssair.Interp.VFloat f -> f | Ssair.Interp.VInt n -> Int64.to_float n | _ -> 0.0 in
      w.outputs <- u :: w.outputs;
      w.control_steps <- w.control_steps + 1;
      w.x <- Plant.step w.plant w.x ~u ~w:(Array.make 4 0.0);
      if Plant.crashed w.plant w.x then begin
        w.crashed <- true;
        raise (Done "plant crashed")
      end;
      if w.control_steps >= w.max_control_steps then raise (Done "step budget reached");
      Ssair.Interp.VInt 0L
    | "wait_period", _ ->
      noncore_period st;
      Ssair.Interp.VInt 0L
    | "kill", [ Ssair.Interp.VInt pid; _ ] ->
      if Int64.equal pid core_pid then begin
        w.core_killed <- true;
        raise (Done "core killed itself")
      end;
      Ssair.Interp.VInt 0L
    | "current_time", _ ->
      Ssair.Interp.VInt (Int64.of_int (w.control_steps * 10000))
    | "spawn_noncore", _ -> Ssair.Interp.VInt 4242L
    | "getpid", _ -> Ssair.Interp.VInt core_pid
    | ("Lock" | "Unlock" | "log_event" | "InitCheck"), _ -> Ssair.Interp.VInt 0L
    | _ -> Ssair.Interp.VInt 0L
  in
  let stop_reason =
    try
      ignore (Ssair.Interp.run ~extern_handler:handler ~max_steps:200_000_000 ir);
      "main returned"
    with
    | Done r -> r
    | Ssair.Interp.Trap m -> "trap: " ^ m
  in
  (w, stop_reason)

let () =
  Fmt.pr "=== Running the C core controller under the IR interpreter ===@.@.";
  Fmt.pr "Plant: OCaml inverted-pendulum model; non-core controller: OCaml LQR@.";
  Fmt.pr "writing into the interpreter's shared-memory segment.@.@.";

  let w, reason = run_system ~attack_at:None ~steps:2000 () in
  Fmt.pr "--- nominal run ---@.";
  Fmt.pr "  stop reason:       %s@." reason;
  Fmt.pr "  control steps:     %d@." w.control_steps;
  Fmt.pr "  crashed:           %b@." w.crashed;
  Fmt.pr "  final state:       [%a]@." Fmt.(array ~sep:(any "; ") (fmt "%+.4f")) w.x;
  let maxu = List.fold_left (fun m u -> Float.max m (Float.abs u)) 0.0 w.outputs in
  Fmt.pr "  max |output|:      %.3f V@." maxu;

  Fmt.pr "@.--- kill-pid attack (the error SafeFlow reports statically) ---@.";
  let w2, reason2 = run_system ~attack_at:(Some 500) ~steps:5000 () in
  Fmt.pr "  stop reason:       %s@." reason2;
  Fmt.pr "  control steps:     %d@." w2.control_steps;
  Fmt.pr "  core killed:       %b@." w2.core_killed;
  Fmt.pr "@.The unmonitored wdInfo->nc_pid read that SafeFlow flags as an error@.";
  Fmt.pr "dependency is precisely what lets the non-core bring the core down.@."
