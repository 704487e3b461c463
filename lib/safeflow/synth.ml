(** Synthetic core-component generator for the end-to-end benchmark,
    the fleet tests and the CI fleet smoke job.

    Generates MiniC core components with a configurable number of shared
    regions, worker functions and call-chain depth.  Workers read the
    regions (a configurable fraction through monitoring functions),
    massage the values through local arithmetic and feed a critical
    output; the result is a family of programs whose analysis cost can be
    plotted against size.

    All generation is deterministic: randomness comes from a seeded
    linear-congruential generator (no [Random] state, no host
    dependence), so a (seed, params) pair reproduces the same sources on
    every machine — so a seeded fleet or benchmark input is the same on
    every host.  Seed 0 (the default)
    reproduces the historical unseeded output byte-for-byte. *)

type params = {
  regions : int;        (** shared-memory regions *)
  workers : int;        (** worker functions *)
  chain_depth : int;    (** helpers called under each worker *)
  monitored_fraction : float;  (** fraction of workers that monitor *)
}

let default = { regions = 4; workers = 8; chain_depth = 2; monitored_fraction = 0.5 }

let buf_add = Buffer.add_string

(* -- deterministic PRNG ------------------------------------------------------

   The 48-bit drand48 LCG (fits OCaml's 63-bit ints on every 64-bit
   host).  Not statistically strong — it only has to decorrelate
   generated source constants — but exactly reproducible across hosts
   and OCaml versions, which [Random] does not promise. *)

type rng = { mutable s : int }

let rng_make seed = { s = ((seed * 2654435761) lxor 0x5DEECE66D) land 0xFFFFFFFFFFFF }

let rng_float r =
  r.s <- ((r.s * 0x5DEECE66D) + 0xB) land 0xFFFFFFFFFFFF;
  float_of_int ((r.s lsr 22) land 0xFFFFFF) /. 16777216.0

(* Seed-varied arithmetic constant: the default literal under seed 0,
   otherwise a value from [lo, lo+spread) formatted stably.  Constants
   only feed pure local double arithmetic, so varying them changes every
   content digest without changing the taint structure or the findings
   the analysis reports. *)
let const ~(rng : rng option) ~default lo spread =
  match rng with
  | None -> default
  | Some r -> Fmt.str "%.4f" (lo +. (spread *. rng_float r))

(* helper chain for worker [tag]: [chain_depth] pure-arithmetic helpers
   named <prefix>_<tag>_<d>, the worker entry point calling <prefix>_<tag>_0 *)
let emit_helper_chain b ~rng ~prefix ~tag ~depth =
  for d = depth - 1 downto 0 do
    if d = depth - 1 then
      buf_add b
        (Fmt.str
           "double %s_%s_%d(double x)\n{\n  double y = x * %s + %s;\n  int i;\n  for (i = 0; i < 4; i++) {\n    y = y * %s + x * %s;\n  }\n  return y;\n}\n\n"
           prefix tag d
           (const ~rng ~default:"1.01" 1.0 0.02)
           (const ~rng ~default:"0.5" 0.25 0.5)
           (const ~rng ~default:"0.99" 0.95 0.04)
           (const ~rng ~default:"0.01" 0.005 0.02))
    else
      buf_add b
        (Fmt.str
           "double %s_%s_%d(double x)\n{\n  double y = %s_%s_%d(x) - %s;\n  if (y > %s) {\n    y = %s;\n  }\n  return y;\n}\n\n"
           prefix tag d prefix tag (d + 1)
           (const ~rng ~default:"0.25" 0.1 0.4)
           (const ~rng ~default:"10.0" 8.0 4.0)
           (const ~rng ~default:"10.0" 8.0 4.0))
  done

let generate ?(seed = 0) (p : params) : string =
  let rng = if seed = 0 then None else Some (rng_make seed) in
  let b = Buffer.create 4096 in
  buf_add b "struct Block { double a; double bfield; double c; long seq; };\n";
  buf_add b "typedef struct Block Block;\n\n";
  for r = 0 to p.regions - 1 do
    buf_add b (Fmt.str "Block *region%d;\n" r)
  done;
  buf_add b "\nextern void sendControl(double v);\n";
  buf_add b "extern void log_event(char *m, double v);\n\n";
  (* init function *)
  buf_add b "void initShm()\n/*** SafeFlow Annotation shminit ***/\n{\n";
  buf_add b "  int id;\n  void *base;\n  char *cursor;\n";
  buf_add b
    (Fmt.str "  id = shmget(6000, %d * sizeof(Block), 438);\n" p.regions);
  buf_add b "  base = shmat(id, (void *) 0, 0);\n  cursor = (char *) base;\n";
  for r = 0 to p.regions - 1 do
    buf_add b (Fmt.str "  region%d = (Block *) cursor;\n" r);
    if r < p.regions - 1 then buf_add b "  cursor = cursor + sizeof(Block);\n"
  done;
  buf_add b "  /*** SafeFlow Annotation\n";
  for r = 0 to p.regions - 1 do
    buf_add b (Fmt.str "       assume(shmvar(region%d, sizeof(Block)))\n" r)
  done;
  for r = 0 to p.regions - 1 do
    buf_add b (Fmt.str "       assume(noncore(region%d))\n" r)
  done;
  buf_add b "  ***/\n}\n\n";
  (* helper chains: pure local arithmetic *)
  for w = 0 to p.workers - 1 do
    emit_helper_chain b ~rng ~prefix:"helper" ~tag:(string_of_int w)
      ~depth:p.chain_depth;
    let region = w mod p.regions in
    let monitored =
      float_of_int w < (p.monitored_fraction *. float_of_int p.workers) -. 1e-9
    in
    if monitored then
      buf_add b
        (Fmt.str
           "double worker%d()\n/*** SafeFlow Annotation assume(core(region%d, 0, sizeof(Block))) ***/\n{\n  double v = region%d->a;\n  if (v > 5.0 || v < -5.0) {\n    return 0.0;\n  }\n  return helper_%d_0(v);\n}\n\n"
           w region region w)
    else
      buf_add b
        (Fmt.str
           "double worker%d()\n{\n  double v = region%d->bfield;\n  return helper_%d_0(v);\n}\n\n"
           w region w)
  done;
  (* main: combine everything *)
  buf_add b "int main()\n{\n  double total = 0.0;\n  long tick = 0;\n";
  buf_add b "  initShm();\n  while (tick < 1000) {\n";
  for w = 0 to p.workers - 1 do
    buf_add b (Fmt.str "    total = total + worker%d();\n" w)
  done;
  buf_add b "    /*** SafeFlow Annotation assert(safe(total)) ***/\n";
  buf_add b "    sendControl(total);\n    total = 0.0;\n    tick = tick + 1;\n  }\n";
  buf_add b "  return 0;\n}\n";
  Buffer.contents b

(** Scale by a single knob: worker count (size grows roughly linearly). *)
let of_size ?seed n =
  generate ?seed { default with workers = n; regions = max 2 (n / 4); chain_depth = 3 }

(* -- fleet generation --------------------------------------------------------- *)

type fleet_params = {
  fleet_n : int;
  fleet_workers : int;
  fleet_overlap : float;
  fleet_dup : float;
}

let default_fleet =
  { fleet_n = 16; fleet_workers = 4; fleet_overlap = 0.5; fleet_dup = 0.2 }

(* Members of a fleet share a byte-identical prelude (regions + initShm)
   and a byte-identical prefix of "shared pool" workers, so a shared
   function sits at the same (line, col) in every member that includes
   it.  Duplicate members hit each other's whole-program entries, whose
   digests include positions, when the sources are analyzed under one
   normalized source label. *)
let fleet ?(seed = 1) (fp : fleet_params) : (string * string) list =
  let nregions = 2 in
  let shared_k =
    max 0
      (min fp.fleet_workers
         (int_of_float ((fp.fleet_overlap *. float_of_int fp.fleet_workers) +. 0.5)))
  in
  (* shared-pool coefficients come from the fleet seed alone, so the
     pool text is identical in every member *)
  let shared_pool =
    let b = Buffer.create 1024 in
    let rng = Some (rng_make (seed * 7919)) in
    for i = 0 to shared_k - 1 do
      emit_helper_chain b ~rng ~prefix:"shared_h" ~tag:(string_of_int i) ~depth:2;
      let region = i mod nregions in
      if i mod 2 = 0 then
        buf_add b
          (Fmt.str
             "double shared_w%d()\n/*** SafeFlow Annotation assume(core(region%d, 0, sizeof(Block))) ***/\n{\n  double v = region%d->a;\n  if (v > 5.0 || v < -5.0) {\n    return 0.0;\n  }\n  return shared_h_%d_0(v);\n}\n\n"
             i region region i)
      else
        buf_add b
          (Fmt.str
             "double shared_w%d()\n{\n  double v = region%d->bfield;\n  return shared_h_%d_0(v);\n}\n\n"
             i region i)
    done;
    Buffer.contents b
  in
  let prelude =
    let b = Buffer.create 1024 in
    buf_add b "struct Block { double a; double bfield; double c; long seq; };\n";
    buf_add b "typedef struct Block Block;\n\n";
    for r = 0 to nregions - 1 do
      buf_add b (Fmt.str "Block *region%d;\n" r)
    done;
    buf_add b "\nextern void sendControl(double v);\n\n";
    buf_add b "void initShm()\n/*** SafeFlow Annotation shminit ***/\n{\n";
    buf_add b "  int id;\n  void *base;\n  char *cursor;\n";
    buf_add b (Fmt.str "  id = shmget(6000, %d * sizeof(Block), 438);\n" nregions);
    buf_add b "  base = shmat(id, (void *) 0, 0);\n  cursor = (char *) base;\n";
    for r = 0 to nregions - 1 do
      buf_add b (Fmt.str "  region%d = (Block *) cursor;\n" r);
      if r < nregions - 1 then buf_add b "  cursor = cursor + sizeof(Block);\n"
    done;
    buf_add b "  /*** SafeFlow Annotation\n";
    for r = 0 to nregions - 1 do
      buf_add b (Fmt.str "       assume(shmvar(region%d, sizeof(Block)))\n" r)
    done;
    for r = 0 to nregions - 1 do
      buf_add b (Fmt.str "       assume(noncore(region%d))\n" r)
    done;
    buf_add b "  ***/\n}\n\n";
    Buffer.contents b
  in
  let member m =
    let b = Buffer.create 4096 in
    buf_add b prelude;
    buf_add b shared_pool;
    (* unique tail: member-specific workers with member-seeded constants *)
    let rng = Some (rng_make ((seed * 31) + (m * 2654435761))) in
    let uniques = fp.fleet_workers - shared_k in
    for j = 0 to uniques - 1 do
      let tag = Fmt.str "m%d_%d" m j in
      emit_helper_chain b ~rng ~prefix:"uh" ~tag ~depth:2;
      let region = j mod nregions in
      if j mod 2 = 0 then
        buf_add b
          (Fmt.str
             "double uw_%s()\n/*** SafeFlow Annotation assume(core(region%d, 0, sizeof(Block))) ***/\n{\n  double v = region%d->a;\n  if (v > 5.0 || v < -5.0) {\n    return 0.0;\n  }\n  return uh_%s_0(v);\n}\n\n"
             tag region region tag)
      else
        buf_add b
          (Fmt.str
             "double uw_%s()\n{\n  double v = region%d->bfield;\n  return uh_%s_0(v);\n}\n\n"
             tag region tag)
    done;
    buf_add b "int main()\n{\n  double total = 0.0;\n";
    buf_add b "  initShm();\n";
    for i = 0 to shared_k - 1 do
      buf_add b (Fmt.str "  total = total + shared_w%d();\n" i)
    done;
    for j = 0 to uniques - 1 do
      buf_add b (Fmt.str "  total = total + uw_m%d_%d();\n" m j)
    done;
    buf_add b "  /*** SafeFlow Annotation assert(safe(total)) ***/\n";
    buf_add b "  sendControl(total);\n  return 0;\n}\n";
    Buffer.contents b
  in
  (* duplicate members are byte-copies of member 0 under their own file
     names: the strongest dedupe case (prepared IR and every
     program-granularity namespace hit cross-system) *)
  let ndup = int_of_float (fp.fleet_dup *. float_of_int fp.fleet_n) in
  let member0 = if fp.fleet_n > 0 then member 0 else "" in
  List.init fp.fleet_n (fun m ->
      let name = Fmt.str "member_%04d.c" m in
      if m = 0 then (name, member0)
      else if m <= ndup then (name, member0)
      else (name, member m))

(** Worst-case workload for the exact phase-3 engine: a binary tree of
    monitoring functions.  Each level contributes two alternative
    monitors with distinct assumptions, both calling into the next level,
    so the number of distinct monitoring contexts reaching the leaves is
    2^depth — the paper's "exponential in run-time complexity" case.  The
    summary engine (B4) stays polynomial in per-instruction work. *)
let context_explosion ~depth : string =
  let b = Buffer.create 4096 in
  buf_add b "struct Block { double a; double bfield; };\n";
  buf_add b "typedef struct Block Block;\n\n";
  let nregions = 2 * depth in
  for r = 0 to nregions - 1 do
    buf_add b (Fmt.str "Block *region%d;\n" r)
  done;
  buf_add b "\nextern void sendControl(double v);\n\n";
  buf_add b "void initShm()\n/*** SafeFlow Annotation shminit ***/\n{\n";
  buf_add b "  int id;\n  void *base;\n  char *cursor;\n";
  buf_add b (Fmt.str "  id = shmget(6500, %d * sizeof(Block), 438);\n" nregions);
  buf_add b "  base = shmat(id, (void *) 0, 0);\n  cursor = (char *) base;\n";
  for r = 0 to nregions - 1 do
    buf_add b (Fmt.str "  region%d = (Block *) cursor;\n" r);
    if r < nregions - 1 then buf_add b "  cursor = cursor + sizeof(Block);\n"
  done;
  buf_add b "  /*** SafeFlow Annotation\n";
  for r = 0 to nregions - 1 do
    buf_add b (Fmt.str "       assume(shmvar(region%d, sizeof(Block)))\n" r)
  done;
  for r = 0 to nregions - 1 do
    buf_add b (Fmt.str "       assume(noncore(region%d))\n" r)
  done;
  buf_add b "  ***/\n}\n\n";
  (* the leaf does some arithmetic on a monitored read of region 0 *)
  buf_add b
    "double leaf()\n{\n  double v = region0->a;\n  if (v > 5.0 || v < -5.0) {\n    return 0.0;\n  }\n  return v * 0.5;\n}\n\n";
  (* levels from the bottom up: level d has two monitors calling level d+1 *)
  for level = depth - 1 downto 0 do
    let callee side =
      if level = depth - 1 then "leaf()"
      else Fmt.str "m%c%d()" side (level + 1)
    in
    List.iteri
      (fun k side ->
        let region = (2 * level) + k in
        buf_add b
          (Fmt.str
             "double m%c%d()\n/*** SafeFlow Annotation assume(core(region%d, 0, sizeof(Block))) ***/\n{\n  double v = %s + %s;\n  if (v > 10.0) {\n    v = 10.0;\n  }\n  return v;\n}\n\n"
             side level region (callee 'A') (callee 'B')))
      [ 'A'; 'B' ]
  done;
  buf_add b
    "int main()\n{\n  double total;\n  initShm();\n  total = mA0() + mB0();\n\
     \  /*** SafeFlow Annotation assert(safe(total)) ***/\n  sendControl(total);\n\
     \  return 0;\n}\n";
  Buffer.contents b
