(* End-to-end benchmark of the safeflow CLI, with per-layer timing
   through the Driver stage API.  README.md gives the workloads, the
   metrics and the layer -> end-to-end mapping.

   Two phases per workload, both closed loops with one client:
   - e2e: spawn the built CLI one op at a time and time each op from
     spawn to reap, with telemetry off;
   - traced: per op, one CLI op (for the process share and the cache
     files it writes), then the Driver stages called in-process and
     timed from outside, then Driver.analyze (and Fleet.run on the fleet
     workload) on the same restored input and cache state.
   Every op's output is checked against a reference; any failure makes
   the exit code nonzero. *)

open Safeflow

let op_timeout_ms = 10_000

(* runs each CLI op and reports its rusage (spawn.c explains why the
   benchmark process cannot be the CLI's parent) *)
let spawner = Filename.concat (Filename.dirname Sys.executable_name) "spawn.exe"

let namespaces =
  [ "prepared"; "phase1"; "absint"; "phase2"; "phase2fn"; "pointsto"; "pair"; "phase3" ]

(* -- files -------------------------------------------------------------------- *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s = Out_channel.with_open_bin path (fun oc -> output_string oc s)

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let mkdir_p path =
  let rec go p =
    if not (Sys.file_exists p) then begin
      go (Filename.dirname p);
      Unix.mkdir p 0o755
    end
  in
  go path

(* a cache directory restored from a primed copy: the CLI publishes
   entries by rename and never rewrites an existing one, so hard links
   are as good as a copy *)
let rec link_tree src dst =
  Unix.mkdir dst 0o755;
  Array.iter
    (fun f ->
      let s = Filename.concat src f and d = Filename.concat dst f in
      if Sys.is_directory s then link_tree s d else Unix.link s d)
    (Sys.readdir src)

(* cache entry files "<ns>-<key>.bin" under [dir] with their sizes; the
   generation stamp and in-flight temp files are not entries *)
let entries dir =
  let rec go dir acc =
    Array.fold_left
      (fun acc f ->
        let p = Filename.concat dir f in
        if Sys.is_directory p then go p acc
        else if Filename.check_suffix f ".bin" then (f, (Unix.stat p).Unix.st_size) :: acc
        else acc)
      acc (Sys.readdir dir)
  in
  if Sys.file_exists dir then go dir [] else []

let ns_of_entry f = String.sub f 0 (String.index f '-')

(* -- statistics --------------------------------------------------------------- *)

(* linear interpolation between closest ranks *)
let quantile q xs =
  match List.sort compare xs with
  | [] -> 0.0
  | sorted ->
    let a = Array.of_list sorted in
    let pos = q *. float_of_int (Array.length a - 1) in
    let i = int_of_float pos in
    if i + 1 >= Array.length a then a.(i)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median = quantile 0.5

let ms_since t0 = Int64.to_float (Int64.sub (Telemetry.now_ns ()) t0) /. 1e6

let mib bytes = float_of_int bytes /. 1048576.0

(* -- settings ----------------------------------------------------------------- *)

type cache_state = No_cache | Edit

type kind = Paper5 | Synth of cache_state | Fleet

type workload = { name : string; kind : kind; ops : int }

let workloads =
  [ { name = "paper5"; kind = Paper5; ops = 1000 };
    { name = "synth384"; kind = Synth No_cache; ops = 120 };
    { name = "synth384-edit"; kind = Synth Edit; ops = 100 };
    { name = "fleet256-cold"; kind = Fleet; ops = 100 } ]

let paper5 = [ "figure2"; "ip_controller"; "double_ip"; "car_follow"; "generic_simplex" ]

let edit_variants = 8

type settings = {
  seed : int;
  smoke : bool;
  synth_n : int;
  fleet_n : int;
  jobs : int;
  seconds : float option;  (** time-box each phase instead of fixed op counts *)
  trace : int option;  (** [Some 0]: e2e phase only, [Some 1]: traced only *)
  tmp : string;  (** private scratch directory, removed at exit *)
  cli : string;
  repo : string;
  frozen : bool;  (** seed-1 references from bench/e2e/expected instead of setup *)
}

let e2e_ops s w = if s.smoke then 2 else w.ops

let traced_ops s = if s.smoke then 2 else 20

(* -- spawning the CLI ------------------------------------------------------------ *)

type run = { code : int; wall_ms : float; cpu_ms : float; rss_kb : int; stdout : string }

let spawn s ~cwd argv =
  Sys.chdir cwd;
  let file name = Filename.concat s.tmp name in
  let open_w p = Unix.openfile p [ Unix.O_WRONLY; O_CREAT; O_TRUNC; O_CLOEXEC ] 0o644 in
  let fd_in = Unix.openfile "/dev/null" [ Unix.O_RDONLY; O_CLOEXEC ] 0 in
  let fd_out = open_w (file "stdout") and fd_err = open_w (file "stderr") in
  let args = spawner :: file "rusage" :: string_of_int op_timeout_ms :: s.cli :: argv in
  let pid = Unix.create_process spawner (Array.of_list args) fd_in fd_out fd_err in
  let _, status = Unix.waitpid [] pid in
  List.iter Unix.close [ fd_in; fd_out; fd_err ];
  if status <> Unix.WEXITED 0 then failwith (spawner ^ " failed: " ^ read_file (file "stderr"));
  Scanf.sscanf (read_file (file "rusage")) "%d %d %f %d" (fun code wall_ns cpu_ms rss_kb ->
      { code; wall_ms = float_of_int wall_ns /. 1e6; cpu_ms; rss_kb; stdout = read_file (file "stdout") })

(* the fleet summary prints its own timing, and only a cached run has a
   cache line; everything else must match the no-cache reference *)
let comparable stdout =
  String.split_on_char '\n' stdout
  |> List.filter (fun l ->
         not (String.starts_with ~prefix:"fleet: " l || String.starts_with ~prefix:"cache: " l))
  |> String.concat "\n"

(* -- inputs ------------------------------------------------------------------- *)

type input = {
  cwd : string;  (** the child runs here; every path it sees is relative *)
  arg : string;  (** the analyzed file, or the fleet's member directory *)
  members : (string * string) list;  (** (path relative to [cwd], source) *)
  baseline : string;
  reference : string;  (** comparable stdout of the no-cache run *)
}

type env = {
  inputs : input array;  (** the op rotation *)
  pristine : (string * (string, unit) Hashtbl.t) option;
      (** synth384-edit: cache primed with the unedited program, and its entries *)
  reference_kind : string;
}

let argv s w ~arg ?cache ?save ?baseline () =
  let opt flag = Option.fold ~none:[] ~some:(fun v -> [ flag; v ]) in
  (match w.kind with
  | Fleet -> [ "fleet"; arg; "--jobs"; string_of_int s.jobs ]
  | Paper5 | Synth _ -> [ "analyze"; arg ])
  @ opt "--cache" cache @ opt "--save-findings" save @ opt "--baseline" baseline

let setup_fail w fmt = Printf.ksprintf (fun m -> failwith (w.name ^ " setup: " ^ m)) fmt

(* the frozen-baseline run: exit 0, nothing new, nothing fixed *)
let reference s w ~cwd ~arg ~baseline =
  let r = spawn s ~cwd (argv s w ~arg ~baseline ()) in
  let lines = String.split_on_char '\n' r.stdout in
  if r.code <> 0 || not (List.mem "new (0):" lines && List.mem "fixed (0):" lines) then
    setup_fail w "%s: exit %d, or findings differ from %s" arg r.code baseline;
  comparable r.stdout

(* baseline for a generated input: frozen for seed 1, else made here *)
let findings s w ~cwd ~arg ~frozen_name =
  if s.frozen then Filename.concat s.repo ("bench/e2e/expected/" ^ frozen_name)
  else begin
    let save = Filename.concat cwd "reference.findings" in
    let r = spawn s ~cwd (argv s w ~arg ~save ()) in
    if r.code < 0 || r.code > 2 then setup_fail w "--save-findings run: exit %d" r.code;
    save
  end

(* one seeded one-function edit: the multiplier on the first line of one
   worker's deepest helper changes in place, so no other function moves *)
let edit_source s src k =
  let rng = Random.State.make [| s.seed; k |] in
  let marker =
    Printf.sprintf "double helper_%d_2(double x)\n{\n  double y = x * "
      (Random.State.int rng s.synth_n)
  in
  let rec find i =
    if String.sub src i (String.length marker) = marker then i + String.length marker
    else find (i + 1)
  in
  let start = find 0 in
  let stop = String.index_from src start ' ' in
  (* seeded multipliers lie in [1.00, 1.02) *)
  String.sub src 0 start
  ^ Printf.sprintf "%.4f" (1.03 +. (0.01 *. float_of_int k))
  ^ String.sub src stop (String.length src - stop)

let make_input s w ~dir ~arg ~members ~frozen_name ~baseline =
  mkdir_p dir;
  List.iter
    (fun (p, src) ->
      mkdir_p (Filename.dirname (Filename.concat dir p));
      write_file (Filename.concat dir p) src)
    members;
  let baseline =
    match baseline with
    | Some b -> b
    | None -> findings s w ~cwd:dir ~arg ~frozen_name
  in
  { cwd = dir; arg; members; baseline; reference = reference s w ~cwd:dir ~arg ~baseline }

let setup s w dir : env =
  let frozen_kind = if s.frozen then "frozen" else "self" in
  match w.kind with
  | Paper5 ->
    let shift = ((s.seed mod 5) + 5) mod 5 in
    let names = List.filteri (fun i _ -> i >= shift) paper5 @ List.filteri (fun i _ -> i < shift) paper5 in
    let inputs =
      List.map
        (fun n ->
          let arg = n ^ ".c" in
          make_input s w ~dir ~arg
            ~members:[ (arg, read_file (Filename.concat s.repo ("systems/" ^ arg))) ]
            ~frozen_name:""
            ~baseline:(Some (Filename.concat s.repo ("baselines/" ^ n ^ ".findings"))))
        names
    in
    { inputs = Array.of_list inputs; pristine = None; reference_kind = "frozen" }
  | Synth state ->
    let arg = Printf.sprintf "synth%d.c" s.synth_n in
    let src = Synth.of_size ~seed:s.seed s.synth_n in
    let base =
      make_input s w ~dir:(Filename.concat dir "base") ~arg ~members:[ (arg, src) ]
        ~frozen_name:"synth384.findings" ~baseline:None
    in
    if state <> Edit then { inputs = [| base |]; pristine = None; reference_kind = frozen_kind }
    else begin
      let variants =
        Array.init edit_variants (fun k ->
            make_input s w
              ~dir:(Filename.concat dir (Printf.sprintf "edit%d" k))
              ~arg ~members:[ (arg, edit_source s src k) ] ~frozen_name:""
              ~baseline:(Some base.baseline))
      in
      let pristine = Filename.concat dir "pristine" in
      let r = spawn s ~cwd:base.cwd (argv s w ~arg ~cache:pristine ~baseline:base.baseline ()) in
      if r.code <> 0 || comparable r.stdout <> base.reference then
        setup_fail w "priming the cache: exit %d or output differs" r.code;
      let known = Hashtbl.create 8192 in
      List.iter (fun (f, _) -> Hashtbl.replace known f ()) (entries pristine);
      { inputs = variants; pristine = Some (pristine, known); reference_kind = frozen_kind }
    end
  | Fleet ->
    let fp =
      { Synth.fleet_n = s.fleet_n; fleet_workers = 4; fleet_overlap = 0.5; fleet_dup = 0.25 }
    in
    let members =
      List.map (fun (n, src) -> (Filename.concat "members" n, src)) (Synth.fleet ~seed:s.seed fp)
    in
    let input =
      make_input s w ~dir ~arg:"members" ~members ~frozen_name:"fleet256.findings" ~baseline:None
    in
    { inputs = [| input |]; pristine = None; reference_kind = frozen_kind }

(* Set-up is repeated in fresh directories and its median reported, so
   that work moved into set-up shows; every repetition must produce the
   same references.  At least 3 repetitions, then more until 2 s have
   passed (up to 25), so that paper5's 30 ms set-up gets its median from
   25 samples. *)
let setup_timed s w : env * float =
  let root = Filename.concat s.tmp w.name in
  let t_start = Telemetry.now_ns () in
  let rec go k times prev =
    let dir = Filename.concat root (Printf.sprintf "setup%d" k) in
    let t0 = Telemetry.now_ns () in
    let env = setup s w dir in
    let times = ms_since t0 /. 1e3 :: times in
    let refs e = Array.map (fun i -> i.reference) e.inputs in
    (match prev with
    | Some (p : env) ->
      if refs p <> refs env then setup_fail w "references differ between repetitions";
      rm_rf (Filename.concat root (Printf.sprintf "setup%d" (k - 1)))
    | None -> ());
    if k + 1 < 3 || (k + 1 < 25 && ms_since t_start < 2000.0) then go (k + 1) times (Some env)
    else (env, median times)
  in
  go 0 [] None

(* -- one CLI op ---------------------------------------------------------------- *)

type op = {
  ok : bool;
  r : run;
  analyses : int;
  written_files : int;
  written_bytes : int;
}

(* A cold op starts from an opened, empty cache rather than a missing
   directory: concurrent fleet workers both try to create a missing one,
   and Cache.create turns the loser of that mkdir race memory-only, so
   the files a cold fleet writes would vary from op to op. *)
let restore env dir =
  rm_rf dir;
  match env.pristine with
  | Some (p, _) -> link_tree p dir
  | None -> ignore (Cache.create ~dir ())

let added env dir =
  let known = Option.fold ~none:(Hashtbl.create 1) ~some:snd env.pristine in
  List.filter (fun (f, _) -> not (Hashtbl.mem known f)) (entries dir)

let cache_dir s w = Filename.concat (Filename.concat s.tmp w.name) "cache"

let uses_cache w = match w.kind with Synth Edit | Fleet -> true | Paper5 | Synth No_cache -> false

let failures = ref []

let note_failure w fmt =
  Printf.ksprintf (fun m -> failures := Printf.sprintf "%s: %s" w.name m :: !failures) fmt

let cli_op s w env (input : input) =
  let cache = if uses_cache w then Some (cache_dir s w) else None in
  Option.iter (restore env) cache;
  let r = spawn s ~cwd:input.cwd (argv s w ~arg:input.arg ?cache ~baseline:input.baseline ()) in
  let written = Option.fold ~none:[] ~some:(added env) cache in
  Option.iter rm_rf cache;
  let ok =
    if r.code <> 0 then (note_failure w "%s: exit %d" input.arg r.code; false)
    else if r.wall_ms > float_of_int op_timeout_ms then (note_failure w "%s: %.0f ms" input.arg r.wall_ms; false)
    else if comparable r.stdout <> input.reference then
      (note_failure w "%s: output differs from the no-cache reference" input.arg; false)
    else true
  in
  { ok; r; analyses = List.length input.members; written_files = List.length written;
    written_bytes = List.fold_left (fun a (_, b) -> a + b) 0 written }

(* closed loop: a fixed op count, or as many ops as fit in the time box *)
let loop s ~ops f =
  let t0 = Telemetry.now_ns () in
  let rec go k acc =
    let more =
      match s.seconds with
      | Some sec -> k < 2 || ms_since t0 < sec *. 1e3
      | None -> k < ops
    in
    if more then go (k + 1) (f k :: acc) else List.rev acc
  in
  go 0 []

(* -- e2e phase ---------------------------------------------------------------- *)

type metric = string * string * float  (* name, unit, value *)

let e2e_phase s w env : metric list * int * int =
  let n = Array.length env.inputs in
  let results = loop s ~ops:(e2e_ops s w) (fun k -> cli_op s w env env.inputs.(k mod n)) in
  let f sel = List.map sel results in
  let lat = f (fun o -> o.r.wall_ms) in
  let attempted = List.length results in
  let failed = List.length (List.filter (fun o -> not o.ok) results) in
  (* The host's other tenants slow every op for tens of seconds at a time,
     so a run's median measures them as much as the program.  The fastest
     op of each input of the rotation moves only when a slowdown covers the
     whole run; it is averaged over the inputs so that every input counts
     (README.md, "Which statistics are gated"). *)
  let fastest sel =
    let best = Hashtbl.create n in
    List.iteri
      (fun k o ->
        let prev = Option.value ~default:infinity (Hashtbl.find_opt best (k mod n)) in
        Hashtbl.replace best (k mod n) (Float.min prev (sel o)))
      results;
    Hashtbl.fold (fun _ v a -> a +. v) best 0.0 /. float_of_int (Hashtbl.length best)
  in
  ( [ ("latency_ms.min", "ms", fastest (fun o -> o.r.wall_ms));
      ("cpu_ms.min", "ms", fastest (fun o -> o.r.cpu_ms));
      ("latency_ms.p50", "ms", median lat);
      ("latency_ms.p90", "ms", quantile 0.9 lat);
      ( "analyses_per_s", "1/s",
        float_of_int (List.fold_left (fun a o -> a + o.analyses) 0 results)
        /. (List.fold_left ( +. ) 0.0 lat /. 1e3) );
      ("cpu_ms.p50", "ms", median (f (fun o -> o.r.cpu_ms)));
      ("peak_rss_mb.p50", "MB", median (f (fun o -> float_of_int o.r.rss_kb /. 1024.0))) ],
    attempted,
    failed )

(* -- traced phase ------------------------------------------------------------- *)

(* per-op values, summed over the members of a fleet op *)
type acc = (string, float) Hashtbl.t

let add (acc : acc) name v =
  Hashtbl.replace acc name (v +. Option.value ~default:0.0 (Hashtbl.find_opt acc name))

let timed acc name f =
  let t0 = Telemetry.now_ns () in
  let v = f () in
  add acc (name ^ ".ms") (ms_since t0);
  v

let allocated () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let timed_alloc acc name f =
  let a0 = allocated () in
  let v = timed acc name f in
  add acc (name ^ ".alloc_mw") ((allocated () -. a0) /. 1e6);
  v

let stage_names = [ "prepare"; "phase1"; "absint"; "phase2"; "pointsto"; "phase3"; "coverage" ]

type findings = Report.violation list * Report.warning list * Report.dependency list

let sorted_findings v w d : findings = (List.sort compare v, List.sort compare w, List.sort compare d)

(* Driver.analyze's stage order, each public call timed by itself *)
let staged acc ?cache ~file src : findings =
  let p = timed_alloc acc "prepare" (fun () -> Driver.prepare_source ~file src) in
  (* timed on every workload; part of the pipeline only with a cache *)
  let digests = timed acc "digest" (fun () -> Digest_ir.of_program p.Driver.ir) in
  let digests = Option.map (fun _ -> digests) cache in
  let shm, p1 =
    timed acc "phase1" (fun () ->
        let shm = Driver.stage_shm p in
        (shm, Driver.stage_phase1 p shm))
  in
  let absint = timed_alloc acc "absint" (fun () -> Driver.stage_absint ?cache p) in
  add acc "absint.iterations" (float_of_int (Option.fold ~none:0 ~some:Absint.iterations absint));
  let ph2 = timed acc "phase2" (fun () -> Driver.stage_phase2 ?cache ?digests ?absint p p1) in
  add acc "phase2.obligations" (float_of_int (List.length ph2.Phase2.ledger));
  let pts = timed acc "pointsto" (fun () -> Driver.stage_pointsto p) in
  let ph3 =
    timed_alloc acc "phase3" (fun () -> Driver.stage_phase3 ?cache ?digests ?absint p shm p1 pts)
  in
  add acc "phase3.pairs" (float_of_int ph3.Phase3.pair_count);
  let report =
    { Report.violations = ph2.Phase2.violations; warnings = ph3.Phase3.warnings;
      dependencies = ph3.Phase3.dependencies; infos = []; regions = [];
      annotation_lines = p.Driver.annotation_lines; stats = [] }
  in
  ignore
    (timed acc "coverage" (fun () ->
         Coverage.compute ~bounds:ph2.Phase2.bounds ~prog:p.Driver.ir ~shm ~p1 ~pts
           ~analyzed:(Driver.analyzed_functions ph3 p1) report));
  sorted_findings ph2.Phase2.violations ph3.Phase3.warnings ph3.Phase3.dependencies

(* fleet members are analyzed under one normalized label, as Fleet.run does *)
let label w (input : input) = match w.kind with Fleet -> "<system>" | _ -> input.arg

let with_state env dir cached f =
  Gc.compact ();
  if cached then restore env dir;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f (if cached then Some dir else None))

let traced_op s w env (input : input) : metric list * bool =
  let acc : acc = Hashtbl.create 64 in
  let fail fmt = Printf.ksprintf (fun m -> note_failure w "%s: %s" input.arg m; false) fmt in
  let cli = cli_op s w env input in
  let dir = cache_dir s w and cached = uses_cache w in
  let file = label w input in
  let each_member f =
    List.map (fun (path, src) -> Cache.with_origin path (fun () -> f path src)) input.members
  in
  let staged_findings =
    with_state env dir cached (fun dir ->
        let cache = Option.map (fun dir -> Cache.create ~dir ()) dir in
        each_member (fun _ src -> staged acc ?cache ~file src))
  in
  let analyses, cache_stats, written =
    with_state env dir cached (fun dir ->
        let cache = Option.map (fun dir -> Cache.create ~dir ()) dir in
        let majors0 = (Gc.quick_stat ()).Gc.major_collections in
        let a =
          each_member (fun _ src ->
              timed acc "analyze" (fun () -> Driver.analyze ?cache ~file src))
        in
        add acc "gc.major" (float_of_int ((Gc.quick_stat ()).Gc.major_collections - majors0));
        (a, Option.fold ~none:[] ~some:Cache.detailed_stats cache,
         Option.fold ~none:[] ~some:(added env) dir))
  in
  (* the fleet metrics belong to the fleet workload alone; elsewhere they
     are 0 *)
  let fleet =
    match w.kind with
    | Fleet ->
      Some
        (with_state env dir cached (fun cache_dir ->
             timed acc "fleet" (fun () ->
                 Fleet.run ?cache_dir ~jobs:s.jobs ~source_label:file (List.map fst input.members))))
    | Paper5 | Synth _ -> add acc "fleet.ms" 0.0; None
  in
  let stage_sum =
    List.fold_left (fun a n -> a +. Hashtbl.find acc (n ^ ".ms")) 0.0 stage_names
    +. if cached then Hashtbl.find acc "digest.ms" else 0.0
  in
  let analyze_ms = Hashtbl.find acc "analyze.ms" in
  let sum l = List.fold_left ( + ) 0 l in
  let hits = sum (List.map (fun (_, st) -> st.Cache.hits) cache_stats)
  and misses = sum (List.map (fun (_, st) -> st.Cache.misses) cache_stats) in
  let ratio a b = if a + b = 0 then 0.0 else float_of_int a /. float_of_int (a + b) in
  (* the CLI's share outside the analysis: on the fleet, the CLI's own
     Fleet.run time, which its summary line gives as members / (members/s) *)
  let inner_ms =
    match w.kind with
    | Fleet ->
      String.split_on_char '\n' cli.r.stdout
      |> List.find_map (fun l ->
             try
               Some
                 (Scanf.sscanf l "fleet: %d systems on %_d process(es) x %_d domain(s) in %_fs %_s %f"
                    (fun n aps -> float_of_int n /. aps *. 1e3))
             with Scanf.Scan_failure _ | Failure _ | End_of_file -> None)
      |> Option.value ~default:Float.nan
    | Paper5 | Synth _ -> analyze_ms
  in
  let per_ns =
    List.concat_map
      (fun ns ->
        let st = List.assoc_opt ns cache_stats in
        let mine = List.filter (fun (f, _) -> ns_of_entry f = ns) written in
        let count f = float_of_int (Option.fold ~none:0 ~some:f st) in
        [ ("cache." ^ ns ^ ".hits", "count", count (fun st -> st.Cache.hits));
          ("cache." ^ ns ^ ".misses", "count", count (fun st -> st.Cache.misses));
          ("cache." ^ ns ^ ".files", "count", float_of_int (List.length mine));
          ("cache." ^ ns ^ ".kb", "kB", float_of_int (sum (List.map snd mine)) /. 1024.0) ])
      namespaces
  in
  let metrics =
    List.map
      (fun (k, unit) -> (k, unit, Hashtbl.find acc k))
      [ ("prepare.ms", "ms"); ("prepare.alloc_mw", "Mwords"); ("digest.ms", "ms");
        ("phase1.ms", "ms"); ("absint.ms", "ms"); ("absint.alloc_mw", "Mwords");
        ("absint.iterations", "count"); ("phase2.ms", "ms"); ("phase2.obligations", "count");
        ("pointsto.ms", "ms"); ("phase3.ms", "ms"); ("phase3.alloc_mw", "Mwords");
        ("phase3.pairs", "count"); ("coverage.ms", "ms"); ("analyze.ms", "ms");
        ("gc.major", "count"); ("fleet.ms", "ms") ]
    @ [ ("glue.ms", "ms", analyze_ms -. stage_sum);
        ("process.ms", "ms", cli.r.wall_ms -. inner_ms);
        ("cache.hit_ratio", "ratio", ratio hits misses);
        ( "fleet.cross_hits", "count",
          Option.fold ~none:0.0 ~some:(fun f -> float_of_int f.Fleet.f_cache.Fleet.ct_cross) fleet );
        ("cache_written_mb", "MB", mib cli.written_bytes);
        ("cache_written_files", "count", float_of_int cli.written_files) ]
    @ per_ns
  in
  let reports = List.map (fun (a : Driver.analysis) -> Fmt.str "%a" Report.pp a.Driver.report) analyses in
  let analyzed_findings =
    List.map
      (fun (a : Driver.analysis) ->
        let r = a.Driver.report in
        sorted_findings r.Report.violations r.Report.warnings r.Report.dependencies)
      analyses
  in
  let ok =
    if not cli.ok then false
    else if staged_findings <> analyzed_findings then fail "staged findings differ from Driver.analyze"
    else if Float.is_nan inner_ms then fail "no fleet summary line in the CLI's output"
    else if
      Option.fold ~none:false
        ~some:(fun f -> List.map (fun m -> m.Fleet.mr_report) f.Fleet.f_results <> reports)
        fleet
    then fail "Fleet.run reports differ from Driver.analyze"
    else if List.length written <> cli.written_files then
      fail "Driver.analyze wrote %d cache entries, the CLI %d" (List.length written) cli.written_files
    else if env.pristine <> None && not (List.exists (fun (f, _) -> ns_of_entry f = "absint") written)
    then fail "the edit wrote no absint entry, so it was not a real miss"
    else true
  in
  (metrics, ok)

let traced_phase s w env : metric list * int * int =
  let n = Array.length env.inputs in
  let results = loop s ~ops:(traced_ops s) (fun k -> traced_op s w env env.inputs.(k mod n)) in
  let metrics =
    List.mapi
      (fun i (name, unit, _) ->
        (name, unit, median (List.map (fun (m, _) -> let _, _, v = List.nth m i in v) results)))
      (fst (List.hd results))
  in
  let failed = List.length (List.filter (fun (_, ok) -> not ok) results) in
  (metrics, List.length results, failed)

(* -- meta and output ----------------------------------------------------------- *)

let fstype dir =
  let dir = Unix.realpath dir in
  let under m = m = "/" || dir = m || String.starts_with ~prefix:(m ^ "/") dir in
  In_channel.with_open_text "/proc/mounts" In_channel.input_all
  |> String.split_on_char '\n'
  |> List.fold_left
       (fun (best, ty) line ->
         match String.split_on_char ' ' line with
         | _ :: m :: t :: _ when under m && String.length m >= String.length best -> (m, t)
         | _ -> (best, ty))
       ("", "unknown")
  |> snd

let jnum f = Jsonlite.Num f
let jstr s = Jsonlite.Str s

type result = {
  w : workload;
  metrics : metric list;
  ops : int;  (** e2e ops run *)
  traced : int;  (** traced ops run *)
  failed : int;
  reference_kind : string;
}

let metrics_json ms =
  Jsonlite.Obj
    (List.map (fun (n, u, v) -> (n, Jsonlite.Obj [ ("value", jnum v); ("unit", jstr u) ])) ms)

(* The metric names and units BENCHMARK.json declares, in its order; the
   result line carries exactly these. *)
let declared benchmark =
  let j = Jsonlite.parse_exn (read_file benchmark) in
  let group key =
    match Option.bind (Jsonlite.member key j) Jsonlite.to_list with
    | None -> failwith (benchmark ^ ": no " ^ key)
    | Some l ->
      List.map
        (fun m ->
          let field k = Option.bind (Jsonlite.member k m) Jsonlite.to_string in
          match (field "name", field "unit") with
          | Some n, Some u -> (n, u)
          | _ -> failwith (benchmark ^ ": metric without name or unit"))
        l
  in
  (group "end_to_end", group "per_layer")

(* -- main --------------------------------------------------------------------- *)

let () =
  let seed = ref 1 and smoke = ref false and jobs = ref None and seconds = ref None in
  let trace = ref None and json = ref None in
  let tmp = ref "/dev/shm" and cli = ref "_build/default/bin/safeflow_cli.exe" in
  let repo = ref "." and benchmark = ref None and selected = ref [] in
  let spec =
    [ ("--workload", Arg.String (fun w -> selected := w :: !selected), "NAME run this workload (repeatable; default all)");
      ("--seed", Arg.Set_int seed, "S input generation seed (default 1)");
      ("--seconds", Arg.Float (fun f -> seconds := Some f), "N time-box each phase of each workload to N seconds");
      ("--trace", Arg.Int (fun t -> trace := Some t), "0|1 run only the e2e (0) or only the traced (1) phase");
      ("--jobs", Arg.Int (fun n -> jobs := Some n), "N fleet worker processes (default min(2, nproc))");
      ("--json", Arg.String (fun f -> json := Some f), "FILE write every metric and the meta block as JSON");
      ("--tmp", Arg.Set_string tmp, "DIR scratch directory for inputs and caches, on tmpfs (default /dev/shm)");
      ("--cli", Arg.Set_string cli, "PATH the safeflow binary (default _build/default/bin/safeflow_cli.exe)");
      ("--repo", Arg.Set_string repo, "DIR checkout holding systems/, baselines/ and bench/e2e/expected/ (default .)");
      ("--benchmark", Arg.String (fun f -> benchmark := Some f), "FILE metric declarations (default REPO/BENCHMARK.json)");
      ("--smoke", Arg.Set smoke, " synth-32, fleet-8, 2 ops and 2 traced ops per workload") ]
  in
  let usage = "e2e.exe [OPTIONS]: end-to-end and per-layer benchmark of the safeflow CLI" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let die fmt = Printf.ksprintf (fun m -> prerr_endline ("e2e: " ^ m); exit 2) fmt in
  let nproc = Domain.recommended_domain_count () in
  let jobs = Option.value !jobs ~default:(min 2 nproc) in
  if jobs < 1 || jobs > nproc then die "--jobs %d: this host has %d cores" jobs nproc;
  (match !trace with None | Some (0 | 1) -> () | Some t -> die "--trace %d: expected 0 or 1" t);
  let chosen =
    match List.rev !selected with
    | [] -> workloads
    | names ->
      List.map
        (fun n ->
          match List.find_opt (fun w -> w.name = n) workloads with
          | Some w -> w
          | None -> die "unknown workload %s" n)
        names
  in
  let abs p = if Filename.is_relative p then Filename.concat (Sys.getcwd ()) p else p in
  let repo = abs !repo in
  let benchmark = abs (Option.value !benchmark ~default:(Filename.concat repo "BENCHMARK.json")) in
  let decl_e2e, decl_layer = try declared benchmark with Failure m | Sys_error m -> die "%s" m in
  if not (Sys.file_exists !cli) then die "%s: no such CLI binary" !cli;
  if not (Sys.file_exists (Filename.concat repo "systems")) then die "%s: no systems/ directory" repo;
  let json = Option.map abs !json in
  let tmp_arg = !tmp in
  let tmp_root = abs tmp_arg in
  (* a cold op writes thousands of small files: on a disk that measures
     the disk (README.md, "Scratch directory") *)
  let tmp_fstype = try fstype tmp_root with Unix.Unix_error (e, _, _) -> die "%s: %s" tmp_arg (Unix.error_message e) in
  if tmp_fstype <> "tmpfs" then die "%s is on %s, not tmpfs: pass --tmp DIR on a tmpfs" tmp_arg tmp_fstype;
  let tmp = Filename.concat tmp_root (Printf.sprintf "safeflow-e2e-%d" (Unix.getpid ())) in
  (try mkdir_p tmp with Unix.Unix_error (e, _, _) -> die "%s: %s" tmp (Unix.error_message e));
  let home = Sys.getcwd () in
  at_exit (fun () -> Sys.chdir home; rm_rf tmp);
  let s =
    { seed = !seed; smoke = !smoke;
      synth_n = (if !smoke then 32 else 384);
      fleet_n = (if !smoke then 8 else 256);
      jobs; seconds = !seconds; trace = !trace; tmp; cli = abs !cli; repo;
      frozen = !seed = 1 && not !smoke }
  in
  let results =
    List.map
      (fun w ->
        let env, setup_s = try setup_timed s w with Failure m -> die "%s" m in
        let e2e = if s.trace <> Some 1 then Some (e2e_phase s w env) else None in
        let traced = if s.trace <> Some 0 then Some (traced_phase s w env) else None in
        let part f = Option.fold ~none:0 ~some:f in
        let ops = part (fun (_, a, _) -> a) e2e and traced_ops = part (fun (_, a, _) -> a) traced in
        let failed = part (fun (_, _, f) -> f) e2e + part (fun (_, _, f) -> f) traced in
        let metrics =
          (("setup_s", "s", setup_s) :: Option.fold ~none:[] ~some:(fun (m, _, _) -> m) e2e)
          @ [ ("failed_frac", "ratio", float_of_int failed /. float_of_int (ops + traced_ops)) ]
          @ Option.fold ~none:[] ~some:(fun (m, _, _) -> m) traced
        in
        rm_rf (Filename.concat s.tmp w.name);
        let r =
          { w; metrics; ops; traced = traced_ops; failed; reference_kind = env.reference_kind }
        in
        Printf.printf "== %s: %d ops, %d traced ops, %d failed, %s reference\n" w.name ops
          traced_ops failed r.reference_kind;
        List.iter (fun (n, u, v) -> Printf.printf "  %-24s %14.4f %s\n" n v u) metrics;
        flush stdout;
        r)
      chosen
  in
  List.iter prerr_endline (List.rev !failures);
  let meta =
    Jsonlite.Obj
      [ ("hostname", jstr (Unix.gethostname ()));
        ("nproc", jnum (float_of_int nproc));
        ("ocaml", jstr Sys.ocaml_version);
        ("tool", jstr Version.tool);
        ("cli_md5", jstr (Digest.to_hex (Digest.file s.cli)));
        ("seed", jnum (float_of_int s.seed));
        ("smoke", Jsonlite.Bool s.smoke);
        ("seconds", Option.fold ~none:Jsonlite.Null ~some:jnum s.seconds);
        ("jobs", jnum (float_of_int s.jobs));
        ("tmp", jstr tmp_arg);
        ("tmp_fstype", jstr tmp_fstype) ]
  in
  let workload_json r =
    ( r.w.name,
      Jsonlite.Obj
        [ ("ops", jnum (float_of_int r.ops));
          ("traced_ops", jnum (float_of_int r.traced));
          ("failed", jnum (float_of_int r.failed));
          ("reference", jstr r.reference_kind);
          ("metrics", metrics_json r.metrics) ] )
  in
  Option.iter
    (fun path ->
      write_file path
        (Jsonlite.emit
           (Jsonlite.Obj
              [ ("benchmark", jstr "e2e"); ("meta", meta);
                ("workloads", Jsonlite.Obj (List.map workload_json results)) ])
        ^ "\n"))
    json;
  (* the result line carries exactly the metrics BENCHMARK.json declares
     for the phases that ran, each with the declared unit *)
  let wanted =
    match s.trace with Some 0 -> decl_e2e | Some _ -> decl_layer | None -> decl_e2e @ decl_layer
  in
  let pick r =
    List.map
      (fun (n, u) ->
        match List.find_opt (fun (m, _, _) -> m = n) r.metrics with
        | Some (_, u', v) when u' = u -> (n, u, v)
        | Some (_, u', _) -> die "%s: metric %s measured in %s, declared in %s" r.w.name n u' u
        | None -> die "%s: metric %s is declared but not measured" r.w.name n)
      wanted
  in
  let line_metrics =
    match results with
    | [ r ] -> pick r
    | _ -> List.concat_map (fun r -> List.map (fun (n, u, v) -> (r.w.name ^ "/" ^ n, u, v)) (pick r)) results
  in
  let attempted = List.fold_left (fun a r -> a + r.ops + r.traced) 0 results
  and failed = List.fold_left (fun a r -> a + r.failed) 0 results in
  print_endline
    (Jsonlite.emit
       (Jsonlite.Obj
          [ ("correct", Jsonlite.Bool (failed = 0)); ("attempted", jnum (float_of_int attempted));
            ("failed", jnum (float_of_int failed)); ("metrics", metrics_json line_metrics) ]));
  exit (if failed > 0 then 1 else 0)
