(* SafeFlow benchmark harness.

   Usage: main.exe [SUBCOMMAND] [--json FILE] [--iters N] [--system NAME]

   Subcommands (default: all):
     table1    - regenerate the paper's Table 1 (paper vs measured)
     phases    - per-phase analysis timing on the three systems (B1)
     scale     - analysis time vs synthetic core-component size (B2)
     fleet     - sharded multi-system analysis over a shared cache
                 (analyses/sec cold vs warm, cross-system dedupe)
     ablation  - field/context/control-dependence toggles (B3)
     summary   - exact vs ESP-style summary engine (B4)
     sim       - closed-loop Simplex scenario outcomes (Figure 1 / §4 narrative)
     ranges    - value-range A1/A2 discharge and control-dependence pruning
     micro     - bechamel microbenchmarks of the substrates

   Options:
     --json FILE    also write the subcommand's results as JSON
     --iters N      samples per measurement (median is reported; default 5)
     --system NAME  restrict table rows to the named system (e.g. IP)
     --synth SIZES  fleet: comma-separated member counts of the
                    synthetic fleets
     --seed N       seed for synthetic program generation (fleet); same
                    seed => byte-identical sources on every host
     --jobs N       fleet: worker processes per fleet run (default 2) *)

let find path =
  let candidates = [ path; "../" ^ path; "../../" ^ path; "../../../" ^ path ] in
  match List.find_opt Sys.file_exists candidates with
  | Some p -> p
  | None -> failwith ("cannot find " ^ path)

let read_file p =
  let ic = open_in_bin p in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let time_ms f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, (Unix.gettimeofday () -. t0) *. 1000.0)

let median l = List.nth (List.sort compare l) (List.length l / 2)

(* one timed sample; the heap is compacted first so a major collection
   triggered by the previous sample's garbage does not land inside this
   one (the dominant source of run-to-run variance) *)
let timed f =
  Gc.compact ();
  time_ms f

type stats = { st_median : float; st_min : float; st_mean : float; st_stddev : float }

let stats_of (samples : float list) : stats =
  let n = max 1 (List.length samples) in
  let mean = List.fold_left ( +. ) 0.0 samples /. float_of_int n in
  let var =
    List.fold_left (fun acc x -> acc +. ((x -. mean) *. (x -. mean))) 0.0 samples
    /. float_of_int n
  in
  {
    st_median = median samples;
    st_min = List.fold_left Float.min Float.infinity samples;
    st_mean = mean;
    st_stddev = sqrt var;
  }

(* -- options ---------------------------------------------------------------- *)

type opts = {
  json : string option;
  iters : int;
  system : string option;
  synth : int list option;  (* fleet: member counts *)
  seed : int;  (* synthetic-generation seed (fleet) *)
  jobs : int option;  (* fleet: worker processes *)
  threshold : float option;  (* diff: regression threshold, percent *)
  rest : string list;  (* positionals after the command (diff: OLD NEW) *)
}

let default_opts =
  { json = None; iters = 5; system = None; synth = None; seed = 0; jobs = None;
    threshold = None; rest = [] }

let parse_args () : string * opts =
  let rec go cmd o = function
    | [] -> (Option.value ~default:"all" cmd, { o with rest = List.rev o.rest })
    | "--json" :: v :: rest -> go cmd { o with json = Some v } rest
    | "--iters" :: v :: rest -> go cmd { o with iters = int_of_string v } rest
    | "--system" :: v :: rest -> go cmd { o with system = Some v } rest
    | "--synth" :: v :: rest ->
      let sizes = List.map int_of_string (String.split_on_char ',' v) in
      go cmd { o with synth = Some sizes } rest
    | "--seed" :: v :: rest -> go cmd { o with seed = int_of_string v } rest
    | "--jobs" :: v :: rest -> go cmd { o with jobs = Some (int_of_string v) } rest
    | "--threshold" :: v :: rest ->
      go cmd { o with threshold = Some (float_of_string v) } rest
    | a :: rest when String.length a > 0 && a.[0] <> '-' ->
      if cmd = None then go (Some a) o rest
      else go cmd { o with rest = a :: o.rest } rest
    | a :: _ -> failwith ("unknown argument " ^ a)
  in
  go None default_opts (List.tl (Array.to_list Sys.argv))

(* -- minimal JSON emitter (no external dependency) --------------------------- *)

type json =
  | Jobj of (string * json) list
  | Jarr of json list
  | Jstr of string
  | Jint of int
  | Jfloat of float
  | Jbool of bool

let rec json_to_buf b = function
  | Jobj fields ->
    Buffer.add_char b '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char b ',';
        Buffer.add_string b (Printf.sprintf "%S:" k);
        json_to_buf b v)
      fields;
    Buffer.add_char b '}'
  | Jarr items ->
    Buffer.add_char b '[';
    List.iteri
      (fun i v ->
        if i > 0 then Buffer.add_char b ',';
        json_to_buf b v)
      items;
    Buffer.add_char b ']'
  | Jstr s -> Buffer.add_string b (Printf.sprintf "%S" s)
  | Jint n -> Buffer.add_string b (string_of_int n)
  | Jfloat f -> Buffer.add_string b (Printf.sprintf "%.3f" f)
  | Jbool v -> Buffer.add_string b (string_of_bool v)

let write_json (o : opts) (j : json) : unit =
  match o.json with
  | None -> ()
  | Some path ->
    let b = Buffer.create 4096 in
    json_to_buf b j;
    Buffer.add_char b '\n';
    let oc = open_out path in
    output_string oc (Buffer.contents b);
    close_out oc;
    if path <> "/dev/null" then Fmt.pr "results written to %s@." path

(* JSON fields for one measurement: median under the historical "_ms" name
   plus the min/mean/stddev spread *)
let jstats prefix (st : stats) =
  [ (prefix ^ "_ms", Jfloat st.st_median);
    (prefix ^ "_min_ms", Jfloat st.st_min);
    (prefix ^ "_mean_ms", Jfloat st.st_mean);
    (prefix ^ "_stddev_ms", Jfloat st.st_stddev) ]

(* Self-describing records: the semantic-config fingerprint
   (Digest_ir.semantic_config) ties
   each record to the exact analysis semantics that produced it, so two
   BENCH files can be compared without guessing at flag drift. *)
let config_fingerprint (c : Safeflow.Config.t) = Safeflow.Digest_ir.semantic_config c

let jmeta ~benchmark =
  ( "meta",
    Jobj
      [ ("benchmark", Jstr benchmark);
        ("tool_version", Jstr Safeflow.Version.tool);
        ("ocaml_version", Jstr Sys.ocaml_version);
        ("word_size", Jint Sys.word_size);
        (* bench numbers only transfer between identical hosts; diff
           treats a hostname mismatch as non-blocking *)
        ("hostname", Jstr (try Unix.gethostname () with _ -> "unknown"));
        ("config_fingerprint", Jstr (config_fingerprint Safeflow.Config.default));
        ("cache_format_version", Jint Safeflow.Cache.format_version);
        ("telemetry_schema", Jstr Safeflow.Telemetry.stats_json_schema);
        ("sarif_version", Jstr Safeflow.Sarif.sarif_version);
        ("findings_format", Jstr Safeflow.Diffreport.format_version);
        ("fingerprint_version", Jstr Safeflow.Fingerprint.version) ] )

(* -- parallel map over independent work items (one domain per core) ---------- *)

let par_map (f : 'a -> 'b) (items : 'a list) : 'b list =
  let n = List.length items in
  if n <= 1 then List.map f items
  else begin
    let input = Array.of_list items in
    let results : ('b, exn) result option array = Array.make n None in
    let next = Atomic.make 0 in
    let worker () =
      let rec loop () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          results.(i) <- Some (try Ok (f input.(i)) with e -> Error e);
          loop ()
        end
      in
      loop ()
    in
    let extra = min (Domain.recommended_domain_count () - 1) (n - 1) in
    let domains = List.init (max 0 extra) (fun _ -> Domain.spawn worker) in
    worker ();
    List.iter Domain.join domains;
    Array.to_list results
    |> List.map (function
         | Some (Ok r) -> r
         | Some (Error e) -> raise e
         | None -> assert false)
  end

(* ==================================================== Table 1 ============ *)

type paper_row = {
  p_name : string;
  p_core_file : string;
  p_noncore_files : string list;
  p_orig_file : string option;
  p_loc_total : string;  (* as printed in the paper *)
  p_loc_core : int;
  p_changes : string;
  p_annot : int;
  p_errors : int;
  p_warnings : int;
  p_fps : int;
}

let paper_rows =
  [ { p_name = "IP"; p_core_file = "ip_controller.c";
      p_noncore_files = [ "noncore/ip_complex.c" ];
      p_orig_file = Some "originals/ip_controller_orig.c";
      p_loc_total = "7079"; p_loc_core = 820; p_changes = "diff 86, 1 func";
      p_annot = 11; p_errors = 1; p_warnings = 7; p_fps = 2 };
    { p_name = "Generic Simplex"; p_core_file = "generic_simplex.c";
      p_noncore_files = [ "noncore/generic_complex.c" ];
      p_orig_file = None;
      p_loc_total = "8057"; p_loc_core = 1020; p_changes = "0";
      p_annot = 22; p_errors = 2; p_warnings = 7; p_fps = 6 };
    { p_name = "Double IP"; p_core_file = "double_ip.c";
      p_noncore_files = [ "noncore/dip_complex.c" ];
      p_orig_file = Some "originals/double_ip_orig.c";
      p_loc_total = ">7188"; p_loc_core = 929; p_changes = "diff 88, 1 func";
      p_annot = 23; p_errors = 2; p_warnings = 8; p_fps = 2 } ]

let selected_rows (o : opts) =
  match o.system with
  | None -> paper_rows
  | Some name -> (
    match
      List.filter
        (fun r -> String.lowercase_ascii r.p_name = String.lowercase_ascii name)
        paper_rows
    with
    | [] -> failwith ("unknown system " ^ name)
    | rows -> rows)

(* changed-line count between original and split source via LCS *)
let diff_size a b =
  let la = Array.of_list (String.split_on_char '\n' a) in
  let lb = Array.of_list (String.split_on_char '\n' b) in
  let n = Array.length la and m = Array.length lb in
  let dp = Array.make_matrix (n + 1) (m + 1) 0 in
  for i = n - 1 downto 0 do
    for j = m - 1 downto 0 do
      dp.(i).(j) <-
        (if String.equal la.(i) lb.(j) then 1 + dp.(i + 1).(j + 1)
         else max dp.(i + 1).(j) dp.(i).(j + 1))
    done
  done;
  n + m - (2 * dp.(0).(0))

let table1 (o : opts) =
  Fmt.pr "@.== Table 1: Applying SafeFlow to Control Systems ==@.";
  Fmt.pr "   (paper value / measured value)@.@.";
  Fmt.pr "%-16s %-15s %-13s %-14s %-9s %-8s %-10s %-7s@." "System" "LOC(total)"
    "LOC(core)" "SrcChanges" "Annot" "Errors" "Warnings" "FalseP";
  let rows = selected_rows o in
  let analyses =
    Safeflow.Driver.analyze_files_par
      (List.map (fun row -> find ("systems/" ^ row.p_core_file)) rows)
  in
  let cells =
    List.map2
      (fun row a ->
        let r = a.Safeflow.Driver.report in
        let core_loc = List.assoc "loc" r.Safeflow.Report.stats in
        let total_loc =
          List.fold_left
            (fun acc f -> acc + Safeflow.Driver.count_loc (read_file (find ("systems/" ^ f))))
            core_loc row.p_noncore_files
        in
        let changes =
          match row.p_orig_file with
          | None -> "0"
          | Some orig ->
            let d =
              diff_size
                (read_file (find ("systems/" ^ orig)))
                (read_file (find ("systems/" ^ row.p_core_file)))
            in
            Fmt.str "diff %d, 1 func" d
        in
        Fmt.pr "%-16s %-15s %-13s %-14s %-9s %-8s %-10s %-7s@." row.p_name
          (Fmt.str "%s/%d" row.p_loc_total total_loc)
          (Fmt.str "%d/%d" row.p_loc_core core_loc)
          (Fmt.str "%s/%s" row.p_changes changes)
          (Fmt.str "%d/%d" row.p_annot r.Safeflow.Report.annotation_lines)
          (Fmt.str "%d/%d" row.p_errors (List.length (Safeflow.Report.errors r)))
          (Fmt.str "%d/%d" row.p_warnings (List.length r.Safeflow.Report.warnings))
          (Fmt.str "%d/%d" row.p_fps (List.length (Safeflow.Report.control_deps r)));
        Jobj
          [ ("system", Jstr row.p_name);
            ("config_fingerprint", Jstr (config_fingerprint Safeflow.Config.default));
            ("loc_core", Jint core_loc);
            ("annotations", Jint r.Safeflow.Report.annotation_lines);
            ("errors", Jint (List.length (Safeflow.Report.errors r)));
            ("warnings", Jint (List.length r.Safeflow.Report.warnings));
            ("false_positives", Jint (List.length (Safeflow.Report.control_deps r)));
            ( "noncore_read_sites",
              Jint a.Safeflow.Driver.coverage.Safeflow.Coverage.cov_read_sites );
            ( "monitored_read_sites",
              Jint a.Safeflow.Driver.coverage.Safeflow.Coverage.cov_monitored_sites );
            ( "monitored_fraction",
              Jfloat (Safeflow.Coverage.monitored_fraction a.Safeflow.Driver.coverage) ) ])
      rows analyses
  in
  Fmt.pr "@.Notes: LOC(total) differs because the authors' lab codebases bundle@.";
  Fmt.pr "years of non-core GUI code we do not have; the analyzed core components@.";
  Fmt.pr "are recreated at the paper's scale.  All seven analysis columns match.@.";
  write_json o (Jobj [ ("table1", Jarr cells) ])

(* ==================================================== phases (B1) ======== *)

let phases (o : opts) =
  Fmt.pr "@.== B1: per-phase analysis time (ms, median of %d; total med/min/mean) ==@.@."
    o.iters;
  Fmt.pr "%-18s %9s %9s %9s %9s %9s %9s %9s %9s@." "System" "frontend" "shm+ph1"
    "phase2" "pointsto" "phase3" "tot-med" "tot-min" "tot-mean";
  let measure row =
    let path = find ("systems/" ^ row.p_core_file) in
    let src = read_file path in
    let samples =
      List.init (max 1 o.iters) (fun _ ->
          let p, t_front =
            timed (fun () -> Safeflow.Driver.prepare_source ~file:path src)
          in
          let (shm, p1), t_p1 =
            timed (fun () ->
                let shm = Safeflow.Driver.stage_shm p in
                (shm, Safeflow.Driver.stage_phase1 p shm))
          in
          let _, t_p2 = timed (fun () -> Safeflow.Driver.stage_phase2 p p1) in
          let pts, t_pts = timed (fun () -> Safeflow.Driver.stage_pointsto p) in
          let _, t_p3 =
            timed (fun () -> Safeflow.Driver.stage_phase3 p shm p1 pts)
          in
          (t_front, t_p1, t_p2, t_pts, t_p3))
    in
    let sel f = stats_of (List.map f samples) in
    let f = sel (fun (a,_,_,_,_) -> a) and p1 = sel (fun (_,a,_,_,_) -> a)
    and p2 = sel (fun (_,_,a,_,_) -> a) and pts = sel (fun (_,_,_,a,_) -> a)
    and p3 = sel (fun (_,_,_,_,a) -> a) in
    let total =
      sel (fun (a, b, c, d, e) -> a +. b +. c +. d +. e)
    in
    ( Fmt.str "%-18s %9.2f %9.2f %9.2f %9.2f %9.2f %9.2f %9.2f %9.2f" row.p_name
        f.st_median p1.st_median p2.st_median pts.st_median p3.st_median
        total.st_median total.st_min total.st_mean,
      Jobj
        (("system", Jstr row.p_name)
        :: ("config_fingerprint", Jstr (config_fingerprint Safeflow.Config.default))
        :: (jstats "frontend" f @ jstats "shm_phase1" p1 @ jstats "phase2" p2
           @ jstats "pointsto" pts @ jstats "phase3" p3 @ jstats "total" total)) )
  in
  (* the three systems are measured concurrently; rows print in order *)
  let results = par_map measure (selected_rows o) in
  List.iter (fun (line, _) -> Fmt.pr "%s@." line) results;
  write_json o
    (Jobj [ ("iters", Jint o.iters); ("phases", Jarr (List.map snd results)) ])

(* ==================================================== scale (B2) ========= *)

let scale_sizes = [ 4; 8; 16; 32; 64; 96; 128; 192; 256; 384 ]

let scale (o : opts) =
  Fmt.pr "@.== B2: analysis time vs synthetic core size ==@.@.";
  Fmt.pr "%8s %8s %10s %10s %10s@." "workers" "LOC" "time(ms)" "warnings" "contexts";
  let cells =
    List.map
      (fun n ->
        let src = Safeflow.Synth.of_size n in
        let loc = Safeflow.Driver.count_loc src in
        let a, t = time_ms (fun () -> Safeflow.Driver.analyze src) in
        let r = a.Safeflow.Driver.report in
        Fmt.pr "%8d %8d %10.2f %10d %10d@." n loc t
          (List.length r.Safeflow.Report.warnings)
          (List.assoc "phase3_contexts" r.Safeflow.Report.stats);
        Jobj
          [ ("workers", Jint n);
            ("config_fingerprint", Jstr (config_fingerprint Safeflow.Config.default));
            ("loc", Jint loc);
            ("time_ms", Jfloat t);
            ("warnings", Jint (List.length r.Safeflow.Report.warnings));
            ("contexts", Jint (List.assoc "phase3_contexts" r.Safeflow.Report.stats)) ])
      scale_sizes
  in
  write_json o (Jobj [ ("scale", Jarr cells) ])

(* ==================================================== fleet ============== *)

(* Fleet mode (BENCH_fleet.json): synthetic fleets with controlled
   cross-member function overlap and duplicate members, analyzed three
   ways per fleet size — sequential with no cache (the baseline every
   report is byte-compared against), cold through a fresh shared cache,
   and warm through the populated cache — recording analyses/sec, the
   warm/cold speedup and the cross-system hit rate, plus a jobs sweep
   (worker-process scaling) on the largest fleet. *)
let fleet_bench (o : opts) =
  let seed = if o.seed = 0 then 1 else o.seed in
  let sizes = match o.synth with Some s -> s | None -> [ 100; 500; 1000 ] in
  let jobs = Option.value o.jobs ~default:2 in
  let shard_domains = 2 in
  let overlap = 0.5 and dup = 0.25 and workers = 4 in
  let mkdtemp prefix =
    let base = Filename.get_temp_dir_name () in
    let rec go k =
      let d = Filename.concat base (Printf.sprintf "%s-%d-%d" prefix (Unix.getpid ()) k) in
      if Sys.file_exists d then go (k + 1)
      else begin
        try Sys.mkdir d 0o700; d with Sys_error _ -> go (k + 1)
      end
    in
    go 0
  in
  let rm_rf dir =
    if Sys.file_exists dir then begin
      let rec go d =
        Array.iter
          (fun f ->
            let p = Filename.concat d f in
            if Sys.is_directory p then go p else Sys.remove p)
          (Sys.readdir d);
        Sys.rmdir d
      in
      try go dir with Sys_error _ -> ()
    end
  in
  let write_members dir members =
    List.map
      (fun (name, src) ->
        let path = Filename.concat dir name in
        let oc = open_out_bin path in
        output_string oc src;
        close_out oc;
        path)
      members
  in
  let reports (r : Safeflow.Fleet.result) =
    List.map (fun m -> m.Safeflow.Fleet.mr_report) r.Safeflow.Fleet.f_results
  in
  Fmt.pr "@.== Fleet: sharded multi-system analysis over a shared cache ==@.";
  Fmt.pr "   (%d jobs x %d domains, overlap %.2f, dup %.2f, seed %d)@.@." jobs
    shard_domains overlap dup seed;
  Fmt.pr "%8s %10s %10s %10s %10s %9s %11s %10s@." "systems" "base(a/s)" "cold(a/s)"
    "warm(a/s)" "speedup" "cross" "cross-rate" "identical";
  let rows =
    List.map
      (fun n ->
        let fp =
          { Safeflow.Synth.fleet_n = n; fleet_workers = workers;
            fleet_overlap = overlap; fleet_dup = dup }
        in
        let src_dir = mkdtemp "sf-fleet-src" in
        let cache_dir = mkdtemp "sf-fleet-cache" in
        let paths = write_members src_dir (Safeflow.Synth.fleet ~seed fp) in
        (* sequential, no cache: the identity baseline *)
        let base = Safeflow.Fleet.run paths in
        let cold = Safeflow.Fleet.run ~cache_dir ~jobs ~shard_domains paths in
        let warm = Safeflow.Fleet.run ~cache_dir ~jobs ~shard_domains paths in
        let identical =
          reports base = reports cold && reports base = reports warm
        in
        if not identical then
          Fmt.failwith "fleet %d: sharded/cached reports differ from baseline" n;
        let cc = cold.Safeflow.Fleet.f_cache and wc = warm.Safeflow.Fleet.f_cache in
        let cross_rate =
          let h = cc.Safeflow.Fleet.ct_hits in
          if h = 0 then 0.0
          else float_of_int cc.Safeflow.Fleet.ct_cross /. float_of_int h
        in
        let speedup =
          warm.Safeflow.Fleet.f_analyses_per_sec
          /. Float.max 0.001 cold.Safeflow.Fleet.f_analyses_per_sec
        in
        Fmt.pr "%8d %10.1f %10.1f %10.1f %9.1fx %9d %11.3f %10b@." n
          base.Safeflow.Fleet.f_analyses_per_sec
          cold.Safeflow.Fleet.f_analyses_per_sec
          warm.Safeflow.Fleet.f_analyses_per_sec speedup cc.Safeflow.Fleet.ct_cross
          cross_rate identical;
        rm_rf cache_dir;
        rm_rf src_dir;
        Jobj
          [ ("systems", Jint n);
            ("jobs", Jint jobs);
            ("shard_domains", Jint shard_domains);
            ("workers_per_member", Jint workers);
            ("overlap", Jfloat overlap);
            ("dup", Jfloat dup);
            ("baseline_s", Jfloat base.Safeflow.Fleet.f_elapsed_s);
            ("cold_s", Jfloat cold.Safeflow.Fleet.f_elapsed_s);
            ("warm_s", Jfloat warm.Safeflow.Fleet.f_elapsed_s);
            ("baseline_analyses_per_sec", Jfloat base.Safeflow.Fleet.f_analyses_per_sec);
            ("cold_analyses_per_sec", Jfloat cold.Safeflow.Fleet.f_analyses_per_sec);
            ("warm_analyses_per_sec", Jfloat warm.Safeflow.Fleet.f_analyses_per_sec);
            ("warm_speedup", Jfloat speedup);
            ("cold_hits", Jint cc.Safeflow.Fleet.ct_hits);
            ("cold_misses", Jint cc.Safeflow.Fleet.ct_misses);
            ("cold_cross_hits", Jint cc.Safeflow.Fleet.ct_cross);
            ("cold_cross_hit_rate", Jfloat cross_rate);
            ("warm_hits", Jint wc.Safeflow.Fleet.ct_hits);
            ("warm_misses", Jint wc.Safeflow.Fleet.ct_misses);
            ("warm_cross_hits", Jint wc.Safeflow.Fleet.ct_cross);
            ("stale", Jint (cc.Safeflow.Fleet.ct_stale + wc.Safeflow.Fleet.ct_stale));
            ("corrupt", Jint (cc.Safeflow.Fleet.ct_corrupt + wc.Safeflow.Fleet.ct_corrupt));
            ("identical_reports", Jbool identical) ])
      sizes
  in
  (* worker-process scaling on the largest fleet, warm cache: isolates
     the sharding machinery from analysis cost *)
  let sweep_n = List.fold_left max 1 sizes in
  let fp =
    { Safeflow.Synth.fleet_n = sweep_n; fleet_workers = workers;
      fleet_overlap = overlap; fleet_dup = dup }
  in
  let src_dir = mkdtemp "sf-fleet-src" in
  let cache_dir = mkdtemp "sf-fleet-cache" in
  let paths = write_members src_dir (Safeflow.Synth.fleet ~seed fp) in
  ignore (Safeflow.Fleet.run ~cache_dir paths);
  Fmt.pr "@.%8s %10s %12s@." "jobs" "warm(a/s)" "elapsed(s)";
  let sweep =
    List.map
      (fun j ->
        let r = Safeflow.Fleet.run ~cache_dir ~jobs:j ~shard_domains paths in
        Fmt.pr "%8d %10.1f %12.2f@." j r.Safeflow.Fleet.f_analyses_per_sec
          r.Safeflow.Fleet.f_elapsed_s;
        Jobj
          [ ("jobs", Jint j);
            ("systems", Jint sweep_n);
            ("warm_analyses_per_sec", Jfloat r.Safeflow.Fleet.f_analyses_per_sec);
            ("elapsed_s", Jfloat r.Safeflow.Fleet.f_elapsed_s) ])
      [ 1; 2; 4 ]
  in
  rm_rf cache_dir;
  rm_rf src_dir;
  Fmt.pr "@.(every fleet report above is byte-identical to its sequential@.";
  Fmt.pr "no-cache baseline; cross = cache hits on entries another member wrote)@.";
  write_json o
    (Jobj
       [ ("benchmark",
          Jstr "fleet: sharded multi-system analysis over a shared content-addressed cache");
         jmeta ~benchmark:"fleet";
         ("seed", Jint seed);
         ("fleet", Jarr rows);
         ("jobs_sweep", Jarr sweep) ])

(* ==================================================== ablation (B3) ====== *)

let ablation (_o : opts) =
  Fmt.pr "@.== B3: ablations (errors/warnings/false-positives) ==@.@.";
  let configs =
    [ ("full analysis", Safeflow.Config.default);
      ("no context sensitivity", { Safeflow.Config.default with context_sensitive = false });
      ("no field sensitivity", { Safeflow.Config.default with field_sensitive = false });
      ("no control deps", { Safeflow.Config.default with control_deps = false }) ]
  in
  Fmt.pr "%-26s %-18s %-8s %-10s %-7s@." "Config" "System" "Errors" "Warnings" "FalseP";
  List.iter
    (fun (cname, config) ->
      List.iter
        (fun row ->
          let a =
            Safeflow.Driver.analyze_file ~config (find ("systems/" ^ row.p_core_file))
          in
          let r = a.Safeflow.Driver.report in
          Fmt.pr "%-26s %-18s %-8d %-10d %-7d@." cname row.p_name
            (List.length (Safeflow.Report.errors r))
            (List.length r.Safeflow.Report.warnings)
            (List.length (Safeflow.Report.control_deps r)))
        paper_rows)
    configs;
  (* the three systems monitor whole regions from single contexts, so the
     first two toggles do not move their numbers; two crafted probes show
     what each dimension buys (cf. unit tests in test/test_safeflow.ml) *)
  let ctx_probe =
    {|
struct B { double a; double b2; double c; };
typedef struct B B;
B *reg;
extern void sendControl(double v);
void initShm()
/*** SafeFlow Annotation shminit ***/
{
  void *s; int id;
  id = shmget(6100, sizeof(B), 438);
  s = shmat(id, (void *) 0, 0);
  reg = (B *) s;
  /*** SafeFlow Annotation assume(shmvar(reg, sizeof(B))) assume(noncore(reg)) ***/
}
double readval(B *p) { return p->a; }
double monitored(B *p)
/*** SafeFlow Annotation assume(core(reg, 0, sizeof(B))) ***/
{
  double v = readval(p);
  if (v > 5.0 || v < -5.0) { return 0.0; }
  return v;
}
int main() {
  initShm();
  double x = monitored(reg);
  /*** SafeFlow Annotation assert(safe(x)) ***/
  double y = readval(reg);
  sendControl(x + y);
  return 0;
}
|}
  in
  let field_probe =
    {|
struct B { double a; double b2; double c; };
typedef struct B B;
B *reg;
extern void sendControl(double v);
void initShm()
/*** SafeFlow Annotation shminit ***/
{
  void *s; int id;
  id = shmget(6200, sizeof(B), 438);
  s = shmat(id, (void *) 0, 0);
  reg = (B *) s;
  /*** SafeFlow Annotation assume(shmvar(reg, sizeof(B))) assume(noncore(reg)) ***/
}
double monitorA(B *p)
/*** SafeFlow Annotation assume(core(reg, 0, 8)) ***/
{
  double v = p->a;
  if (v > 5.0 || v < -5.0) { return 0.0; }
  return v;
}
int main() { initShm(); sendControl(monitorA(reg)); return 0; }
|}
  in
  Fmt.pr "@.crafted probes:@.";
  List.iter
    (fun (cname, config) ->
      let rc = (Safeflow.Driver.analyze ~config ctx_probe).Safeflow.Driver.report in
      let rf = (Safeflow.Driver.analyze ~config field_probe).Safeflow.Driver.report in
      Fmt.pr "%-26s ctx-probe: errors=%d warnings=%d | field-probe: warnings=%d@." cname
        (List.length (Safeflow.Report.errors rc))
        (List.length rc.Safeflow.Report.warnings)
        (List.length rf.Safeflow.Report.warnings))
    configs;
  Fmt.pr "@.Reading: dropping context sensitivity conflates monitored and@.";
  Fmt.pr "unmonitored call sites (the ctx probe gains a spurious error);@.";
  Fmt.pr "dropping field sensitivity voids partial-range monitor annotations@.";
  Fmt.pr "(the field probe's covered read starts warning); dropping control-@.";
  Fmt.pr "dependence tracking silences the paper's false-positive class.@."

(* ==================================================== summary (B4) ======= *)

let summary (_o : opts) =
  Fmt.pr "@.== B4: exact vs summary engine (paper §3.3's ESP optimization) ==@.@.";
  Fmt.pr "The exact engine re-analyzes each function per monitoring context@.";
  Fmt.pr "(exponential worst case); the summary engine inlines per-function@.";
  Fmt.pr "value-flow summaries in a single bottom-up pass.@.@.";
  (* equivalence on the subject systems *)
  Fmt.pr "%-20s %18s %18s %10s@." "input" "exact warn/err" "summary warn/err" "agree";
  List.iter
    (fun row ->
      let path = find ("systems/" ^ row.p_core_file) in
      let src = read_file path in
      let exact = (Safeflow.Driver.analyze ~file:path src).Safeflow.Driver.report in
      let rs, _ = Safeflow.Driver.analyze_summary ~file:path src in
      let we = List.length exact.Safeflow.Report.warnings
      and ee = List.length (Safeflow.Report.errors exact)
      and ws = List.length rs.Safeflow.Report.warnings
      and es = List.length (Safeflow.Report.errors rs) in
      Fmt.pr "%-20s %14d/%-3d %14d/%-3d %10b@." row.p_name we ee ws es
        (we = ws && ee = es))
    paper_rows;
  (* the exponential case: a binary tree of monitoring functions *)
  Fmt.pr "@.%8s %8s %12s %12s %10s@." "depth" "contexts" "exact(ms)" "summary(ms)" "speedup";
  List.iter
    (fun depth ->
      let src = Safeflow.Synth.context_explosion ~depth in
      let a, t_exact = time_ms (fun () -> Safeflow.Driver.analyze src) in
      let _, t_sum = time_ms (fun () -> Safeflow.Driver.analyze_summary src) in
      let ctxs =
        List.assoc "phase3_contexts" a.Safeflow.Driver.report.Safeflow.Report.stats
      in
      Fmt.pr "%8d %8d %12.1f %12.1f %9.1fx@." depth ctxs t_exact t_sum
        (t_exact /. Float.max 0.01 t_sum))
    [ 2; 4; 6; 8; 10 ];
  Fmt.pr "@.(both engines report identical warnings and error dependencies on@.";
  Fmt.pr "every input above; the summary engine does not classify control-only@.";
  Fmt.pr "dependencies — ESP summaries capture data flow)@."

(* ==================================================== sim (F1/E1) ======== *)

let sim (_o : opts) =
  Fmt.pr "@.== F1/E1: Simplex architecture closed-loop outcomes ==@.@.";
  let open Simplex in
  let run_table plant_label plant =
    Fmt.pr "--- %s ---@." plant_label;
    Fmt.pr "%-34s %-10s %8s %8s %10s@." "scenario" "outcome" "rejects" "switches" "cost";
    let base = Sim.default_config plant in
    let show name cfg =
      let r = Sim.run cfg in
      let outcome =
        if r.Sim.core_killed then "killed"
        else if r.Sim.crashed then "CRASH"
        else "ok"
      in
      Fmt.pr "%-34s %-10s %8d %8d %10.3f@." name outcome r.Sim.monitor_rejections
        r.Sim.safety_engagements r.Sim.cost
    in
    show "nominal" base;
    show "complex destabilizing" { base with scenario = Sim.Complex_fault Controller.Destabilizing };
    show "complex NaN" { base with scenario = Sim.Complex_fault Controller.Nan_output };
    show "complex stuck 4.5V" { base with scenario = Sim.Complex_fault (Controller.Stuck 4.5) };
    show "rigged feedback (fixed core)" { base with scenario = Sim.Rigged_feedback 300 };
    show "rigged feedback (vulnerable)"
      { base with scenario = Sim.Rigged_feedback 300; variant = Sim.Vulnerable };
    show "kill-pid attack" { base with scenario = Sim.Kill_pid 100 };
    Fmt.pr "@."
  in
  run_table "inverted pendulum" (Plant.inverted_pendulum ());
  run_table "double inverted pendulum" (Plant.double_inverted_pendulum ())

(* ==================================================== ranges ============ *)

(* Synthetic clamp component: a non-core mode value is clamped into
   [0,3], then a branch on mode > 7 guards the critical output.  The
   branch can never be taken, so the C-CONTROL-DEP the guard induces is
   a false positive that the value-range analysis removes. *)
let clamp_demo_src =
  {|
struct SHMData { int mode; int cmd; };
typedef struct SHMData SHMData;
SHMData *modeShm;
int shmLock;
extern void sendControl(int out);
void initComm()
/*** SafeFlow Annotation shminit ***/
{
  int shmid;
  void *shmStart;
  shmid = shmget(9000, sizeof(SHMData), 438);
  shmStart = shmat(shmid, (void *) 0, 0);
  modeShm = (SHMData *) shmStart;
  InitCheck(shmStart, sizeof(SHMData));
  /*** SafeFlow Annotation
       assume(shmvar(modeShm, sizeof(SHMData)))
       assume(noncore(modeShm)) ***/
}
int main()
{
  int m;
  int out;
  initComm();
  m = modeShm->mode;
  if (m < 0) { m = 0; }
  if (m > 3) { m = 3; }
  out = 1;
  if (m > 7) { out = 2; }
  /*** SafeFlow Annotation assert(safe(out)) ***/
  sendControl(out);
  return 0;
}
|}

(* Value-range discharge experiment (BENCH_ranges.json): per system,
   the A1/A2 bounds obligations broken down by discharge method (range
   analysis alone vs Omega), the Omega queries avoided, and phase-2 wall
   time with the range analysis on and off — plus the report-level
   guarantee that the on-findings are a fingerprint-subset of the
   off-findings.  The clamp synthetic demonstrates the phase-3
   control-dependence pruning. *)
let ranges_bench (o : opts) =
  Fmt.pr "@.== value-range discharge: A1/A2 obligations and phase-2 time ==@.@.";
  let sys_files =
    [ "figure2.c"; "ip_controller.c"; "double_ip.c"; "car_follow.c";
      "generic_simplex.c" ]
  in
  let fingerprints (a : Safeflow.Driver.analysis) =
    let ctx =
      Safeflow.Fingerprint.ctx_of_program a.Safeflow.Driver.prepared.Safeflow.Driver.ir
    in
    List.sort_uniq compare
      (List.map fst (Safeflow.Fingerprint.of_report ctx a.Safeflow.Driver.report))
  in
  Fmt.pr "%-20s %-6s %6s %7s %6s %7s %8s %11s %7s@." "system" "absint" "oblig" "ranges"
    "omega" "failed" "avoided" "phase2 ms" "subset";
  let records =
    List.concat_map
      (fun file ->
        let path = find ("systems/" ^ file) in
        let src = read_file path in
        let analyze absint =
          let config = { Safeflow.Config.default with absint } in
          Safeflow.Driver.analyze ~config ~file:path src
        in
        let a_on = analyze true and a_off = analyze false in
        let fps_on = fingerprints a_on and fps_off = fingerprints a_off in
        let is_subset = List.for_all (fun fp -> List.mem fp fps_off) fps_on in
        List.map
          (fun absint ->
            let config = { Safeflow.Config.default with absint } in
            let a = if absint then a_on else a_off in
            let p = a.Safeflow.Driver.prepared in
            let shm = Safeflow.Driver.stage_shm p in
            let p1 = Safeflow.Driver.stage_phase1 ~config p shm in
            let ai = Safeflow.Driver.stage_absint ~config p in
            let samples =
              List.init o.iters (fun _ ->
                  snd (timed (fun () -> Safeflow.Driver.stage_phase2 ~config ?absint:ai p p1)))
            in
            let b = a.Safeflow.Driver.coverage.Safeflow.Coverage.cov_bounds in
            let ctrl_deps =
              List.length (Safeflow.Report.control_deps a.Safeflow.Driver.report)
            in
            let st = stats_of samples in
            Fmt.pr "%-20s %-6s %6d %7d %6d %7d %8d %11.2f %7b@." file
              (if absint then "on" else "off")
              b.Safeflow.Phase2.bs_total b.Safeflow.Phase2.bs_ranges
              b.Safeflow.Phase2.bs_omega b.Safeflow.Phase2.bs_failed
              b.Safeflow.Phase2.bs_omega_avoided st.st_median is_subset;
            Jobj
              ([ ("system", Jstr file);
                 ("absint", Jbool absint);
                 ("config_fingerprint", Jstr (config_fingerprint config));
                 ("a1a2_obligations", Jint b.Safeflow.Phase2.bs_total);
                 ("a1a2_by_ranges", Jint b.Safeflow.Phase2.bs_ranges);
                 ("a1a2_by_omega", Jint b.Safeflow.Phase2.bs_omega);
                 ("a1a2_failed", Jint b.Safeflow.Phase2.bs_failed);
                 ("omega_queries_avoided", Jint b.Safeflow.Phase2.bs_omega_avoided);
                 ("control_only_deps", Jint ctrl_deps);
                 ("findings", Jint (List.length fps_on));
                 ("findings_on_subset_of_off", Jbool is_subset) ]
              @ jstats "phase2" st))
          [ true; false ])
      sys_files
  in
  Fmt.pr "@.-- clamp synthetic: control-dependence pruning --@.";
  let deps absint =
    let config = { Safeflow.Config.default with absint } in
    List.length
      (Safeflow.Report.control_deps
         (Safeflow.Driver.analyze ~config ~file:"clamp_demo.c" clamp_demo_src)
           .Safeflow.Driver.report)
  in
  let off_deps = deps false and on_deps = deps true in
  Fmt.pr "clamp demo: C-CONTROL-DEP %d -> %d with ranges@." off_deps on_deps;
  write_json o
    (Jobj
       [ jmeta ~benchmark:"ranges";
         ("systems", Jarr records);
         ( "clamp_demo",
           Jarr
             [ Jobj
                 [ ("control_only_deps_off", Jint off_deps);
                   ("control_only_deps_on", Jint on_deps) ] ] ) ])

(* ==================================================== micro ============== *)

let micro (_o : opts) =
  Fmt.pr "@.== Microbenchmarks (bechamel, monotonic clock) ==@.@.";
  let open Bechamel in
  let open Toolkit in
  let fig2_src = read_file (find "systems/figure2.c") in
  let synth16 = Safeflow.Synth.of_size 16 in
  let prepared16 = Safeflow.Driver.prepare_source synth16 in
  let ip_src = read_file (find "systems/ip_controller.c") in
  let omega_query () =
    let open Omega in
    let i = Linexpr.var "i" in
    feasible
      [ ge i (Linexpr.const 0); lt i (Linexpr.const 16); ge i (Linexpr.const 16) ]
  in
  let tests =
    Test.make_grouped ~name:"safeflow"
      [ Test.make ~name:"lex+parse figure2" (Staged.stage (fun () ->
            Minic.Parser.parse_string ~file:"f" fig2_src));
        Test.make ~name:"frontend+ssa figure2" (Staged.stage (fun () ->
            Safeflow.Driver.prepare_source fig2_src));
        Test.make ~name:"omega bounds query" (Staged.stage omega_query);
        Test.make ~name:"pointsto synth16" (Staged.stage (fun () ->
            Pointsto.analyze prepared16.Safeflow.Driver.ir));
        Test.make ~name:"full analysis figure2" (Staged.stage (fun () ->
            Safeflow.Driver.analyze fig2_src));
        Test.make ~name:"full analysis ip_controller" (Staged.stage (fun () ->
            Safeflow.Driver.analyze ip_src));
        Test.make ~name:"optimizer ip_controller" (Staged.stage (fun () ->
            let p = Safeflow.Driver.prepare_source ip_src in
            Ssair.Opt.run p.Safeflow.Driver.ir)) ]
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None () in
  let raw = Benchmark.all cfg instances tests in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  Hashtbl.iter
    (fun name ols_result ->
      match Analyze.OLS.estimates ols_result with
      | Some [ est ] -> Fmt.pr "%-34s %12.1f ns/run (%8.3f ms)@." name est (est /. 1e6)
      | _ -> Fmt.pr "%-34s (no estimate)@." name)
    results

(* ========================================= diff (regression gate) ======== *)

(* bench diff OLD.json NEW.json [--threshold PCT]: compare two BENCH
   files (Safeflow.Benchdiff: rows matched by identity key incl. the
   semantic-config fingerprint, time metrics judged against the
   threshold, hostname mismatch non-blocking) and exit non-zero on a
   same-host regression.  Not part of "all": it needs positionals and
   gates instead of measuring. *)
let diff_cmd (o : opts) =
  match o.rest with
  | [ old_path; new_path ] ->
    let read path =
      let ic = open_in_bin path in
      let s = really_input_string ic (in_channel_length ic) in
      close_in ic;
      s
    in
    let threshold = Option.map (fun pct -> pct /. 100.0) o.threshold in
    (match
       Safeflow.Benchdiff.diff ?threshold ~old_text:(read old_path)
         ~new_text:(read new_path) ()
     with
    | Error msg ->
      Fmt.epr "bench diff: %s@." msg;
      exit 3
    | Ok v ->
      Safeflow.Benchdiff.print_report stdout v;
      exit (Safeflow.Benchdiff.gate v))
  | _ ->
    Fmt.epr "usage: bench diff OLD.json NEW.json [--threshold PCT]@.";
    exit 2

(* ==================================================== driver ============= *)

let () =
  let which, opts = parse_args () in
  if which = "diff" then diff_cmd opts;
  let all = [ ("table1", table1); ("phases", phases); ("scale", scale);
              ("fleet", fleet_bench);
              ("ablation", ablation); ("summary", summary); ("sim", sim);
              ("ranges", ranges_bench); ("micro", micro) ] in
  match List.assoc_opt which all with
  | Some f -> f opts
  | None ->
    if which <> "all" then Fmt.epr "unknown benchmark %S, running all@." which;
    List.iter (fun (_, f) -> f opts) all
