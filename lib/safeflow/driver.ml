(** End-to-end SafeFlow pipeline: MiniC source → SSA IR → shared-memory
    model → phases 1–3 → report.

    The staged API ({!prepare_source}, {!stage_shm}, {!stage_phase1}...)
    exists so the benchmark harness can time each phase separately
    (experiment B1). *)

open Minic

type prepared = {
  ir : Ssair.Ir.program;
  annotation_lines : int;
  loc_total : int;
}

(** Count annotation clauses in a parsed program (the paper's "annotation
    line count" — each clause occupies one line in our systems). *)
let count_annotations (prog : Ast.program) : int =
  let stmt_clauses stmts =
    (* walk statements directly for Sannot *)
    let rec go acc (s : Ast.stmt) =
      match s.sdesc with
      | Ast.Sannot clauses -> acc + List.length clauses
      | Ast.Sif (_, a, b) -> List.fold_left go (List.fold_left go acc a) b
      | Ast.Swhile (_, a) | Ast.Sdo (a, _) -> List.fold_left go acc a
      | Ast.Sfor (i, _, st, a) ->
        let acc = Option.fold ~none:acc ~some:(go acc) i in
        let acc = Option.fold ~none:acc ~some:(go acc) st in
        List.fold_left go acc a
      | Ast.Sswitch (_, cases) ->
        List.fold_left (fun acc c -> List.fold_left go acc c.Ast.cbody) acc cases
      | Ast.Sblock a -> List.fold_left go acc a
      | _ -> acc
    in
    List.fold_left go 0 stmts
  in
  List.fold_left
    (fun acc d ->
      match d with
      | Ast.Dfunc f -> acc + List.length f.fannot + stmt_clauses f.fbody
      | _ -> acc)
    0 prog

let count_loc (src : string) : int =
  String.split_on_char '\n' src
  |> List.filter (fun l -> String.trim l <> "")
  |> List.length

(** Frontend + IR construction (shared by all phases). *)
let prepare_source ?(file = "<input>") (src : string) : prepared =
  Telemetry.span "prepare" ~args:[ ("file", file) ] (fun () ->
      let ast = Telemetry.span "parse" (fun () -> Parser.parse_string ~file src) in
      let tast = Telemetry.span "typecheck" (fun () -> Typecheck.check_program ast) in
      let ir = Telemetry.span "prepare.lower" (fun () -> Ssair.Build.lower tast) in
      Telemetry.span "prepare.verify" (fun () ->
          match Ssair.Verify.check_program ~ssa:true ir with
          | [] -> ()
          | v :: _ ->
            Loc.error Loc.dummy "internal IR verification failed: %s" v.Ssair.Verify.vmsg);
      { ir; annotation_lines = count_annotations ast; loc_total = count_loc src })

let prepare_file path : prepared = prepare_source ~file:path (Loc.read_source path)

(* -- Staged pipeline ------------------------------------------------------------ *)

let stage_shm (p : prepared) : Shm.t = Shm.discover p.ir

let stage_phase1 ?config (p : prepared) (shm : Shm.t) : Phase1.t =
  Phase1.run ?config p.ir shm

let stage_pointsto (p : prepared) : Pointsto.t = Pointsto.analyze p.ir

let c_absint_iters = Telemetry.counter "absint.iterations"
let c_absint_widenings = Telemetry.counter "absint.widenings"

(* per-function memo outcomes: a summary taken from the cached pack, or
   a fixpoint computed *)
let c_absint_reused = Telemetry.counter "absint.reused"
let c_absint_computed = Telemetry.counter "absint.computed"

(* Latency histograms for the solver stack (PR 9).  The Omega library
   has no clock of its own, so the query probe reads ours: the outer
   application fires at query start, the returned closure at the
   verdict.  When telemetry is off the probe costs one atomic load and
   never touches the clock. *)
let h_omega_query = Telemetry.histogram "omega.query"
let h_absint_summary = Telemetry.histogram "absint.summary"

let () =
  Omega.set_query_probe
    (Some
       (fun ~cstrs:_ ~vars:_ ->
         if not (Telemetry.enabled ()) then fun _ -> ()
         else begin
           let t0 = Telemetry.now_ns () in
           fun _verdict ->
             Telemetry.observe_ns h_omega_query (Int64.sub (Telemetry.now_ns ()) t0)
         end))

let absint_span = { Absint.span = (fun name f -> Telemetry.span name f) }

(* An absint pack: every per-function summary one run used, keyed by the
   digest of the inputs it was computed from. *)
type absint_pack = (string * Absint.func_summary) list

(* the "latest" entry of the current origin names its last absint pack *)
let latest_key () = Digest_ir.of_value (Cache.current_origin ())

(** Interprocedural value-range analysis, or [None] when disabled by
    [Config.absint] (phases 2/3 then behave exactly as without it).
    With [~cache], per-function summaries come from one absint pack: the
    pack stored under [~key] when there is one, else the pack the
    ["latest"] entry of the current origin names, else none.  A summary
    is reused only when its inputs digest (location-free function body,
    type environment, parameter and callee-return intervals) matches, so
    a pack written by any other version of the program is sound to
    consult: an edit recomputes only the functions whose inputs actually
    shifted, and a line shift alone recomputes none.  With [~key], a
    pack of the summaries this run used is stored under it when it
    missed, and ["latest"] is pointed at it.  Without a cache no key is
    derived. *)
let stage_absint ?(config = Config.default) ?cache ?key (p : prepared) : Absint.t option =
  if not config.Config.absint then None
  else
    Telemetry.span "absint" (fun () ->
        (* the memo hook wraps every per-function fixpoint, so it is
           also where the summary latency histogram lives: only true
           recomputations are timed *)
        let compute_summary compute =
          Telemetry.incr c_absint_computed;
          Telemetry.span "absint.summary" (fun () ->
              Telemetry.time_hist h_absint_summary compute)
        in
        let ai =
          match cache with
          | None ->
            Absint.analyze ~span:absint_span p.ir
              ~memo:(fun ~fname:_ ~inputs_digest:_ compute -> compute_summary compute)
          | Some c ->
            let pack k : absint_pack option = Cache.find c ~ns:"absint" ~key:k in
            let latest_key = latest_key () in
            let exact = Option.bind key pack in
            let latest : string option = Cache.find c ~ns:"latest" ~key:latest_key in
            let prior =
              match (exact, latest) with
              | Some _, _ -> exact
              | None, Some k when Some k <> key -> pack k
              | None, _ -> None
            in
            let known = Hashtbl.create 64 in
            Option.iter (List.iter (fun (d, s) -> Hashtbl.replace known d s)) prior;
            let used = Hashtbl.create 64 in
            let memo ~fname:_ ~inputs_digest compute =
              let d = Telemetry.span "absint.key" (fun () -> Lazy.force inputs_digest) in
              let s =
                match Hashtbl.find_opt known d with
                | Some s ->
                  Telemetry.incr c_absint_reused;
                  s
                | None -> compute_summary compute
              in
              Hashtbl.replace used d s;
              s
            in
            let ai = Absint.analyze ~memo ~span:absint_span p.ir in
            Option.iter
              (fun k ->
                if exact = None then
                  Cache.store c ~ns:"absint" ~key:k
                    (List.sort
                       (fun (a, _) (b, _) -> String.compare a b)
                       (Hashtbl.fold (fun d s acc -> (d, s) :: acc) used []));
                (* republished on exact hits too, so which files a run
                   leaves does not depend on who stored the pack first *)
                if latest <> key then Cache.store ~replace:true c ~ns:"latest" ~key:latest_key k)
              key;
            ai
        in
        Telemetry.add c_absint_iters (Absint.iterations ai);
        Telemetry.add c_absint_widenings (Absint.widenings ai);
        Some ai)

(* [?cache] and [?digests] are accepted and ignored: results are cached
   whole, per analysed input, by {!analyze} *)
let stage_phase2 ?config ?cache:_ ?digests:_ ?absint (p : prepared) (p1 : Phase1.t) :
    Phase2.result =
  Phase2.run ?config ?absint p.ir p1

let stage_phase3 ?(config = Config.default) ?cache:_ ?digests:_ ?absint (p : prepared)
    (shm : Shm.t) (p1 : Phase1.t) (pts : Pointsto.t) : Phase3.result =
  Vfgraph.run ~config ?absint p.ir shm p1 pts

(* -- One-shot analysis ------------------------------------------------------------ *)

type detail = {
  prepared : prepared;
  shm : Shm.t;
  phase1 : Phase1.t;
  pointsto : Pointsto.t;
  phase3 : Phase3.result;
  absint : Absint.t option;
}

type analysis = {
  report : Report.t;
  coverage : Coverage.t;
  ledger : Ledger.entry list;
      (* phase-2 obligation audit trail; observability only, never
         consulted when building [report] *)
  fingerprints : Fingerprint.ctx;
  detail : detail Lazy.t;
}

(* -- Canonical report order ------------------------------------------------------ *)

(* The emission sites already sort by (file, line, code); this final
   (file, line, fingerprint) sort makes printed and serialized output
   byte-identical across {cache states} x {parallelism}. *)
let canonicalize (fctx : Fingerprint.ctx) (r : Report.t) : Report.t =
  let by_fp to_finding natural a b =
    let c = Report.compare_loc (Fingerprint.loc (to_finding a)) (Fingerprint.loc (to_finding b)) in
    if c <> 0 then c
    else
      let c =
        compare
          (Fingerprint.compute fctx (to_finding a))
          (Fingerprint.compute fctx (to_finding b))
      in
      if c <> 0 then c else natural a b
  in
  {
    r with
    Report.violations =
      List.stable_sort
        (by_fp (fun v -> Fingerprint.Violation v) Report.compare_violation)
        r.Report.violations;
    warnings =
      List.stable_sort
        (by_fp (fun w -> Fingerprint.Warning w) Report.compare_warning)
        r.Report.warnings;
    dependencies =
      List.stable_sort
        (by_fp (fun d -> Fingerprint.Dependency d) Report.compare_dependency)
        r.Report.dependencies;
    infos =
      List.stable_sort (by_fp (fun i -> Fingerprint.Info i) Report.compare_info) r.Report.infos;
  }

(** The function universe phase 3 actually analyzed: discovered pairs
    minus exempt functions. *)
let analyzed_functions (ph3 : Phase3.result) (p1 : Phase1.t) : string list =
  List.sort_uniq compare
    (List.filter
       (fun fname -> not (Phase1.is_exempt p1 fname))
       (Phase3.pair_functions ph3.Phase3.flat))

(* Cross-system dedupe attribution: record which system's analysis
   stored each cache entry.  An enclosing caller (the fleet driver) may
   have set a more precise origin — the member's real path rather than
   its normalized source label — so only fill in a default when none is
   set. *)
let with_default_origin label f =
  if not (String.equal (Cache.current_origin ()) "") then f ()
  else Cache.with_origin label f

(* Every stage once, in order, with no cache but the absint pack.
   Phase 2's result is not part of [detail]; a forced [detail] reruns it
   too (a few per cent of the run) to keep one code path. *)
let stages ~config ?cache ?absint_key ?file src : detail * Phase2.result =
  let p = prepare_source ?file src in
  let shm = Telemetry.span "shm" (fun () -> stage_shm p) in
  let p1 = Telemetry.span "phase1" (fun () -> stage_phase1 ~config p shm) in
  let absint = stage_absint ~config ?cache ?key:absint_key p in
  let ph2 = Telemetry.span "phase2" (fun () -> stage_phase2 ~config ?absint p p1) in
  let pts = Telemetry.span "pointsto" (fun () -> stage_pointsto p) in
  let ph3 = Telemetry.span "phase3" (fun () -> stage_phase3 ~config ?absint p shm p1 pts) in
  ({ prepared = p; shm; phase1 = p1; pointsto = pts; phase3 = ph3; absint }, ph2)

(* The "analysis" entry: what [analyze] prints and what audit, hotspots,
   baselines, SARIF and the fleet read.  The report keeps every phase-2
   info: [verbose] is not part of the key, so infos are dropped after
   the lookup. *)
type entry = Report.t * Coverage.t * Ledger.entry list * Fingerprint.ctx

let summarize (d : detail) (ph2 : Phase2.result) : entry =
  let p = d.prepared and ph3 = d.phase3 in
  let fctx = Fingerprint.ctx_of_program p.ir in
  let report =
    canonicalize fctx
      {
        Report.violations = ph2.Phase2.violations;
        warnings = ph3.Phase3.warnings;
        dependencies = ph3.Phase3.dependencies;
        infos = ph2.Phase2.infos;
        regions =
          List.map (fun r -> (r.Shm.r_name, r.Shm.r_size, r.Shm.r_noncore)) d.shm.Shm.regions;
        annotation_lines = p.annotation_lines;
        stats = [];
      }
  in
  let coverage =
    Telemetry.span "coverage" (fun () ->
        Coverage.compute ~bounds:ph2.Phase2.bounds ~prog:p.ir ~shm:d.shm ~p1:d.phase1
          ~pts:d.pointsto ~analyzed:(analyzed_functions ph3 d.phase1) report)
  in
  let stats =
    [ ("loc", p.loc_total);
      ("functions", List.length p.ir.Ssair.Ir.funcs);
      ("phase3_contexts", ph3.Phase3.pair_count) ]
    @ Coverage.stats coverage @ ph3.Phase3.engine_stats
  in
  ({ report with Report.stats }, coverage, ph2.Phase2.ledger, fctx)

(* A hit runs no absint, but still points the origin's "latest" entry at
   this input's pack, as a miss does: otherwise which entries a fleet
   leaves would depend on the order its members ran in. *)
let point_latest c ~key =
  let latest_key = latest_key () in
  if (Cache.find c ~ns:"latest" ~key:latest_key : string option) <> Some key then
    Cache.store ~replace:true c ~ns:"latest" ~key:latest_key key

let analyze ?(config = Config.default) ?cache ?file (src : string) : analysis =
  Telemetry.span "analyze"
    ~args:[ ("file", Option.value file ~default:"<input>") ]
    (fun () ->
  with_default_origin (Option.value file ~default:"<input>") (fun () ->
  let of_entry ((report, coverage, ledger, fingerprints) : entry) detail =
    let report = if config.Config.verbose then report else { report with Report.infos = [] } in
    { report; coverage; ledger; fingerprints; detail }
  in
  match cache with
  | None ->
    let d, ph2 = stages ~config ?file src in
    of_entry (summarize d ph2) (Lazy.from_val d)
  | Some c -> (
    let source_key = Digest_ir.source_key ?file src in
    let absint_key = Digest_ir.combine [ "absint"; source_key ] in
    let key = Digest_ir.combine [ source_key; Digest_ir.semantic_config config ] in
    match (Cache.find c ~ns:"analysis" ~key : entry option) with
    | Some e ->
      if config.Config.absint then point_latest c ~key:absint_key;
      let origin = Cache.current_origin () in
      of_entry e
        (lazy
          (Cache.with_origin origin (fun () ->
               fst (stages ~config ~cache:c ~absint_key ?file src))))
    | None ->
      let d, ph2 = stages ~config ~cache:c ~absint_key ?file src in
      let e = summarize d ph2 in
      Cache.store c ~ns:"analysis" ~key e;
      of_entry e (Lazy.from_val d))))

let analyze_file ?config ?cache path : analysis =
  analyze ?config ?cache ~file:path (Loc.read_source path)

let c_file_tasks = Telemetry.counter "pool.file_tasks"
let c_file_peak = Telemetry.gauge "pool.file_peak"

(** Analyze several systems concurrently, one domain per hardware thread
    (bounded by [Domain.recommended_domain_count]).  Analysis state is
    per-run, so the systems are embarrassingly parallel; results come
    back in input order and exceptions are re-raised in input order. *)
let analyze_files_par ?config ?cache (paths : string list) : analysis list =
  let n = List.length paths in
  if n <= 1 then List.map (analyze_file ?config ?cache) paths
  else begin
    let files = Array.of_list paths in
    let results : (analysis, exn) result option array = Array.make n None in
    let next = Atomic.make 0 in
    Telemetry.add c_file_tasks n;
    let active = Atomic.make 0 in
    let worker () =
      let rec loop () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          Telemetry.record_max c_file_peak (Atomic.fetch_and_add active 1 + 1);
          results.(i) <-
            Some (try Ok (analyze_file ?config ?cache files.(i)) with e -> Error e);
          Atomic.decr active;
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
         | Some (Ok a) -> a
         | Some (Error e) -> raise e
         | None -> assert false)
  end

(** Summary-engine variant of phase 3 (paper §3.3's ESP-style
    optimization): single bottom-up pass with per-function value-flow
    summaries.  Warnings match {!analyze}; dependencies are data
    only (no control-dependence classification). *)
let stage_summary ?config (p : prepared) (shm : Shm.t) (p1 : Phase1.t) (pts : Pointsto.t) :
    Summary.result =
  Summary.run ?config p.ir shm p1 pts

(** One-shot analysis with the summary engine. *)
let analyze_summary ?(config = Config.default) ?file (src : string) :
    Report.t * Summary.result =
  let p = prepare_source ?file src in
  let shm = stage_shm p in
  let p1 = stage_phase1 ~config p shm in
  let absint = stage_absint ~config p in
  let ph2 = stage_phase2 ~config ?absint p p1 in
  let pts = stage_pointsto p in
  let s = stage_summary ~config p shm p1 pts in
  ( canonicalize (Fingerprint.ctx_of_program p.ir)
      {
        Report.violations = ph2.Phase2.violations;
        warnings = s.Summary.warnings;
        dependencies = s.Summary.dependencies;
        infos = (if config.Config.verbose then ph2.Phase2.infos else []);
        regions =
          List.map (fun r -> (r.Shm.r_name, r.Shm.r_size, r.Shm.r_noncore)) shm.Shm.regions;
        annotation_lines = p.annotation_lines;
        stats = [ ("loc", p.loc_total); ("summary_passes", s.Summary.passes) ];
      },
    s )
