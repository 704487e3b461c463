(** End-to-end SafeFlow pipeline: MiniC source → SSA IR → shared-memory
    model → phases 1–3 → report.

    The staged API ({!prepare_source}, {!stage_shm}, {!stage_phase1}...)
    exists so the benchmark harness can time each phase separately
    (experiment B1). *)

open Minic

type prepared = {
  ir : Ssair.Ir.program;
  index : Ssair.Index.t;
  annotation_lines : int;
  loc_total : int;
}

(* Annotation clauses of a statement list, added to [acc]. *)
let rec stmt_clauses acc (stmts : Ast.stmt list) =
  List.fold_left
    (fun acc (s : Ast.stmt) ->
      match s.sdesc with
      | Ast.Sannot clauses -> acc + List.length clauses
      | Ast.Sif (_, a, b) -> stmt_clauses (stmt_clauses acc a) b
      | Ast.Swhile (_, a) | Ast.Sdo (a, _) -> stmt_clauses acc a
      | Ast.Sfor (i, _, st, a) ->
        let acc = Option.fold ~none:acc ~some:(fun s -> stmt_clauses acc [ s ]) i in
        let acc = Option.fold ~none:acc ~some:(fun s -> stmt_clauses acc [ s ]) st in
        stmt_clauses acc a
      | Ast.Sswitch (_, cases) ->
        List.fold_left (fun acc c -> stmt_clauses acc c.Ast.cbody) acc cases
      | Ast.Sblock a -> stmt_clauses acc a
      | _ -> acc)
    acc stmts

(** Count annotation clauses in a parsed program (the paper's "annotation
    line count" — each clause occupies one line in our systems). *)
let count_annotations (prog : Ast.program) : int =
  List.fold_left
    (fun acc d ->
      match d with
      | Ast.Dfunc f -> stmt_clauses (acc + List.length f.fannot) f.fbody
      | _ -> acc)
    0 prog

(** Lines holding anything but blanks ([String.trim]'s set), counted in
    place. *)
let count_loc (src : string) : int =
  let n = ref 0 and blank = ref true in
  for i = 0 to String.length src - 1 do
    match String.unsafe_get src i with
    | '\n' ->
      if not !blank then incr n;
      blank := true
    | ' ' | '\012' | '\r' | '\t' -> ()
    | _ -> blank := false
  done;
  if not !blank then !n + 1 else !n

let c_lex_tokens = Telemetry.counter "lex.tokens"

(* The frontend one function at a time: the declarations are parsed
   with every function body skipped, then each body is parsed,
   typechecked and lowered in turn, so no function's syntax tree or
   typed tree lives long enough to reach the major heap; only the IR
   does.  The bodies are parsed and lowered under the [typecheck] span,
   in [parse.body] and [prepare.lower] children of it.  Returns the IR,
   the annotation clause count and the number of tokens lexed.

   On a valid program this builds what parsing, typechecking and
   lowering the whole program in turn builds.  A frontend error could
   surface in another order (a parse error in one body after a type
   error in an earlier function, a [break] outside a loop before a type
   error further on), so {!prepare_source} redoes an erroneous program
   the whole-program way, which raises the error it raises. *)
let frontend_by_function ~file src =
  let lex = Lexer.make ~file src in
  let decls, bodies =
    Telemetry.span "parse" (fun () -> Parser.parse_program_deferred lex)
  in
  let annots = ref (count_annotations decls) in
  let pending = ref bodies in
  let body (_ : Ast.func) =
    match !pending with
    | b :: rest ->
      pending := rest;
      let stmts =
        if Telemetry.enabled () then Telemetry.span "parse.body" (fun () -> Parser.parse_body b)
        else Parser.parse_body b
      in
      annots := stmt_clauses !annots stmts;
      stmts
    | [] -> invalid_arg "Driver: more function definitions than parsed bodies"
  in
  let tdecls, funcs =
    Telemetry.span "typecheck" (fun () ->
        Typecheck.check_program_map ~body decls ~start:(fun env global_ty ->
            let lower = Ssair.Build.func_lowering env ~globals:global_ty in
            fun tf ->
              if Telemetry.enabled () then Telemetry.span "prepare.lower" (fun () -> lower tf)
              else lower tf))
  in
  (* the bodies' tokens are lexed (and counted) when they are parsed *)
  (Ssair.Build.program tdecls funcs, !annots, Lexer.token_count lex)

(* The same, a whole stage at a time: the errors this raises are the
   frontend's. *)
let frontend_by_stage ~file src =
  let lex = Lexer.make ~file src in
  let ast = Telemetry.span "parse" (fun () -> Parser.parse_program lex) in
  let annots = count_annotations ast in
  let tast = Telemetry.span "typecheck" (fun () -> Typecheck.check_program ast) in
  let ir = Telemetry.span "prepare.lower" (fun () -> Ssair.Build.lower tast) in
  (ir, annots, Lexer.token_count lex)

(** Frontend + IR construction (shared by all phases). *)
let prepare_source ?(file = "<input>") (src : string) : prepared =
  Telemetry.span "prepare" ~args:[ ("file", file) ] (fun () ->
      let ir, annotation_lines, tokens =
        try frontend_by_function ~file src with Loc.Error _ -> frontend_by_stage ~file src
      in
      Telemetry.add c_lex_tokens tokens;
      let loc_total = Telemetry.span "prepare.count" (fun () -> count_loc src) in
      Telemetry.span "prepare.verify" (fun () ->
          match Ssair.Verify.check_program ~ssa:true ir with
          | [] -> ()
          | v :: _ ->
            Loc.error Loc.dummy "internal IR verification failed: %s" v.Ssair.Verify.vmsg);
      let index = Telemetry.span "prepare.index" (fun () -> Ssair.Index.of_program ir) in
      { ir; index; annotation_lines; loc_total })

let prepare_file path : prepared = prepare_source ~file:path (Loc.read_source path)

(* -- Staged pipeline ------------------------------------------------------------ *)

let stage_shm (p : prepared) : Shm.t = Shm.discover p.ir

let stage_phase1 ?config (p : prepared) (shm : Shm.t) : Phase1.t =
  Phase1.run ?config p.index shm

let stage_pointsto (p : prepared) : Pointsto.t = Pointsto.analyze p.index

let c_absint_iters = Telemetry.counter "absint.iterations"
let c_absint_widenings = Telemetry.counter "absint.widenings"

(* fixpoints computed; a cache hit computes none *)
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

(** Interprocedural value-range analysis, or [None] when disabled by
    [Config.absint] (phases 2/3 then behave exactly as without it).
    With [~cache] and [~key], the whole program's summaries are one
    "absint" entry under [key]: a hit rebuilds the result from it and
    runs no fixpoint, a miss analyzes and stores it.  Without a key the
    cache is not consulted. *)
let stage_absint ?(config = Config.default) ?cache ?key (p : prepared) : Absint.t option =
  if not config.Config.absint then None
  else
    Telemetry.span "absint" (fun () ->
        (* the hook runs once per fixpoint computed, never on a hit *)
        let on_fixpoint ~fname:_ ~params:_ ~callee_rets:_ compute =
          Telemetry.incr c_absint_computed;
          Telemetry.span "absint.summary" (fun () ->
              Telemetry.time_hist h_absint_summary compute)
        in
        let analyze () = Absint.analyze ~on_fixpoint ~span:absint_span p.index in
        let ai =
          match (cache, key) with
          | Some c, Some key -> (
            match Cache.find c ~ns:"absint" ~key with
            | Some summaries -> Absint.of_summaries p.index summaries
            | None ->
              let ai = analyze () in
              Cache.store c ~ns:"absint" ~key (Absint.summaries ai);
              ai)
          | _ -> analyze ()
        in
        Telemetry.add c_absint_iters (Absint.iterations ai);
        Telemetry.add c_absint_widenings (Absint.widenings ai);
        Some ai)

(* [?cache] and [?digests] are accepted and ignored: results are cached
   whole, per analysed input, by {!analyze} *)
let stage_phase2 ?config ?cache:_ ?digests:_ ?absint (_ : prepared) (p1 : Phase1.t) :
    Phase2.result =
  Phase2.run ?config ?absint p1

let stage_phase3 ?(config = Config.default) ?cache:_ ?digests:_ ?absint (_ : prepared)
    (shm : Shm.t) (p1 : Phase1.t) (pts : Pointsto.t) : Phase3.result =
  Vfgraph.run ~config ?absint shm p1 pts

(* -- One-shot analysis ------------------------------------------------------------ *)

type detail = {
  prepared : prepared;
  shm : Shm.t;
  phase1 : Phase1.t;
  phase2 : Phase2.result;
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

(* Every stage once, in order, with no cache but the absint entry. *)
let stages ~config ?cache ?absint_key ?file src : detail =
  let p = prepare_source ?file src in
  let shm = Telemetry.span "shm" (fun () -> stage_shm p) in
  let p1 = Telemetry.span "phase1" (fun () -> stage_phase1 ~config p shm) in
  let absint = stage_absint ~config ?cache ?key:absint_key p in
  let ph2 = Telemetry.span "phase2" (fun () -> stage_phase2 ~config ?absint p p1) in
  let pts = Telemetry.span "pointsto" (fun () -> stage_pointsto p) in
  let ph3 = Telemetry.span "phase3" (fun () -> stage_phase3 ~config ?absint p shm p1 pts) in
  { prepared = p; shm; phase1 = p1; phase2 = ph2; pointsto = pts; phase3 = ph3; absint }

(* The "analysis" entry: what [analyze] prints and what audit, hotspots,
   baselines, SARIF and the fleet read.  The report keeps every phase-2
   info: [verbose] is not part of the key, so infos are dropped after
   the lookup. *)
type entry = Report.t * Coverage.t * Ledger.entry list * Fingerprint.ctx

let summarize (d : detail) : entry =
  let p = d.prepared and ph2 = d.phase2 and ph3 = d.phase3 in
  let fctx = Fingerprint.ctx_of_program p.ir in
  let report =
    Telemetry.span "canonicalize" @@ fun () ->
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

(* One input's analysis.  Everything here is unsynchronised, so a
   second domain is refused.  After a cache hit, [detail] reruns every
   stage on demand under the same origin, with the cache's absint
   entry. *)
let analyze ?(config = Config.default) ?cache ?file (src : string) : analysis =
  if not (Domain.is_main_domain ()) then
    invalid_arg "Driver.analyze: called off the main domain (use forked workers)";
  let (report, coverage, ledger, fingerprints), detail =
    Telemetry.span "analyze"
      ~args:[ ("file", Option.value file ~default:"<input>") ]
      (fun () ->
    with_default_origin (Option.value file ~default:"<input>") (fun () ->
    match cache with
    | None ->
      let d = stages ~config ?file src in
      (summarize d, Lazy.from_val d)
    | Some c -> (
      let source_key = Digest_ir.source_key ?file src in
      let absint_key = Digest_ir.combine [ "absint"; source_key ] in
      let key = Digest_ir.combine [ source_key; Digest_ir.semantic_config config ] in
      match (Cache.find c ~ns:"analysis" ~key : entry option) with
      | Some e ->
        let origin = Cache.current_origin () in
        ( e,
          lazy
            (Cache.with_origin origin (fun () ->
                 stages ~config ~cache:c ~absint_key ?file src)) )
      | None ->
        let d = stages ~config ~cache:c ~absint_key ?file src in
        let e = summarize d in
        Cache.store c ~ns:"analysis" ~key e;
        (e, Lazy.from_val d))))
  in
  let report = if config.Config.verbose then report else { report with Report.infos = [] } in
  { report; coverage; ledger; fingerprints; detail }

let analyze_file ?config ?cache path : analysis =
  analyze ?config ?cache ~file:path (Loc.read_source path)
