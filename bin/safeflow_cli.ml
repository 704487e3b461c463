(* SafeFlow command-line interface.

   Usage:
     safeflow analyze file.c [file2.c ...]
                             [--no-control-deps] [--ctx-insensitive]
                             [--field-insensitive] [--vfg out.dot]
                             [--stats] [--trace out.json] [--stats-json out.json]
                             [--sarif out.sarif] [--save-findings out.findings]
                             [--baseline FILE] [--fail-on never|error|warning]
     safeflow fleet DIR | --manifest FILE
                             [--jobs N] [--shard-domains N] [--cache DIR]
                             [--absint on|off] [--print-reports]
                             [--save-findings OUT] [--baseline FILE] [--fail-on ...]
     safeflow diff OLD NEW       (findings files or MiniC sources)
     safeflow explain file.c
     safeflow audit file.c       [--audit-json out.json] [--failed-only]
     safeflow hotspots PATH | --manifest FILE
                             [--top N] [--regions] [--json] [--jobs N] [--cache DIR]
     safeflow initcheck file.c
     safeflow dump-ir file.c
     safeflow synth N
     safeflow version

   Exit codes (analyze and diff): 0 clean, 1 error-level findings,
   2 warning-level findings only, 3 frontend (parse/type) failure.
   With --baseline, only findings NEW relative to the baseline gate.
   Every command exits 4 when it cannot write an output file. *)

open Cmdliner

let tool_version = Safeflow.Version.tool

(* Every file the CLI writes goes through [write_output]: when [write path]
   fails (a missing or unwritable directory, a full disk) the run names
   the path and the reason on stderr and exits 4. *)
let write_output path write =
  let fail reason =
    Fmt.epr "cannot write %s: %s@." path reason;
    exit 4
  in
  try write path with
  | Sys_error msg ->
    let prefix = path ^ ": " in
    fail
      (if String.starts_with ~prefix msg then
         String.sub msg (String.length prefix) (String.length msg - String.length prefix)
       else msg)
  | Unix.Unix_error (e, _, arg) ->
    let reason = Unix.error_message e in
    fail (if arg = "" || arg = path then reason else arg ^ ": " ^ reason)

let config_of ~control_deps ~context_sensitive ~field_sensitive =
  { Safeflow.Config.default with control_deps; context_sensitive; field_sensitive }

(* Shared telemetry plumbing: any observability output requested turns
   the subsystem on for the run and writes the artifacts afterwards.
   Telemetry never feeds back into reports, so analysis output is
   identical with and without these flags. *)
let telemetry_flags =
  let stats =
    Arg.(value & flag & info [ "stats" ] ~doc:"print the phase-span tree and counter table to stderr after the run")
  in
  let trace =
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"OUT.json" ~doc:"write a Chrome trace-event JSON of all phase spans (open in chrome://tracing or Perfetto)")
  in
  let stats_json =
    Arg.(value & opt (some string) None & info [ "stats-json" ] ~docv:"OUT.json" ~doc:"write a machine-readable counter/span snapshot")
  in
  Term.(const (fun stats trace stats_json -> (stats, trace, stats_json)) $ stats $ trace $ stats_json)

let telemetry_setup (stats, trace, stats_json) =
  if stats || trace <> None || stats_json <> None then Safeflow.Telemetry.set_enabled true

let telemetry_finish (stats, trace, stats_json) =
  Option.iter (fun p -> write_output p Safeflow.Telemetry.write_chrome_trace) trace;
  Option.iter (fun p -> write_output p Safeflow.Telemetry.write_stats_json) stats_json;
  if stats then Fmt.epr "%a@." Safeflow.Telemetry.pp_stats ()

let absint_conv = Arg.enum [ ("on", true); ("off", false) ]

let absint_arg =
  Arg.(
    value
    & opt absint_conv Safeflow.Config.default.Safeflow.Config.absint
    & info [ "absint" ] ~docv:"on|off"
        ~doc:
          "interprocedural value-range analysis (default $(b,on)): discharges A1/A2 \
           bounds obligations without Omega queries and drops control dependence of \
           branches whose direction the ranges decide.  Precision-only: $(b,off) \
           reproduces the pre-range reports byte-identically, $(b,on) reports a \
           fingerprint-subset of them.")

let fail_on_conv = Arg.enum [ ("never", `Never); ("error", `Error); ("warning", `Warning) ]

let fail_on_arg =
  Arg.(
    value
    & opt fail_on_conv `Warning
    & info [ "fail-on" ] ~docv:"LEVEL"
        ~doc:
          "findings that make the exit code non-zero: $(b,never) always exits 0, \
           $(b,error) exits 1 on error-level findings (critical dependencies and \
           restriction violations), $(b,warning) (default) additionally exits 2 when \
           only warning-level findings are present.  With $(b,--baseline), only \
           findings new relative to the baseline gate.")

let analyze_cmd =
  let files =
    Arg.(
      non_empty & pos_all file []
      & info [] ~docv:"FILE" ~doc:"MiniC source files (several are analyzed in parallel)")
  in
  let no_control = Arg.(value & flag & info [ "no-control-deps" ] ~doc:"disable control-dependence reporting") in
  let ctx_insensitive = Arg.(value & flag & info [ "ctx-insensitive" ] ~doc:"merge monitoring contexts (ablation)") in
  let field_insensitive = Arg.(value & flag & info [ "field-insensitive" ] ~doc:"ignore byte offsets in regions (ablation)") in
  let vfg = Arg.(value & opt (some string) None & info [ "vfg" ] ~docv:"OUT.dot" ~doc:"write the value-flow graph as DOT (single file only)") in
  let use_summary = Arg.(value & flag & info [ "summary" ] ~doc:"use the ESP-style summary engine (single bottom-up pass; data dependencies only)") in
  let cache_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "cache" ] ~docv:"DIR"
          ~doc:
            "content-addressed analysis cache directory (created if missing); a rerun of \
             an unchanged source under the same options reads its result and runs no \
             analysis, an edit reuses the value-range summaries of unaffected functions.  \
             Stale or corrupt entries are discarded and recomputed (counted in --stats, \
             reported per file with --verbose); reports are identical with and without \
             the cache")
  in
  let verbose =
    Arg.(
      value & flag
      & info [ "verbose" ]
          ~doc:
            "one-line stderr diagnostics for otherwise-silent recoveries (stale or \
             corrupt cache entries); never changes reports")
  in
  let sarif =
    Arg.(
      value
      & opt (some string) None
      & info [ "sarif" ] ~docv:"OUT.sarif"
          ~doc:
            "write all findings as SARIF 2.1.0 (rule metadata for every diagnostic \
             code, witness paths as codeFlows, stable partialFingerprints)")
  in
  let save_findings =
    Arg.(
      value
      & opt (some string) None
      & info [ "save-findings" ] ~docv:"OUT"
          ~doc:
            "write the findings as a fingerprinted baseline file (format \
             safeflow-findings/1) for later $(b,--baseline) or $(b,safeflow diff) runs")
  in
  let baseline =
    Arg.(
      value
      & opt (some file) None
      & info [ "baseline" ] ~docv:"FILE"
          ~doc:
            "suppression baseline (a $(b,--save-findings) file): findings are \
             classified new/fixed/unchanged by fingerprint, the delta is printed, and \
             only new findings drive the exit code")
  in
  let emit_certs =
    Arg.(
      value
      & opt (some string) None
      & info [ "emit-certs" ] ~docv:"DIR"
          ~doc:
            "write a machine-checkable certificate bundle (format safeflow-cert/1): one \
             certificate per finding and per discharged P1-P3/A1/A2 obligation, the \
             value-range fixpoint snapshot, and a manifest binding everything to the \
             program fingerprint by content digest.  With several inputs each file gets \
             a $(docv)/<basename> sub-bundle.  Validate with $(b,safeflow check-cert); \
             reports are byte-identical with and without this option")
  in
  let run files no_control ctx_insensitive field_insensitive vfg use_summary absint cache_dir verbose sarif save_findings baseline emit_certs
      fail_on tele =
    try
      telemetry_setup tele;
      let config =
        {
          (config_of ~control_deps:(not no_control)
             ~context_sensitive:(not ctx_insensitive)
             ~field_sensitive:(not field_insensitive))
          with
          Safeflow.Config.verbose = verbose;
          absint;
        }
      in
      let cache =
        Option.map (fun dir -> Safeflow.Cache.create ~dir ~verbose ()) cache_dir
      in
      (* one row per input: report + fingerprint context (+ coverage,
         except under the summary engine, which has no pair universe or
         obligation ledger) *)
      if use_summary && emit_certs <> None then begin
        Fmt.epr "--emit-certs is not supported with --summary@.";
        exit 2
      end;
      let rows, ledgers =
        if use_summary then
          ( List.map
              (fun file ->
                let r, _ = Safeflow.Driver.analyze_summary ~config ~file (Minic.Loc.read_source file) in
                Fmt.pr "%a@." Safeflow.Report.pp r;
                (file, r, Safeflow.Fingerprint.ctx_empty, None))
              files,
            [] )
        else begin
          let analyses = Safeflow.Driver.analyze_files_par ~config ?cache files in
          List.iter2
            (fun file (a : Safeflow.Driver.analysis) ->
              if List.length files > 1 then Fmt.pr "== %s ==@." file;
              Fmt.pr "%a@." Safeflow.Report.pp a.Safeflow.Driver.report)
            files analyses;
          (match (vfg, analyses) with
          | Some path, [ a ] ->
            write_output path (fun p ->
                Safeflow.Vfg.write_dot p (Lazy.force a.Safeflow.Driver.detail).Safeflow.Driver.phase3);
            Fmt.pr "value-flow graph written to %s@." path
          | Some _, _ -> Fmt.epr "--vfg ignored: more than one input file@."
          | None, _ -> ());
          (match emit_certs with
          | Some dir ->
            let multi = List.length files > 1 in
            List.iter2
              (fun file (a : Safeflow.Driver.analysis) ->
                let bdir =
                  if multi then
                    Filename.concat dir
                      (Filename.remove_extension (Filename.basename file))
                  else dir
                in
                match
                  write_output bdir (fun dir ->
                      Safeflow.Cert.emit_bundle ~config ~label:file ~dir a)
                with
                | Ok s ->
                  Fmt.pr "certificates: %d written to %s%s@."
                    s.Safeflow.Cert.cs_written bdir
                    (match s.Safeflow.Cert.cs_skipped with
                    | [] -> ""
                    | sk -> Fmt.str " (%d skipped)" (List.length sk))
                | Error e ->
                  Fmt.epr "certificate emission failed for %s: %s@." file e;
                  exit 3)
              files analyses
          | None -> ());
          ( List.map2
              (fun file (a : Safeflow.Driver.analysis) ->
                ( file,
                  a.Safeflow.Driver.report,
                  a.Safeflow.Driver.fingerprints,
                  Some a.Safeflow.Driver.coverage ))
              files analyses,
            List.map2
              (fun file (a : Safeflow.Driver.analysis) ->
                (file, a.Safeflow.Driver.ledger))
              files analyses )
        end
      in
      (match sarif with
      | Some path ->
        write_output path (fun p ->
            Safeflow.Sarif.write ~tool_version p
              (List.map
                 (fun (file, r, ctx, _) ->
                   { Safeflow.Sarif.i_file = file; i_report = r; i_ctx = ctx })
                 rows));
        Fmt.pr "SARIF written to %s@." path
      | None -> ());
      let entries =
        List.concat_map
          (fun (file, r, ctx, _) -> Safeflow.Diffreport.entries_of_report ctx ~file r)
          rows
      in
      (match save_findings with
      | Some path ->
        write_output path (fun p -> Safeflow.Diffreport.save p entries);
        Fmt.pr "findings written to %s@." path
      | None -> ());
      let stats_flag, _, stats_json = tele in
      List.iter
        (fun (file, _, _, cov) ->
          match cov with
          | Some cov ->
            if stats_flag then Fmt.epr "== %s ==@.%a@." file Safeflow.Coverage.pp cov;
            if stats_json <> None then
              Safeflow.Telemetry.set_section ("coverage:" ^ file)
                (Safeflow.Coverage.to_json cov)
          | None -> ())
        rows;
      if stats_json <> None then
        List.iter
          (fun (file, ledger) ->
            Safeflow.Telemetry.set_section ("ledger:" ^ file)
              (Safeflow.Ledger.summary_json ledger))
          ledgers;
      telemetry_finish tele;
      let gated =
        match baseline with
        | Some bl ->
          let d =
            Safeflow.Diffreport.diff ~baseline:(Safeflow.Diffreport.load bl)
              ~current:entries
          in
          Fmt.pr "%a@." Safeflow.Diffreport.pp_diff d;
          d.Safeflow.Diffreport.d_new
        | None -> entries
      in
      exit (Safeflow.Diffreport.gate ~fail_on gated)
    with Minic.Loc.Error (loc, msg) ->
      Fmt.epr "%a: %s@." Minic.Loc.pp loc msg;
      exit 3
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "run the full SafeFlow analysis on core components.  Exits 0 when clean, 1 on \
          error-level findings, 2 on warning-level findings only (see $(b,--fail-on)), \
          3 on frontend failure, 4 when an output file cannot be written.")
    Term.(const run $ files $ no_control $ ctx_insensitive $ field_insensitive $ vfg
          $ use_summary $ absint_arg $ cache_dir $ verbose $ sarif
          $ save_findings $ baseline $ emit_certs $ fail_on_arg $ telemetry_flags)

let explain_cmd =
  let file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"MiniC source file")
  in
  let no_control = Arg.(value & flag & info [ "no-control-deps" ] ~doc:"disable control-dependence reporting") in
  let ctx_insensitive = Arg.(value & flag & info [ "ctx-insensitive" ] ~doc:"merge monitoring contexts (ablation)") in
  let field_insensitive = Arg.(value & flag & info [ "field-insensitive" ] ~doc:"ignore byte offsets in regions (ablation)") in
  let cache_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "cache" ] ~docv:"DIR" ~doc:"content-addressed analysis cache directory")
  in
  let json_flag =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "machine-readable output (one JSON document, schema safeflow-explain/1): \
             every finding with its stable fingerprint id, dependencies carrying their \
             full witness path in the certificate step encoding (hash-chained links)")
  in
  let run file no_control ctx_insensitive field_insensitive absint cache_dir json =
    try
      let config =
        {
          (config_of ~control_deps:(not no_control)
             ~context_sensitive:(not ctx_insensitive)
             ~field_sensitive:(not field_insensitive))
          with
          Safeflow.Config.absint = absint;
        }
      in
      let cache = Option.map (fun dir -> Safeflow.Cache.create ~dir ()) cache_dir in
      let a = Safeflow.Driver.analyze_file ~config ?cache file in
      if json then
        print_string
          (Safeflow.Jsonlite.emit (Safeflow.Cert.explain_json ~label:file a) ^ "\n")
      else Fmt.pr "%a@." Safeflow.Report.pp_explain a.Safeflow.Driver.report
    with Minic.Loc.Error (loc, msg) ->
      Fmt.epr "%a: %s@." Minic.Loc.pp loc msg;
      exit 3
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "show the value-flow witness behind every reported dependency: read sites with \
          their monitoring context, then each dependency's step-by-step path from \
          non-core source to critical sink.  Exits 0 regardless of findings (a review \
          aid, not a gate).")
    Term.(const run $ file $ no_control $ ctx_insensitive $ field_insensitive
          $ absint_arg $ cache_dir $ json_flag)

(* -- check-cert: independently validate a certificate bundle ------------------- *)

let check_cert_cmd =
  let bundle =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"BUNDLE"
          ~doc:
            "certificate bundle directory (with several FILEs: the root holding one \
             $(docv)/<basename> sub-bundle per file, the layout $(b,analyze \
             --emit-certs) produces)")
  in
  let files =
    Arg.(
      non_empty & pos_right 0 file []
      & info [] ~docv:"FILE" ~doc:"MiniC source files the bundle(s) were emitted for")
  in
  let allow_skipped =
    Arg.(
      value & flag
      & info [ "allow-skipped" ]
          ~doc:
            "exit 0 even when the manifest lists skipped obligations (certificates the \
             emitter could not produce); by default skipped entries fail the check")
  in
  let source_label =
    Arg.(
      value
      & opt (some string) None
      & info [ "source-label" ] ~docv:"LABEL"
          ~doc:
            "parse each FILE under $(docv) instead of its path before checking.  \
             Needed for bundles a $(b,fleet --emit-certs) run produced: fleet members \
             are analyzed under a normalized label (default $(b,<system>)), so their \
             certificate digests bind to the label-based IR, not the real path.")
  in
  let run bundle files allow_skipped source_label =
    let multi = List.length files > 1 in
    let failed = ref false in
    List.iter
      (fun file ->
        let bdir =
          if multi then
            Filename.concat bundle (Filename.remove_extension (Filename.basename file))
          else bundle
        in
        try
          let prep =
            match source_label with
            | None -> Safeflow.Driver.prepare_file file
            | Some label ->
              Safeflow.Driver.prepare_source ~file:label (Minic.Loc.read_source file)
          in
          let ir = prep.Safeflow.Driver.ir in
          let shm = Safeflow.Driver.stage_shm prep in
          let regions =
            List.map
              (fun (r : Safeflow.Shm.region) ->
                (r.Safeflow.Shm.r_name, r.Safeflow.Shm.r_size))
              shm.Safeflow.Shm.regions
          in
          let d = Safeflow.Digest_ir.of_program ir in
          let expect =
            [
              ("program", d.Safeflow.Digest_ir.program);
              ("env", d.Safeflow.Digest_ir.env);
            ]
          in
          let o =
            Checker.validate_bundle ~ir ~regions ~expect
              ~check_finding:(Safeflow.Cert.check_finding_binding ir)
              bdir
          in
          List.iter
            (fun (f : Checker.failure) ->
              Fmt.pr "%s: FAIL %s: %s@." file f.Checker.ce_id f.Checker.ce_msg)
            o.Checker.failures;
          Fmt.pr "%s: %d certificate%s verified, %d failed, %d skipped@." file
            o.Checker.passed
            (if o.Checker.passed = 1 then "" else "s")
            (List.length o.Checker.failures)
            o.Checker.skipped;
          if
            o.Checker.failures <> []
            || (o.Checker.skipped > 0 && not allow_skipped)
          then failed := true
        with Minic.Loc.Error (loc, msg) ->
          Fmt.epr "%a: %s@." Minic.Loc.pp loc msg;
          failed := true)
      files;
    exit (if !failed then 1 else 0)
  in
  Cmd.v
    (Cmd.info "check-cert"
       ~doc:
         "independently validate a certificate bundle against freshly parsed sources: \
          witness hash chains, the recorded value-range fixpoint (checked as a \
          post-fixpoint in one pass), constant-index arithmetic, range discharges and \
          Omega unsat-core substitutions are all re-verified with local checks only — \
          no phase 3, no worklist engine, no solver search.  Exits 0 when every \
          certificate verifies, 1 otherwise.")
    Term.(const run $ bundle $ files $ allow_skipped $ source_label)

(* -- audit: render the phase-2 obligation ledger -------------------------------- *)

let audit_schema = "safeflow-audit/1"

let audit_cmd =
  let file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"MiniC source file")
  in
  let audit_json =
    Arg.(
      value
      & opt (some string) None
      & info [ "audit-json" ] ~docv:"OUT.json"
          ~doc:
            "write the full ledger as machine-readable JSON (schema \
             $(b,safeflow-audit/1)): per-entry discharge facts, the per-discharge \
             summary, and the phase-2 bounds counters the ledger must reconcile with")
  in
  let failed_only =
    Arg.(
      value & flag
      & info [ "failed-only" ]
          ~doc:"show only obligations that produced a violation (with their witness)")
  in
  let cache_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "cache" ] ~docv:"DIR"
          ~doc:
            "content-addressed analysis cache directory; the ledger rides the cached \
             analysis, so a warm audit reconciles exactly like a cold one")
  in
  let pp_entry ppf (e : Safeflow.Ledger.entry) =
    Fmt.pf ppf "%-7s %-24s %-12s %-12s" e.Safeflow.Ledger.l_rule
      (Fmt.str "%a" Minic.Loc.pp e.Safeflow.Ledger.l_loc)
      (if String.equal e.Safeflow.Ledger.l_region "" then "-"
       else e.Safeflow.Ledger.l_region)
      (Safeflow.Ledger.discharge_name e.Safeflow.Ledger.l_discharge);
    (match e.Safeflow.Ledger.l_itv with
    | Some (lo, hi) -> Fmt.pf ppf " itv=[%d,%d]" lo hi
    | None -> ());
    if e.Safeflow.Ledger.l_bound >= 0 then Fmt.pf ppf " bound=%d" e.Safeflow.Ledger.l_bound;
    if e.Safeflow.Ledger.l_queries > 0 then
      Fmt.pf ppf " queries=%d" e.Safeflow.Ledger.l_queries;
    if e.Safeflow.Ledger.l_avoided > 0 then
      Fmt.pf ppf " avoided=%d" e.Safeflow.Ledger.l_avoided;
    if e.Safeflow.Ledger.l_cstrs > 0 then Fmt.pf ppf " cstrs=%d" e.Safeflow.Ledger.l_cstrs;
    if e.Safeflow.Ledger.l_hyps > 0 then Fmt.pf ppf " hyps=%d" e.Safeflow.Ledger.l_hyps;
    if e.Safeflow.Ledger.l_ns > 0 then
      Fmt.pf ppf " %.3fms" (float_of_int e.Safeflow.Ledger.l_ns /. 1e6)
  in
  let run file audit_json failed_only absint cache_dir =
    try
      let config = { Safeflow.Config.default with absint } in
      let cache = Option.map (fun dir -> Safeflow.Cache.create ~dir ()) cache_dir in
      let a = Safeflow.Driver.analyze_file ~config ?cache file in
      let ledger = Safeflow.Ledger.sort a.Safeflow.Driver.ledger in
      let shown =
        if failed_only then
          List.filter
            (fun (e : Safeflow.Ledger.entry) ->
              e.Safeflow.Ledger.l_discharge = Safeflow.Ledger.Failed)
            ledger
        else ledger
      in
      (* one group per function, entries in stable ledger order; failed
         obligations drill down into the violation they produced *)
      let by_func = Hashtbl.create 16 in
      let order = ref [] in
      List.iter
        (fun (e : Safeflow.Ledger.entry) ->
          let f = e.Safeflow.Ledger.l_func in
          if not (Hashtbl.mem by_func f) then begin
            Hashtbl.replace by_func f [];
            order := f :: !order
          end;
          Hashtbl.replace by_func f (e :: Hashtbl.find by_func f))
        shown;
      Fmt.pr "== %s ==@." file;
      List.iter
        (fun f ->
          Fmt.pr "function %s@." f;
          List.iter
            (fun (e : Safeflow.Ledger.entry) ->
              Fmt.pr "  %a@." pp_entry e;
              if e.Safeflow.Ledger.l_discharge = Safeflow.Ledger.Failed then
                List.iter
                  (fun (v : Safeflow.Report.violation) ->
                    if
                      String.equal v.Safeflow.Report.v_func e.Safeflow.Ledger.l_func
                      && v.Safeflow.Report.v_loc = e.Safeflow.Ledger.l_loc
                    then
                      Fmt.pr "      -> %a: %s@." Safeflow.Report.pp_restriction
                        v.Safeflow.Report.v_rule v.Safeflow.Report.v_msg)
                  a.Safeflow.Driver.report.Safeflow.Report.violations)
            (List.rev (Hashtbl.find by_func f)))
        (List.rev !order);
      let r = Safeflow.Ledger.reconcile ledger in
      let b = a.Safeflow.Driver.coverage.Safeflow.Coverage.cov_bounds in
      Fmt.pr
        "ledger: %d entries; bounds obligations %d = %d ranges + %d omega + %d failed; \
         %d queries issued, %d avoided@."
        (List.length ledger) r.Safeflow.Ledger.r_total r.Safeflow.Ledger.r_ranges
        r.Safeflow.Ledger.r_omega r.Safeflow.Ledger.r_failed r.Safeflow.Ledger.r_queries
        r.Safeflow.Ledger.r_avoided;
      if
        r.Safeflow.Ledger.r_total <> b.Safeflow.Phase2.bs_total
        || r.Safeflow.Ledger.r_ranges <> b.Safeflow.Phase2.bs_ranges
        || r.Safeflow.Ledger.r_omega <> b.Safeflow.Phase2.bs_omega
        || r.Safeflow.Ledger.r_failed <> b.Safeflow.Phase2.bs_failed
      then begin
        Fmt.epr
          "RECONCILIATION FAILURE: phase-2 summary says %d = %d ranges + %d omega + %d \
           failed@."
          b.Safeflow.Phase2.bs_total b.Safeflow.Phase2.bs_ranges
          b.Safeflow.Phase2.bs_omega b.Safeflow.Phase2.bs_failed;
        exit 1
      end;
      match audit_json with
      | None -> ()
      | Some path ->
        write_output path @@ fun path ->
        let oc = open_out path in
        Printf.fprintf oc
          "{\"schema\":\"%s\",\"tool_version\":\"%s\",\"file\":\"%s\",\"summary\":%s,\"phase2_bounds\":{\"total\":%d,\"ranges\":%d,\"omega\":%d,\"failed\":%d,\"avoided\":%d},\"entries\":%s}\n"
          audit_schema tool_version
          (Safeflow.Jsonlite.escape file)
          (Safeflow.Ledger.summary_json ledger)
          b.Safeflow.Phase2.bs_total b.Safeflow.Phase2.bs_ranges
          b.Safeflow.Phase2.bs_omega b.Safeflow.Phase2.bs_failed
          b.Safeflow.Phase2.bs_omega_avoided
          (Safeflow.Ledger.entries_json ledger);
        close_out oc;
        Fmt.pr "audit JSON written to %s@." path
    with Minic.Loc.Error (loc, msg) ->
      Fmt.epr "%a: %s@." Minic.Loc.pp loc msg;
      exit 3
  in
  Cmd.v
    (Cmd.info "audit"
       ~doc:
         "render the per-obligation ledger: every A1/A2 bounds obligation and P1-P3 \
          restriction-check site with the prover that discharged it (value ranges, \
          Omega, range-hypothesis-assisted Omega), the facts used (interval bounds, \
          constraint counts) and the time spent.  The ledger totals are verified \
          against the phase-2 discharge summary; a mismatch exits 1.  Exits 0 \
          otherwise regardless of findings (a review aid, not a gate).")
    Term.(const run $ file $ audit_json $ failed_only $ absint_arg $ cache_dir)

(* -- hotspots: rank functions/regions by ledger cost ----------------------------- *)

let hotspots_schema = "safeflow-hotspots/1"

let hotspots_cmd =
  let path =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"PATH"
          ~doc:"a MiniC source file, or a directory whose $(b,*.c) files are the member systems")
  in
  let manifest =
    Arg.(
      value
      & opt (some file) None
      & info [ "manifest" ] ~docv:"FILE"
          ~doc:"member list, one path per line; alternative to the positional $(i,PATH)")
  in
  let jobs =
    Arg.(
      value & opt int 1
      & info [ "jobs" ] ~docv:"N" ~doc:"worker processes, as for $(b,fleet)")
  in
  let cache_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "cache" ] ~docv:"DIR" ~doc:"shared content-addressed cache directory")
  in
  let top =
    Arg.(
      value & opt int 10
      & info [ "top" ] ~docv:"N" ~doc:"rows per table (0 = all); default 10")
  in
  let regions =
    Arg.(
      value & flag
      & info [ "regions" ] ~doc:"also rank shared-memory regions, not just functions")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "print machine-readable JSON (schema $(b,safeflow-hotspots/1)) instead of \
             tables")
  in
  let run path manifest jobs cache_dir absint top regions json =
    try
      let members =
        match (path, manifest) with
        | Some p, None ->
          if Sys.is_directory p then Safeflow.Fleet.members_of_dir p else [ p ]
        | None, Some m -> Safeflow.Fleet.members_of_manifest m
        | Some _, Some _ ->
          Fmt.epr "give either a PATH or --manifest, not both@.";
          exit 2
        | None, None ->
          Fmt.epr "give a MiniC file, a DIR of member systems, or --manifest FILE@.";
          exit 2
      in
      if members = [] then begin
        Fmt.epr "no member systems found@.";
        exit 2
      end;
      (* histograms (Omega query / absint summary latency) want telemetry
         on; it never changes reports or the ledger *)
      Safeflow.Telemetry.set_enabled true;
      let config = { Safeflow.Config.default with absint } in
      let r = Safeflow.Fleet.run ~config ?cache_dir ~jobs members in
      let pairs =
        List.map
          (fun (m : Safeflow.Fleet.member_result) ->
            ( (if List.length members = 1 then "" else m.Safeflow.Fleet.mr_path),
              m.Safeflow.Fleet.mr_ledger ))
          r.Safeflow.Fleet.f_results
      in
      let funcs = Safeflow.Hotspots.rank ~top pairs in
      let regs = Safeflow.Hotspots.rank_regions ~top pairs in
      if json then
        Fmt.pr "{\"schema\":\"%s\",\"functions\":%s,\"regions\":%s}@." hotspots_schema
          (Safeflow.Hotspots.rows_json funcs)
          (Safeflow.Hotspots.rows_json regs)
      else begin
        Fmt.pr "hot functions (analysis time x obligations x failure rate):@.%a@."
          Safeflow.Hotspots.pp_rows funcs;
        if regions then
          Fmt.pr "hot regions:@.%a@." Safeflow.Hotspots.pp_rows regs;
        (* solver/absint latency footer from the run's histograms *)
        List.iter
          (fun (hv : Safeflow.Telemetry.hist_view) ->
            if
              hv.Safeflow.Telemetry.hv_count > 0
              && List.mem hv.Safeflow.Telemetry.hv_name
                   [ "omega.query"; "absint.summary"; "pair.build"; "cache.disk_read" ]
            then
              Fmt.pr "%-16s %8d x  p50/p90/p99 %8.1f/%8.1f/%8.1f us@."
                hv.Safeflow.Telemetry.hv_name hv.Safeflow.Telemetry.hv_count
                (float_of_int hv.Safeflow.Telemetry.hv_p50_ns /. 1e3)
                (float_of_int hv.Safeflow.Telemetry.hv_p90_ns /. 1e3)
                (float_of_int hv.Safeflow.Telemetry.hv_p99_ns /. 1e3))
          (Safeflow.Telemetry.histograms ())
      end
    with
    | Minic.Loc.Error (loc, msg) ->
      Fmt.epr "%a: %s@." Minic.Loc.pp loc msg;
      exit 3
    | Failure msg ->
      Fmt.epr "%s@." msg;
      exit 3
  in
  Cmd.v
    (Cmd.info "hotspots"
       ~doc:
         "rank functions (and with $(b,--regions), shared-memory regions) by where the \
          analysis budget goes: phase-2 time x obligation count x failure rate, \
          attributed from the obligation ledger.  Works on one file or fleet-wide, \
          where every member's ledger arrives over the worker result channel.  A \
          latency footer shows Omega-query and absint-summary percentiles.  Exits 0 \
          regardless of findings (a review aid, not a gate).")
    Term.(const run $ path $ manifest $ jobs $ cache_dir $ absint_arg $ top
          $ regions $ json)

let ranges_cmd =
  let file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"MiniC source file")
  in
  let fname =
    Arg.(
      value
      & opt (some string) None
      & info [ "function" ] ~docv:"NAME" ~doc:"print only this function's summary")
  in
  let run file fname =
    try
      let p = Safeflow.Driver.prepare_file file in
      match Safeflow.Driver.stage_absint p with
      | None ->
        Fmt.epr "value-range analysis is disabled@.";
        exit 1
      | Some ai ->
        List.iter
          (fun (f : Ssair.Ir.func) ->
            match fname with
            | Some n when not (String.equal n f.Ssair.Ir.fname) -> ()
            | _ -> Fmt.pr "%a@." (Absint.pp_func_summary ai) f)
          p.Safeflow.Driver.ir.Ssair.Ir.funcs
    with Minic.Loc.Error (loc, msg) ->
      Fmt.epr "%a: %s@." Minic.Loc.pp loc msg;
      exit 3
  in
  Cmd.v
    (Cmd.info "ranges"
       ~doc:
         "print the interprocedural value-range summaries the analysis computes: the \
          interval of every SSA value and parameter, the return range, and the branches \
          whose direction the ranges decide (the ones pruned from control dependence).  \
          A review aid for $(b,I-RANGE-PROVED) notes and disappearing \
          $(b,C-CONTROL-DEP) findings.")
    Term.(const run $ file $ fname)

let initcheck_cmd =
  let file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"MiniC source file")
  in
  let run file =
    try
      let d = Lazy.force (Safeflow.Driver.analyze_file file).Safeflow.Driver.detail in
      let layout =
        Safeflow.Shm.run_init_check d.Safeflow.Driver.prepared.Safeflow.Driver.ir
          d.Safeflow.Driver.shm
      in
      Fmt.pr "InitCheck passed; shared-memory layout:@.";
      List.iter (fun (n, off, sz) -> Fmt.pr "  %-16s offset %5d size %5d@." n off sz) layout
    with
    | Safeflow.Shm.Init_check_failed msg ->
      Fmt.epr "InitCheck FAILED: %s@." msg;
      exit 1
    | Minic.Loc.Error (loc, msg) ->
      Fmt.epr "%a: %s@." Minic.Loc.pp loc msg;
      exit 3
  in
  Cmd.v
    (Cmd.info "initcheck"
       ~doc:"execute the initializing function and verify the region layout")
    Term.(const run $ file)

let dump_ir_cmd =
  let file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"MiniC source file")
  in
  let optimize =
    Arg.(value & flag & info [ "opt" ] ~doc:"run the optimizer before printing")
  in
  let run file optimize =
    try
      let p = Safeflow.Driver.prepare_file file in
      if optimize then begin
        let n = Ssair.Opt.run p.Safeflow.Driver.ir in
        Fmt.epr "; %d rewrites@." n
      end;
      Fmt.pr "%a@." Ssair.Ir.pp_program p.Safeflow.Driver.ir
    with Minic.Loc.Error (loc, msg) ->
      Fmt.epr "%a: %s@." Minic.Loc.pp loc msg;
      exit 3
  in
  Cmd.v (Cmd.info "dump-ir" ~doc:"print the SSA IR of a source file")
    Term.(const run $ file $ optimize)

let diff_cmd =
  let old_arg =
    Arg.(
      required & pos 0 (some file) None
      & info [] ~docv:"OLD" ~doc:"baseline: a findings file or a MiniC source")
  in
  let new_arg =
    Arg.(
      required & pos 1 (some file) None
      & info [] ~docv:"NEW" ~doc:"current: a findings file or a MiniC source")
  in
  (* Sources are analyzed on the spot; findings files (--save-findings
     output) are loaded as-is, so either side can be a checked-in
     baseline. *)
  let entries_of ~config file =
    let content = Minic.Loc.read_source file in
    if Safeflow.Diffreport.looks_like_findings content then
      Safeflow.Diffreport.parse content
    else begin
      let a = Safeflow.Driver.analyze ~config ~file content in
      Safeflow.Diffreport.entries_of_report a.Safeflow.Driver.fingerprints ~file
        a.Safeflow.Driver.report
    end
  in
  let run old_file new_file fail_on =
    try
      let config = Safeflow.Config.default in
      let baseline = entries_of ~config old_file in
      let current = entries_of ~config new_file in
      let d = Safeflow.Diffreport.diff ~baseline ~current in
      Fmt.pr "%a@." Safeflow.Diffreport.pp_diff d;
      exit (Safeflow.Diffreport.gate ~fail_on d.Safeflow.Diffreport.d_new)
    with Minic.Loc.Error (loc, msg) ->
      Fmt.epr "%a: %s@." Minic.Loc.pp loc msg;
      exit 3
  in
  Cmd.v
    (Cmd.info "diff"
       ~doc:
         "classify findings between two runs as new/fixed/unchanged by stable \
          fingerprint.  Each argument is either a findings file ($(b,--save-findings) \
          output) or a MiniC source, which is analyzed on the spot.  Exits 0 when no \
          new findings, otherwise per $(b,--fail-on) applied to the new findings only.")
    Term.(const run $ old_arg $ new_arg $ fail_on_arg)

let fleet_cmd =
  let dir =
    Arg.(
      value
      & pos 0 (some dir) None
      & info [] ~docv:"DIR" ~doc:"directory whose $(b,*.c) files are the member systems")
  in
  let manifest =
    Arg.(
      value
      & opt (some file) None
      & info [ "manifest" ] ~docv:"FILE"
          ~doc:
            "member list, one path per line ($(b,#) comments and blank lines skipped; \
             relative paths resolve against the manifest's directory).  Alternative to \
             the positional $(i,DIR).")
  in
  let jobs =
    Arg.(
      value & opt int 1
      & info [ "jobs" ] ~docv:"N"
          ~doc:
            "shard the fleet across $(docv) worker processes (member $(i,i) goes to \
             shard $(i,i) mod $(docv)); every worker shares the same $(b,--cache) \
             directory")
  in
  let shard_domains =
    Arg.(
      value & opt int 1
      & info [ "shard-domains" ] ~docv:"N"
          ~doc:"domains per worker process draining that worker's members")
  in
  let cache_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "cache" ] ~docv:"DIR"
          ~doc:
            "shared content-addressed cache directory (created if missing).  Safe under \
             concurrent multi-process access; identical members are analyzed once \
             fleet-wide (cross-system hits are reported in the summary line).")
  in
  let source_label =
    Arg.(
      value
      & opt string "<system>"
      & info [ "source-label" ] ~docv:"LABEL"
          ~doc:
            "normalized source label every member is analyzed under, so identical \
             members key identically in the cache.  Findings and baselines still carry \
             each member's real path.")
  in
  let print_reports =
    Arg.(
      value & flag
      & info [ "print-reports" ]
          ~doc:"print each member's full report instead of one summary line per member")
  in
  let save_findings =
    Arg.(
      value
      & opt (some string) None
      & info [ "save-findings" ] ~docv:"OUT"
          ~doc:
            "write all members' findings as one fingerprinted baseline file for later \
             $(b,--baseline) runs")
  in
  let baseline =
    Arg.(
      value
      & opt (some file) None
      & info [ "baseline" ] ~docv:"FILE"
          ~doc:
            "suppression baseline across the whole fleet: the delta is printed and only \
             new findings drive the exit code")
  in
  let progress_flag =
    Arg.(
      value & flag
      & info [ "progress" ]
          ~doc:
            "force the live stderr progress line on (members done/total, analyses/sec, \
             ETA, slowest worker), driven by the worker event stream; throttled, never \
             changes reports.  On by default when stderr is a terminal; automatically \
             off when piped or redirected (CI logs stay clean).")
  in
  let no_progress =
    Arg.(
      value & flag
      & info [ "no-progress" ]
          ~doc:"force the progress line off, even on a terminal")
  in
  let log_json =
    Arg.(
      value
      & opt (some string) None
      & info [ "log-json" ] ~docv:"OUT.ndjson"
          ~doc:
            "tee the raw worker event stream (newline-delimited JSON, schema \
             $(b,safeflow-events/1): fleet/worker/member lifecycle, per-member cache \
             deltas, heartbeats) to $(docv) for post-hoc analysis")
  in
  let verbose =
    Arg.(
      value & flag
      & info [ "verbose" ]
          ~doc:
            "one-line stderr diagnostics for otherwise-silent recoveries (stale or \
             corrupt cache entries), tagged $(b,[worker N]) so interleaved fleet output \
             stays attributable; never changes reports")
  in
  let emit_certs =
    Arg.(
      value
      & opt (some string) None
      & info [ "emit-certs" ] ~docv:"DIR"
          ~doc:
            "write each member's certificate bundle (schema $(b,safeflow-cert/1)) to \
             $(docv)/<member-basename>/; see $(b,analyze --emit-certs) and \
             $(b,check-cert).  Standalone re-validation of a fleet bundle needs \
             $(b,check-cert --source-label) with this run's label, because digests \
             bind to the IR as analyzed under the normalized label.")
  in
  let check_certs =
    Arg.(
      value & flag
      & info [ "check-certs" ]
          ~doc:
            "with $(b,--emit-certs): re-validate every member's bundle in the worker \
             against a fresh parse, print per-member pass/fail/skipped counts, and \
             fail the run (exit 1) if any certificate fails")
  in
  let run dir manifest jobs shard_domains cache_dir absint source_label
      print_reports save_findings baseline fail_on progress_flag no_progress log_json
      verbose emit_certs check_certs tele =
    try
      telemetry_setup tele;
      let members =
        match (dir, manifest) with
        | Some d, None -> Safeflow.Fleet.members_of_dir d
        | None, Some m -> Safeflow.Fleet.members_of_manifest m
        | Some _, Some _ ->
          Fmt.epr "give either a DIR or --manifest, not both@.";
          exit 2
        | None, None ->
          Fmt.epr "give a DIR of member systems or --manifest FILE@.";
          exit 2
      in
      if members = [] then begin
        Fmt.epr "no member systems found@.";
        exit 2
      end;
      let config = { Safeflow.Config.default with absint; verbose } in
      let log_oc = Option.map (fun p -> write_output p open_out) log_json in
      (* progress defaults to the terminal: forced on by --progress,
         forced off by --no-progress, otherwise on iff stderr is a TTY
         (so piped/redirected CI logs stay clean without any flag) *)
      let progress_on =
        (not no_progress) && (progress_flag || Unix.isatty Unix.stderr)
      in
      let progress =
        if progress_on then
          Some (Safeflow.Progress.create ~total:(List.length members) ())
        else None
      in
      let on_event =
        match (log_oc, progress) with
        | None, None -> None
        | _ ->
          Some
            (fun line ->
              (match log_oc with
              | Some oc ->
                output_string oc line;
                output_char oc '\n'
              | None -> ());
              match progress with
              | Some p -> Safeflow.Progress.feed p line
              | None -> ())
      in
      if check_certs && emit_certs = None then begin
        Fmt.epr "--check-certs needs --emit-certs DIR@.";
        exit 2
      end;
      let r =
        Safeflow.Fleet.run ~config ?cache_dir ~jobs ~shard_domains ~source_label
          ?on_event ?emit_certs ~check_certs members
      in
      (match progress with Some p -> Safeflow.Progress.finish p | None -> ());
      (match (log_oc, log_json) with
      | Some oc, Some path ->
        write_output path (fun _ -> close_out oc);
        Fmt.epr "event log written to %s@." path
      | _ -> ());
      List.iter
        (fun (m : Safeflow.Fleet.member_result) ->
          if print_reports then
            Fmt.pr "== %s ==@.%s@." m.Safeflow.Fleet.mr_path m.Safeflow.Fleet.mr_report
          else
            let certs =
              match m.Safeflow.Fleet.mr_certs with
              | None -> ""
              | Some c when not check_certs ->
                Fmt.str "  %3d certs" c.Safeflow.Fleet.cc_written
              | Some c ->
                Fmt.str "  %3d certs (%d pass, %d fail, %d skipped)"
                  c.Safeflow.Fleet.cc_written c.Safeflow.Fleet.cc_passed
                  c.Safeflow.Fleet.cc_failed c.Safeflow.Fleet.cc_skipped
            in
            Fmt.pr "%-48s %3d errors  %3d warnings%s@." m.Safeflow.Fleet.mr_path
              m.Safeflow.Fleet.mr_errors m.Safeflow.Fleet.mr_warnings certs)
        r.Safeflow.Fleet.f_results;
      Fmt.pr "fleet: %d systems on %d process(es) x %d domain(s) in %.2fs — %.1f analyses/sec@."
        r.Safeflow.Fleet.f_systems r.Safeflow.Fleet.f_jobs r.Safeflow.Fleet.f_shard_domains
        r.Safeflow.Fleet.f_elapsed_s r.Safeflow.Fleet.f_analyses_per_sec;
      (if cache_dir <> None then
         let c = r.Safeflow.Fleet.f_cache in
         Fmt.pr "cache: %d hits (%d cross-system), %d misses, %d stale, %d corrupt@."
           c.Safeflow.Fleet.ct_hits c.Safeflow.Fleet.ct_cross c.Safeflow.Fleet.ct_misses
           c.Safeflow.Fleet.ct_stale c.Safeflow.Fleet.ct_corrupt);
      let certs_failed =
        match emit_certs with
        | None -> false
        | Some root ->
          let w, p, f, s =
            List.fold_left
              (fun (w, p, f, s) (m : Safeflow.Fleet.member_result) ->
                match m.Safeflow.Fleet.mr_certs with
                | None -> (w, p, f, s)
                | Some c ->
                  ( w + c.Safeflow.Fleet.cc_written,
                    p + c.Safeflow.Fleet.cc_passed,
                    f + c.Safeflow.Fleet.cc_failed,
                    s + c.Safeflow.Fleet.cc_skipped ))
              (0, 0, 0, 0) r.Safeflow.Fleet.f_results
          in
          if check_certs then
            Fmt.pr "certificates: %d written to %s — %d verified, %d failed, %d skipped@."
              w root p f s
          else Fmt.pr "certificates: %d written to %s (%d skipped)@." w root s;
          check_certs && f > 0
      in
      telemetry_finish tele;
      let entries =
        List.concat_map
          (fun (m : Safeflow.Fleet.member_result) -> m.Safeflow.Fleet.mr_entries)
          r.Safeflow.Fleet.f_results
      in
      (match save_findings with
      | Some path ->
        write_output path (fun p -> Safeflow.Diffreport.save p entries);
        Fmt.pr "findings written to %s@." path
      | None -> ());
      let gated =
        match baseline with
        | Some bl ->
          let d =
            Safeflow.Diffreport.diff ~baseline:(Safeflow.Diffreport.load bl)
              ~current:entries
          in
          Fmt.pr "%a@." Safeflow.Diffreport.pp_diff d;
          d.Safeflow.Diffreport.d_new
        | None -> entries
      in
      let code = Safeflow.Diffreport.gate ~fail_on gated in
      exit (if certs_failed && code = 0 then 1 else code)
    with
    | Minic.Loc.Error (loc, msg) ->
      Fmt.epr "%a: %s@." Minic.Loc.pp loc msg;
      exit 3
    | Failure msg ->
      Fmt.epr "%s@." msg;
      exit 3
  in
  Cmd.v
    (Cmd.info "fleet"
       ~doc:
         "analyze a fleet of member systems sharded across processes and domains over \
          one shared content-addressed cache.  Identical members are analyzed once \
          fleet-wide; reports are byte-identical to per-member sequential runs.  Exit \
          codes as for $(b,analyze), applied to the union of all members' findings.")
    Term.(const run $ dir $ manifest $ jobs $ shard_domains $ cache_dir
          $ absint_arg $ source_label $ print_reports $ save_findings $ baseline
          $ fail_on_arg $ progress_flag $ no_progress $ log_json $ verbose
          $ emit_certs $ check_certs $ telemetry_flags)

let version_cmd =
  let run () =
    Fmt.pr "safeflow %s@." tool_version;
    Fmt.pr "cache format:      v%d@." Safeflow.Cache.format_version;
    Fmt.pr "cache generation:  %s@." Safeflow.Cache.generation;
    Fmt.pr "telemetry schema:  %s@." Safeflow.Telemetry.stats_json_schema;
    Fmt.pr "events schema:     %s@." Safeflow.Events.schema;
    Fmt.pr "findings format:   %s@." Safeflow.Diffreport.format_version;
    Fmt.pr "fingerprint:       %s@." Safeflow.Fingerprint.version;
    Fmt.pr "certificates:      %s@." Safeflow.Cert.schema;
    Fmt.pr "explain JSON:      %s@." Safeflow.Cert.explain_schema;
    Fmt.pr "SARIF:             %s@." Safeflow.Sarif.sarif_version
  in
  Cmd.v
    (Cmd.info "version"
       ~doc:
         "print the tool version and every artifact format version (cache, telemetry \
          JSON, findings baseline, fingerprint scheme, SARIF) so artifacts are traceable")
    Term.(const run $ const ())

let synth_cmd =
  let n = Arg.(value & pos 0 int 8 & info [] ~docv:"N" ~doc:"worker count") in
  let fleet_n =
    Arg.(
      value
      & opt (some int) None
      & info [ "fleet" ] ~docv:"N"
          ~doc:
            "instead of one component on stdout, write a deterministic $(docv)-member \
             synthetic fleet (controlled cross-member overlap and duplicates) into \
             $(b,--out); the input generator behind the CI fleet-smoke job")
  in
  let seed =
    Arg.(
      value & opt int 0
      & info [ "seed" ] ~docv:"S" ~doc:"generation seed (with $(b,--fleet)); same seed, same fleet")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"DIR"
          ~doc:"output directory for $(b,--fleet) members (created if missing)")
  in
  let run n fleet_n seed out =
    match fleet_n with
    | None -> print_string (Safeflow.Synth.of_size n)
    | Some fn -> (
      match out with
      | None ->
        Fmt.epr "--fleet needs --out DIR@.";
        exit 2
      | Some dir ->
        let members =
          Safeflow.Synth.fleet ~seed
            { Safeflow.Synth.default_fleet with Safeflow.Synth.fleet_n = fn }
        in
        write_output dir (fun dir ->
            if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
            List.iter
              (fun (name, src) ->
                let oc = open_out (Filename.concat dir name) in
                output_string oc src;
                close_out oc)
              members);
        Fmt.pr "wrote %d members to %s@." (List.length members) dir)
  in
  Cmd.v
    (Cmd.info "synth"
       ~doc:
         "emit a synthetic core component of the given size, or with $(b,--fleet) a \
          seeded deterministic fleet of member systems")
    Term.(const run $ n $ fleet_n $ seed $ out)

let () =
  let doc = "static analysis to enforce safe value flow in embedded control systems" in
  let info = Cmd.info "safeflow" ~version:tool_version ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ analyze_cmd; fleet_cmd; diff_cmd; explain_cmd; check_cert_cmd; audit_cmd;
            hotspots_cmd; ranges_cmd; initcheck_cmd; dump_ir_cmd; synth_cmd;
            version_cmd ]))
