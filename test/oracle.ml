(* The library's analysis of one input paired with the dense phase-3
   oracle (dense.ml), over the Config toggle grid, plus the checks on
   what is derived from the findings: fingerprints, the rendered report
   and monitoring coverage.  Shared by test_engine_equiv (findings) and
   test_diagnostics (derived artefacts). *)

open Safeflow

(* One input under one configuration, analyzed by the library and by
   the oracle.  The oracle reuses the library's frontend, phase-1/2 and
   points-to results and reruns phase 3 only; its report and coverage
   are assembled exactly as Driver.analyze assembles the library's. *)
type run = {
  lib : Driver.analysis;
  pairs : int * int;  (** library vs oracle pair count *)
  oracle_report : Report.t;
  oracle_coverage : Coverage.t;
}

(* memoized per (input, configuration) label: each test group checks
   one aspect of the same runs *)
let runs : (string, run) Hashtbl.t = Hashtbl.create 64

let run_of label (config : Config.t) src =
  match Hashtbl.find_opt runs label with
  | Some r -> r
  | None ->
    let lib = Driver.analyze ~config src in
    let p = lib.Driver.prepared in
    let absint = lib.Driver.absint in
    let o =
      Dense.run ~config ?absint p.Driver.ir lib.Driver.shm lib.Driver.phase1
        lib.Driver.pointsto
    in
    let oracle_report =
      Driver.canonicalize
        (Fingerprint.ctx_of_program p.Driver.ir)
        { lib.Driver.report with
          Report.warnings = o.Dense.warnings;
          dependencies = o.Dense.dependencies }
    in
    let ph2 = Driver.stage_phase2 ~config ?absint p lib.Driver.phase1 in
    let oracle_coverage =
      Coverage.compute ~bounds:ph2.Phase2.bounds ~prog:p.Driver.ir ~shm:lib.Driver.shm
        ~p1:lib.Driver.phase1 ~pts:lib.Driver.pointsto
        ~analyzed:(Dense.analyzed_functions o lib.Driver.phase1)
        oracle_report
    in
    let r =
      {
        lib;
        pairs = (lib.Driver.phase3.Phase3.pair_count, Hashtbl.length o.Dense.pairs);
        oracle_report;
        oracle_coverage;
      }
    in
    Hashtbl.replace runs label r;
    r

(* the Config toggle grid: every combination of the analysis dimensions *)
let toggle_grid =
  List.concat_map
    (fun control_deps ->
      List.concat_map
        (fun context_sensitive ->
          List.map
            (fun field_sensitive ->
              ( Fmt.str "cd=%b ctx=%b field=%b" control_deps context_sensitive
                  field_sensitive,
                { Config.default with control_deps; context_sensitive; field_sensitive } ))
            [ true; false ])
        [ true; false ])
    [ true; false ]

let over_grid name src check =
  List.iter
    (fun (tlabel, config) ->
      let label = name ^ " " ^ tlabel in
      check label (run_of label config src))
    toggle_grid

let sorted_fps (a : Driver.analysis) (r : Report.t) =
  let ctx = Fingerprint.ctx_of_program a.Driver.prepared.Driver.ir in
  List.sort compare (List.map fst (Fingerprint.of_report ctx r))

let check_fingerprints label r =
  let oracle = sorted_fps r.lib r.oracle_report in
  Alcotest.(check (list string)) (label ^ ": fingerprints") oracle
    (sorted_fps r.lib r.lib.Driver.report);
  Alcotest.(check bool) (label ^ ": non-empty") true (oracle <> [])

let check_render label r =
  Alcotest.(check string) (label ^ ": renders identically")
    (Report.to_string r.oracle_report)
    (Report.to_string r.lib.Driver.report)

let check_coverage label r =
  Alcotest.(check bool) (label ^ ": coverage") true
    (r.oracle_coverage = r.lib.Driver.coverage)
