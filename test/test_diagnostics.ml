(* Diagnostics surface: fingerprint stability, SARIF export, findings
   files and differential reports, monitoring coverage, CI gating.

   The load-bearing property is fingerprint invariance — the same
   finding must get the same identity from the phase-3 engine and its
   dense oracle, across cache state, parallelism settings and function
   reordering — because baselines and diffs are keyed on nothing
   else. *)

open Safeflow

let find_system name =
  let candidates =
    [ "../../../systems/" ^ name; "../../systems/" ^ name; "systems/" ^ name ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some p -> p
  | None -> Alcotest.fail ("cannot locate systems/" ^ name)

let read_file p =
  let ic = open_in_bin p in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let system_files =
  [ "figure2.c"; "ip_controller.c"; "double_ip.c"; "car_follow.c"; "generic_simplex.c" ]

let fingerprints ?config ?cache src =
  let a = Driver.analyze ?config ?cache src in
  let ctx = a.Driver.fingerprints in
  List.map fst (Fingerprint.of_report ctx a.Driver.report)

let sorted_fps ?config ?cache src = List.sort compare (fingerprints ?config ?cache src)

let slist = Alcotest.(list string)

(* -- fingerprint invariance ---------------------------------------------------- *)

(* [name] analyzed alongside the other systems on forked workers must
   keep the fingerprints of a lone sequential run *)
let test_parallelism_invariance name () =
  let path = find_system name in
  let par =
    List.combine system_files
      (Array.to_list
         (Fleet.analyze_inputs ~jobs:2
            ~render:(fun _ a -> (a.Driver.report, a.Driver.fingerprints))
            (List.map find_system system_files)))
  in
  let (report, ctx), _, _ = Result.get_ok (List.assoc name par) in
  Alcotest.check slist "sequential = parallel"
    (sorted_fps (read_file path))
    (List.sort compare (List.map fst (Fingerprint.of_report ctx report)))

(* cache entries live under a generation subdirectory of the root *)
let rec rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter
      (fun e ->
        let p = Filename.concat dir e in
        if Sys.is_directory p then rm_rf p else Sys.remove p)
      (Sys.readdir dir);
    Sys.rmdir dir
  end

let with_temp_dir f =
  let dir = Filename.temp_file "safeflow_diag" "" in
  Sys.remove dir;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let test_cache_invariance name () =
  let src = read_file (find_system name) in
  let bare = sorted_fps src in
  with_temp_dir (fun dir ->
      let cache = Cache.create ~dir () in
      let cold = sorted_fps ~cache src in
      let warm = sorted_fps ~cache src in
      Alcotest.check slist "no cache = cold" bare cold;
      Alcotest.check slist "cold = warm" cold warm)

(* Reordering two functions (and shifting every absolute line with an
   extra leading comment) must not change any fingerprint: spans are
   recorded relative to the enclosing function. *)

let reorder_head = {|struct D { double a; double b; };
typedef struct D D;

D *fb;

extern void out(double v);

void initComm()
/*** SafeFlow Annotation shminit ***/
{
  int shmid;
  void *s;
  shmid = shmget(9000, sizeof(D), 438);
  s = shmat(shmid, (void *) 0, 0);
  fb = (D *) s;
  InitCheck(s, sizeof(D));
  /*** SafeFlow Annotation
       assume(shmvar(fb, sizeof(D)))
       assume(noncore(fb)) ***/
}
|}

let read_a = {|
double readA(D *f)
{
  double v = f->a;
  return v;
}
|}

let read_b = {|
double readB(D *f)
{
  double w = f->b + 1.0;
  return w;
}
|}

let reorder_tail = {|
int main()
{
  double x;
  initComm();
  x = readA(fb) + readB(fb);
  /*** SafeFlow Annotation assert(safe(x)) ***/
  out(x);
  return 0;
}
|}

let test_reorder_invariance () =
  let v1 = reorder_head ^ read_a ^ read_b ^ reorder_tail in
  let v2 = "/* shifted */\n/* shifted */\n" ^ reorder_head ^ read_b ^ read_a ^ reorder_tail in
  let f1 = sorted_fps v1 and f2 = sorted_fps v2 in
  Alcotest.(check bool) "findings present" true (List.length f1 >= 3);
  Alcotest.check slist "reorder + shift invariant" f1 f2

(* -- report determinism -------------------------------------------------------- *)

let test_canonical_order name () =
  let src = read_file (find_system name) in
  let a = Driver.analyze src in
  let ctx = a.Driver.fingerprints in
  let check_sorted what keys =
    Alcotest.(check bool) (what ^ " sorted") true (List.sort compare keys = keys)
  in
  let key f = (Fingerprint.loc f, Fingerprint.compute ctx f) in
  let r = a.Driver.report in
  check_sorted "warnings" (List.map (fun w -> key (Fingerprint.Warning w)) r.Report.warnings);
  check_sorted "violations"
    (List.map (fun v -> key (Fingerprint.Violation v)) r.Report.violations);
  check_sorted "dependencies"
    (List.map (fun d -> key (Fingerprint.Dependency d)) r.Report.dependencies)

(* -- SARIF --------------------------------------------------------------------- *)

(* Minimal JSON reader: enough of RFC 8259 to prove the export is
   well-formed and to walk its structure.  No external parser is
   available in this environment, so we vendor the ~60 lines here. *)
module Json = struct
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  exception Bad of string

  let parse (s : string) : t =
    let n = String.length s in
    let pos = ref 0 in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let advance () = incr pos in
    let fail msg = raise (Bad (Fmt.str "%s at offset %d" msg !pos)) in
    let rec skip_ws () =
      match peek () with
      | Some (' ' | '\t' | '\n' | '\r') -> advance (); skip_ws ()
      | _ -> ()
    in
    let expect c =
      match peek () with
      | Some c' when c' = c -> advance ()
      | _ -> fail (Fmt.str "expected %c" c)
    in
    let literal word v =
      String.iter expect word;
      v
    in
    let string_body () =
      expect '"';
      let b = Buffer.create 16 in
      let rec go () =
        match peek () with
        | None -> fail "unterminated string"
        | Some '"' -> advance ()
        | Some '\\' ->
          advance ();
          (match peek () with
          | Some 'u' ->
            advance ();
            for _ = 1 to 4 do
              (match peek () with
              | Some ('0' .. '9' | 'a' .. 'f' | 'A' .. 'F') -> advance ()
              | _ -> fail "bad \\u escape")
            done;
            Buffer.add_char b '?'
          | Some (('"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't') as c) ->
            advance ();
            Buffer.add_char b c
          | _ -> fail "bad escape");
          go ()
        | Some c -> advance (); Buffer.add_char b c; go ()
      in
      go ();
      Buffer.contents b
    in
    let number () =
      let start = !pos in
      let num_char = function
        | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
        | _ -> false
      in
      while (match peek () with Some c when num_char c -> true | _ -> false) do
        advance ()
      done;
      match float_of_string_opt (String.sub s start (!pos - start)) with
      | Some f -> Num f
      | None -> fail "bad number"
    in
    let rec value () =
      skip_ws ();
      match peek () with
      | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then (advance (); Obj [])
        else begin
          let rec members acc =
            skip_ws ();
            let k = string_body () in
            skip_ws ();
            expect ':';
            let v = value () in
            skip_ws ();
            match peek () with
            | Some ',' -> advance (); members ((k, v) :: acc)
            | Some '}' -> advance (); Obj (List.rev ((k, v) :: acc))
            | _ -> fail "expected , or }"
          in
          members []
        end
      | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then (advance (); Arr [])
        else begin
          let rec elems acc =
            let v = value () in
            skip_ws ();
            match peek () with
            | Some ',' -> advance (); elems (v :: acc)
            | Some ']' -> advance (); Arr (List.rev (v :: acc))
            | _ -> fail "expected , or ]"
          in
          elems []
        end
      | Some '"' -> Str (string_body ())
      | Some 't' -> literal "true" (Bool true)
      | Some 'f' -> literal "false" (Bool false)
      | Some 'n' -> literal "null" Null
      | Some _ -> number ()
      | None -> fail "unexpected end of input"
    in
    let v = value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v

  let member k = function
    | Obj kvs -> (
      match List.assoc_opt k kvs with
      | Some v -> v
      | None -> raise (Bad ("missing member " ^ k)))
    | _ -> raise (Bad ("not an object looking up " ^ k))

  let to_list = function Arr l -> l | _ -> raise (Bad "not an array")

  let to_string = function Str s -> s | _ -> raise (Bad "not a string")
end

let sarif_inputs names =
  List.map
    (fun name ->
      let file = find_system name in
      let a = Driver.analyze_file file in
      let ctx = a.Driver.fingerprints in
      (a, { Sarif.i_file = file; i_report = a.Driver.report; i_ctx = ctx }))
    names

let test_sarif_structure () =
  let inputs = sarif_inputs system_files in
  let doc = Sarif.to_string ~tool_version:"test" (List.map snd inputs) in
  let json = try Json.parse doc with Json.Bad m -> Alcotest.fail ("bad JSON: " ^ m) in
  Alcotest.(check string) "version" Sarif.sarif_version
    Json.(to_string (member "version" json));
  Alcotest.(check string) "$schema" Sarif.schema_uri
    Json.(to_string (member "$schema" json));
  let run = List.hd Json.(to_list (member "runs" json)) in
  let driver = Json.(member "driver" (member "tool" run)) in
  Alcotest.(check string) "driver name" "safeflow"
    Json.(to_string (member "name" driver));
  let rules = Json.(to_list (member "rules" driver)) in
  Alcotest.(check int) "every code has a rule" (List.length Report.rules)
    (List.length rules);
  let rule_ids = List.map (fun r -> Json.(to_string (member "id" r))) rules in
  List.iter
    (fun (rule : Report.rule) ->
      Alcotest.(check bool) (rule.Report.rule_id ^ " present") true
        (List.mem rule.Report.rule_id rule_ids))
    Report.rules;
  let results = Json.(to_list (member "results" run)) in
  let finding_count =
    List.fold_left
      (fun acc (a, _) ->
        let r = a.Driver.report in
        acc
        + List.length r.Report.violations
        + List.length r.Report.warnings
        + List.length r.Report.dependencies)
      0 inputs
  in
  Alcotest.(check int) "one result per finding" finding_count (List.length results);
  List.iter
    (fun res ->
      let rule_id = Json.(to_string (member "ruleId" res)) in
      Alcotest.(check bool) "ruleId registered" true (List.mem rule_id rule_ids);
      let fp =
        Json.(to_string (member Sarif.fingerprint_key (member "partialFingerprints" res)))
      in
      Alcotest.(check int) "fingerprint is hex md5" 32 (String.length fp);
      ignore Json.(to_list (member "locations" res)))
    results;
  (* dependencies must carry their witness as a codeFlow *)
  let with_flows =
    List.filter
      (fun res ->
        match Json.member "codeFlows" res with
        | exception Json.Bad _ -> false
        | flows -> Json.to_list flows <> [])
      results
  in
  let dep_count =
    List.fold_left
      (fun acc (a, _) -> acc + List.length a.Driver.report.Report.dependencies)
      0 inputs
  in
  Alcotest.(check int) "codeFlow per dependency" dep_count (List.length with_flows)

(* -- findings files and diff --------------------------------------------------- *)

let entries_of name =
  let file = find_system name in
  let a = Driver.analyze_file file in
  let ctx = a.Driver.fingerprints in
  Diffreport.entries_of_report ctx ~file a.Driver.report

let test_findings_roundtrip () =
  let entries = entries_of "ip_controller.c" in
  Alcotest.(check bool) "non-empty" true (entries <> []);
  let text = Diffreport.to_string entries in
  Alcotest.(check bool) "sniffs as findings" true (Diffreport.looks_like_findings text);
  Alcotest.(check bool) "source does not sniff" false
    (Diffreport.looks_like_findings (read_file (find_system "figure2.c")));
  let back = Diffreport.parse ~file:"baseline.findings" text in
  Alcotest.(check int) "entry count" (List.length entries) (List.length back);
  List.iter2
    (fun (a : Diffreport.entry) (b : Diffreport.entry) ->
      Alcotest.(check string) "fp" a.Diffreport.e_fp b.Diffreport.e_fp;
      Alcotest.(check string) "code" a.Diffreport.e_code b.Diffreport.e_code;
      Alcotest.(check string) "where" a.Diffreport.e_where b.Diffreport.e_where;
      Alcotest.(check string) "msg" a.Diffreport.e_msg b.Diffreport.e_msg)
    entries back

let test_diff_identical name () =
  let entries = entries_of name in
  let d = Diffreport.diff ~baseline:entries ~current:entries in
  Alcotest.(check int) "no new" 0 (List.length d.Diffreport.d_new);
  Alcotest.(check int) "no fixed" 0 (List.length d.Diffreport.d_fixed);
  Alcotest.(check int) "all unchanged" (List.length entries)
    (List.length d.Diffreport.d_unchanged)

(* Every baseline/current pair must partition exactly:
   current = new + unchanged, baseline = fixed + unchanged. *)
let check_delta ~expect_nonempty baseline_name current_name =
  let baseline = entries_of baseline_name and current = entries_of current_name in
  let d = Diffreport.diff ~baseline ~current in
  let n = List.length d.Diffreport.d_new
  and f = List.length d.Diffreport.d_fixed
  and u = List.length d.Diffreport.d_unchanged in
  Alcotest.(check int) "current partition" (List.length current) (n + u);
  Alcotest.(check int) "baseline partition" (List.length baseline) (f + u);
  if expect_nonempty then
    Alcotest.(check bool) "delta non-empty" true (n + f > 0)

let test_diff_originals () =
  check_delta ~expect_nonempty:true "originals/ip_controller_orig.c" "ip_controller.c";
  check_delta ~expect_nonempty:true "originals/double_ip_orig.c" "double_ip.c"

let test_diff_noncore () =
  (* the noncore variants are fully monitored: every finding of the
     subject system is classified fixed, nothing survives *)
  List.iter
    (fun (subject, variant) ->
      let baseline = entries_of subject and current = entries_of variant in
      Alcotest.(check int) (variant ^ " clean") 0 (List.length current);
      let d = Diffreport.diff ~baseline ~current in
      Alcotest.(check bool) (subject ^ " all fixed") true
        (List.length d.Diffreport.d_fixed = List.length baseline
        && List.length baseline > 0);
      Alcotest.(check int) (subject ^ " nothing new") 0 (List.length d.Diffreport.d_new))
    [ ("ip_controller.c", "noncore/ip_complex.c");
      ("double_ip.c", "noncore/dip_complex.c");
      ("generic_simplex.c", "noncore/generic_complex.c") ]

(* -- gating -------------------------------------------------------------------- *)

let entry code = { Diffreport.e_fp = "0"; e_code = code; e_where = "x:1:1"; e_msg = "m" }

let test_gate () =
  let warn = entry Report.code_unmonitored_read
  and err = entry Report.code_critical_dep
  and note = entry Report.code_control_dep in
  let check l expected entries =
    Alcotest.(check int) l expected (Diffreport.gate ~fail_on:`Warning entries)
  in
  check "clean" 0 [];
  check "warnings only" 2 [ warn; note ];
  check "errors dominate" 1 [ warn; err ];
  Alcotest.(check int) "fail-on error ignores warnings" 0
    (Diffreport.gate ~fail_on:`Error [ warn; note ]);
  Alcotest.(check int) "fail-on error sees errors" 1
    (Diffreport.gate ~fail_on:`Error [ warn; err ]);
  Alcotest.(check int) "fail-on never" 0 (Diffreport.gate ~fail_on:`Never [ err ]);
  Alcotest.(check bool) "violations are errors" true
    (Diffreport.is_error_code (Report.code_of_restriction Report.P1))

(* -- coverage ------------------------------------------------------------------ *)

let test_coverage name () =
  let a = Driver.analyze_file (find_system name) in
  let cov = a.Driver.coverage in
  let r = a.Driver.report in
  Alcotest.(check int) "warnings counted" (List.length r.Report.warnings)
    cov.Coverage.cov_warnings;
  Alcotest.(check int) "errors counted" (List.length (Report.errors r))
    cov.Coverage.cov_errors;
  Alcotest.(check int) "control-only counted"
    (List.length (Report.control_deps r))
    cov.Coverage.cov_control_only;
  Alcotest.(check bool) "sites >= unmonitored" true
    (cov.Coverage.cov_read_sites
    >= cov.Coverage.cov_read_sites - cov.Coverage.cov_monitored_sites);
  Alcotest.(check bool) "monitored <= total" true
    (cov.Coverage.cov_monitored_sites <= cov.Coverage.cov_read_sites);
  let f = Coverage.monitored_fraction cov in
  Alcotest.(check bool) "fraction in [0,1]" true (f >= 0.0 && f <= 1.0);
  (* per-region rows must sum to the totals *)
  let sum g = List.fold_left (fun acc rc -> acc + g rc) 0 cov.Coverage.cov_regions in
  Alcotest.(check int) "regions sum to sites" cov.Coverage.cov_read_sites
    (sum (fun rc -> rc.Coverage.rc_read_sites));
  Alcotest.(check int) "regions sum to warnings"
    (cov.Coverage.cov_read_sites - cov.Coverage.cov_monitored_sites)
    (sum (fun rc -> rc.Coverage.rc_unmonitored_sites));
  List.iter
    (fun rc ->
      Alcotest.(check bool) (rc.Coverage.rc_region ^ " assumed <= size") true
        (rc.Coverage.rc_assumed_bytes >= 0
        && rc.Coverage.rc_assumed_bytes <= rc.Coverage.rc_size))
    cov.Coverage.cov_regions;
  (* the headline integers ride along in report stats *)
  List.iter
    (fun key ->
      Alcotest.(check bool) (key ^ " in stats") true (List.mem_assoc key r.Report.stats))
    [ "noncore_read_sites"; "monitored_read_sites"; "control_only_deps" ];
  (* and the JSON embedding is well-formed *)
  (match Json.parse (Jsonlite.render (Coverage.to_json cov)) with
  | Json.Obj _ -> ()
  | _ -> Alcotest.fail "coverage JSON is not an object"
  | exception Json.Bad m -> Alcotest.fail ("bad coverage JSON: " ^ m))

let per_system f = List.map (fun n -> Alcotest.test_case n `Quick (f n)) system_files

(* [check] on [name] under every Config toggle combination, library
   engine against the dense oracle (see oracle.ml) *)
let vs_oracle check name () = Oracle.over_grid name (read_file (find_system name)) check

let () =
  Alcotest.run "diagnostics"
    [ ("fingerprint engine invariance", per_system (vs_oracle Oracle.check_fingerprints));
      ("fingerprint parallelism invariance", per_system test_parallelism_invariance);
      ("fingerprint cache invariance", per_system test_cache_invariance);
      ( "fingerprint reordering",
        [ Alcotest.test_case "function reorder + line shift" `Quick
            test_reorder_invariance ] );
      ("byte-identical reports", per_system (vs_oracle Oracle.check_render));
      ("canonical order", per_system test_canonical_order);
      ( "sarif",
        [ Alcotest.test_case "structure over all systems" `Quick test_sarif_structure ] );
      ( "findings files",
        [ Alcotest.test_case "roundtrip" `Quick test_findings_roundtrip ] );
      ("diff identical", per_system test_diff_identical);
      ( "diff variants",
        [ Alcotest.test_case "originals vs current" `Quick test_diff_originals;
          Alcotest.test_case "noncore variants all fixed" `Quick test_diff_noncore ] );
      ("gating", [ Alcotest.test_case "exit codes" `Quick test_gate ]);
      ("coverage", per_system test_coverage);
      ("coverage engine invariance", per_system (vs_oracle Oracle.check_coverage)) ]
