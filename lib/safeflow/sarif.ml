(** SARIF 2.1.0 emission.  Hand-rolled JSON building over
    {!Jsonlite.escape}, like the telemetry exporter: the structure is
    fixed and shallow, and the repo deliberately carries no JSON
    dependency. *)

open Minic

let sarif_version = "2.1.0"

let schema_uri =
  "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json"

let fingerprint_key = Fingerprint.version

type input = {
  i_file : string;
  i_report : Report.t;
  i_ctx : Fingerprint.ctx;
}

(* -- JSON building ------------------------------------------------------------- *)

let str s = Printf.sprintf "\"%s\"" (Jsonlite.escape s)
let field k v = Printf.sprintf "%s:%s" (str k) v
let obj fields = "{" ^ String.concat "," fields ^ "}"
let arr items = "[" ^ String.concat "," items ^ "]"
let text s = obj [ field "text" (str s) ]

let level_name = function `Error -> "error" | `Warning -> "warning" | `Note -> "note"

(* -- Rules ---------------------------------------------------------------------- *)

let rule_json (r : Report.rule) =
  obj
    [ field "id" (str r.Report.rule_id);
      field "name" (str r.Report.rule_name);
      field "shortDescription" (text r.Report.rule_summary);
      field "fullDescription" (text r.Report.rule_summary);
      field "help" (text r.Report.rule_help);
      field "defaultConfiguration"
        (obj [ field "level" (str (level_name r.Report.rule_level)) ]) ]

let rule_index code =
  let rec go i = function
    | [] -> -1
    | (r : Report.rule) :: _ when String.equal r.Report.rule_id code -> i
    | _ :: rest -> go (i + 1) rest
  in
  go 0 Report.rules

(* -- Locations ------------------------------------------------------------------ *)

(* SARIF regions are 1-based; IR-internal findings can carry Loc.dummy *)
let region (l : Loc.t) =
  obj
    [ field "startLine" (string_of_int (max 1 l.Loc.line));
      field "startColumn" (string_of_int (max 1 l.Loc.col)) ]

let physical_location ~uri (l : Loc.t) =
  obj
    [ field "physicalLocation"
        (obj
           [ field "artifactLocation" (obj [ field "uri" (str uri) ]);
             field "region" (region l) ]) ]

(* -- Code flows ------------------------------------------------------------------ *)

(** One threadFlow walking the witness path, source first.  Per-step
    source locations are not recorded in witnesses (entities are SSA
    values, not syntax), so each step carries its description as the
    location message and anchors to the sink's artifact. *)
let code_flow ~uri (d : Report.dependency) =
  match d.Report.d_path with
  | [] -> None
  | steps ->
    let step_loc i (s : Report.path_step) =
      let n = List.length steps in
      let tag = if i = 0 then " [source]" else if i = n - 1 then " [sink]" else "" in
      let loc = if i = n - 1 then d.Report.d_loc else Loc.dummy in
      obj
        [ field "location"
            (obj
               [ field "physicalLocation"
                   (obj
                      [ field "artifactLocation" (obj [ field "uri" (str uri) ]);
                        field "region" (region loc) ]);
                 field "message" (text (Report.path_step_string s ^ tag)) ]) ]
    in
    Some
      (arr
         [ obj
             [ field "threadFlows"
                 (arr [ obj [ field "locations" (arr (List.mapi step_loc steps)) ] ]) ] ])

(* -- Results -------------------------------------------------------------------- *)

let result_json ~uri (fp : string) (f : Fingerprint.finding) =
  let code = Fingerprint.code f in
  let rule = Report.rule_of_code code in
  let flows =
    match f with Fingerprint.Dependency d -> code_flow ~uri d | _ -> None
  in
  obj
    ([ field "ruleId" (str code);
       field "ruleIndex" (string_of_int (rule_index code));
       field "level" (str (level_name rule.Report.rule_level));
       field "message"
         (text (Printf.sprintf "%s (in %s)" (Fingerprint.message f) (Fingerprint.func f)));
       field "locations" (arr [ physical_location ~uri (Fingerprint.loc f) ]);
       field "partialFingerprints" (obj [ field fingerprint_key (str fp) ]);
       (* the fingerprint doubles as the finding's certificate id: under
          analyze --emit-certs the bundle contains certs/<certId>.json *)
       field "properties" (obj [ field "certId" (str fp) ]) ]
    @ match flows with Some fl -> [ field "codeFlows" fl ] | None -> [])

let results_of_input (i : input) =
  List.map
    (fun (fp, f) -> result_json ~uri:i.i_file fp f)
    (Fingerprint.of_report i.i_ctx i.i_report)

(* -- Top level ------------------------------------------------------------------- *)

let to_string ?(tool_version = Version.tool) (inputs : input list) =
  let driver =
    obj
      [ field "name" (str "safeflow");
        field "version" (str tool_version);
        field "informationUri"
          (str "https://doi.org/10.1109/DSN.2006.64");
        field "rules" (arr (List.map rule_json Report.rules)) ]
  in
  let artifacts =
    List.map
      (fun i -> obj [ field "location" (obj [ field "uri" (str i.i_file) ]) ])
      inputs
  in
  let run =
    obj
      [ field "tool" (obj [ field "driver" driver ]);
        field "artifacts" (arr artifacts);
        field "results" (arr (List.concat_map results_of_input inputs)) ]
  in
  obj
    [ field "$schema" (str schema_uri);
      field "version" (str sarif_version);
      field "runs" (arr [ run ]) ]
  ^ "\n"

let write ?tool_version path inputs =
  let oc = open_out path in
  output_string oc (to_string ?tool_version inputs);
  close_out oc
