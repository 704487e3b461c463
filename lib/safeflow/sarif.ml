(** SARIF 2.1.0 emission: the log is a {!Jsonlite.value}, written by the
    one JSON writer of the repo. *)

open Minic
module J = Jsonlite

let sarif_version = "2.1.0"

let schema_uri =
  "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json"

let fingerprint_key = Fingerprint.version

type input = {
  i_file : string;
  i_report : Report.t;
  i_ctx : Fingerprint.ctx;
}

(* a SARIF message: an object with a plain "text" property *)
let message s = J.Vobj [ ("text", J.Vstr s) ]

let level_name = function `Error -> "error" | `Warning -> "warning" | `Note -> "note"

(* -- Rules ---------------------------------------------------------------------- *)

let rule_json (r : Report.rule) =
  J.Vobj
    [ ("id", J.Vstr r.Report.rule_id);
      ("name", J.Vstr r.Report.rule_name);
      ("shortDescription", message r.Report.rule_summary);
      ("fullDescription", message r.Report.rule_summary);
      ("help", message r.Report.rule_help);
      ("defaultConfiguration", J.Vobj [ ("level", J.Vstr (level_name r.Report.rule_level)) ]) ]

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
  J.Vobj [ ("startLine", J.Vint (max 1 l.Loc.line)); ("startColumn", J.Vint (max 1 l.Loc.col)) ]

let physical_location ~uri (l : Loc.t) =
  J.Vobj
    [ ("artifactLocation", J.Vobj [ ("uri", J.Vstr uri) ]);
      ("region", region l) ]

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
      J.Vobj
        [ ( "location",
            J.Vobj
              [ ("physicalLocation", physical_location ~uri loc);
                ("message", message (Report.path_step_string s ^ tag)) ] ) ]
    in
    Some
      (J.Varr
         [ J.Vobj
             [ ("threadFlows",
                J.Varr [ J.Vobj [ ("locations", J.Varr (List.mapi step_loc steps)) ] ]) ] ])

(* -- Results -------------------------------------------------------------------- *)

let result_json ~uri (fp : string) (f : Fingerprint.finding) =
  let code = Fingerprint.code f in
  let rule = Report.rule_of_code code in
  let flows =
    match f with Fingerprint.Dependency d -> code_flow ~uri d | _ -> None
  in
  J.Vobj
    ([ ("ruleId", J.Vstr code);
       ("ruleIndex", J.Vint (rule_index code));
       ("level", J.Vstr (level_name rule.Report.rule_level));
       ( "message",
         message (Printf.sprintf "%s (in %s)" (Fingerprint.message f) (Fingerprint.func f)) );
       ( "locations",
         J.Varr [ J.Vobj [ ("physicalLocation", physical_location ~uri (Fingerprint.loc f)) ] ] );
       ("partialFingerprints", J.Vobj [ (fingerprint_key, J.Vstr fp) ]);
       (* the fingerprint doubles as the finding's certificate id: under
          analyze --emit-certs the bundle contains certs/<certId>.json *)
       ("properties", J.Vobj [ ("certId", J.Vstr fp) ]) ]
    @ match flows with Some fl -> [ ("codeFlows", fl) ] | None -> [])

let results_of_input (i : input) =
  List.map
    (fun (fp, f) -> result_json ~uri:i.i_file fp f)
    (Fingerprint.of_report i.i_ctx i.i_report)

(* -- Top level ------------------------------------------------------------------- *)

let log ~tool_version (inputs : input list) =
  let driver =
    J.Vobj
      [ ("name", J.Vstr "safeflow");
        ("version", J.Vstr tool_version);
        ("informationUri", J.Vstr "https://doi.org/10.1109/DSN.2006.64");
        ("rules", J.Varr (List.map rule_json Report.rules)) ]
  in
  let artifacts =
    List.map (fun i -> J.Vobj [ ("location", J.Vobj [ ("uri", J.Vstr i.i_file) ]) ]) inputs
  in
  let run =
    J.Vobj
      [ ("tool", J.Vobj [ ("driver", driver) ]);
        ("artifacts", J.Varr artifacts);
        ("results", J.Varr (List.concat_map results_of_input inputs)) ]
  in
  J.Vobj
    [ ("$schema", J.Vstr schema_uri);
      ("version", J.Vstr sarif_version);
      ("runs", J.Varr [ run ]) ]

let to_string ?(tool_version = Version.tool) inputs = J.render (log ~tool_version inputs) ^ "\n"

let write ?(tool_version = Version.tool) path inputs =
  let oc = open_out path in
  J.to_channel oc (log ~tool_version inputs);
  output_char oc '\n';
  close_out oc
