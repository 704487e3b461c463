(* Certificate emission: the analyzer-side counterpart of the [checker]
   library.  Everything here is *recording*, not proving — each
   certificate carries exactly the facts the independent checker needs
   to re-verify a finding or a discharged obligation with local checks
   (hash chains, interval evaluation, core substitution), and the
   emitter uses {!Checker.refutable} as an oracle so it never records an
   Omega core the checker's bounded Fourier–Motzkin refuter cannot
   replay.

   Encodings must match the checker's decoders byte for byte:
   - wide integers (interval bounds, linexpr coefficients/constants)
     travel as JSON strings — values near 2^62 exceed double precision;
   - intervals: [null] is Bot, else [{"lo":str|null,"hi":str|null}]
     with [null] bounds meaning ±∞;
   - constraints: [{"op":"eq"|"geq","terms":[[var,coeff]...],"const":c}]
     meaning op(Σ terms + const, 0), terms in ascending variable order
     (what [Vmap.bindings] yields);
   - witness steps: each step's [link] is {!Checker.step_link} over its
     content and the previous step's link. *)

open Minic
module J = Jsonlite

let schema = Checker.schema
let explain_schema = "safeflow-explain/1"
let md5_hex = Checker.md5_hex

(* ---- JSON encoders ------------------------------------------------------ *)

let num n = J.Num (float_of_int n)
let wide n = J.Str (string_of_int n)

let lin_fields (e : Omega.Linexpr.t) =
  let terms =
    Omega.Linexpr.Vmap.bindings e.Omega.Linexpr.coeffs
    |> List.filter (fun (_, k) -> k <> 0)
    |> List.map (fun (v, k) -> J.Arr [ J.Str v; wide k ])
  in
  [ ("terms", J.Arr terms); ("const", wide e.Omega.Linexpr.const) ]

let cstr_json (c : Omega.cstr) : J.t =
  match c with
  | Omega.Eq e -> J.Obj (("op", J.Str "eq") :: lin_fields e)
  | Omega.Geq e -> J.Obj (("op", J.Str "geq") :: lin_fields e)

let loc_fields (l : Loc.t) =
  [ ("file", J.Str l.Loc.file); ("line", num l.Loc.line); ("col", num l.Loc.col) ]

let steps_json (steps : Report.path_step list) : J.t =
  let rec go prev acc = function
    | [] -> List.rev acc
    | (s : Report.path_step) :: rest ->
      let link =
        Checker.step_link ~desc:s.Report.p_desc ~why:s.Report.p_why
          ~key:s.Report.p_key ~prev
      in
      let sj =
        J.Obj
          [
            ("desc", J.Str s.Report.p_desc);
            ("why", match s.Report.p_why with None -> J.Null | Some w -> J.Str w);
            ("key", J.Str s.Report.p_key);
            ("parent", match s.Report.p_parent with None -> J.Null | Some p -> J.Str p);
            ("link", J.Str link);
          ]
      in
      go link (sj :: acc) rest
  in
  J.Arr (go "" [] steps)

let restriction_name = function
  | Report.P1 -> "P1"
  | Report.P2 -> "P2"
  | Report.P3 -> "P3"
  | Report.A1 -> "A1"
  | Report.A2 -> "A2"

let dep_kind_name = function Report.Data -> "data" | Report.Control_only -> "control"

(* ---- finding reconstruction (the fingerprint binding check) ------------- *)

exception Bind of string

let bindf fmt = Fmt.kstr (fun m -> raise (Bind m)) fmt

let gfield name j =
  match J.member name j with Some v -> v | None -> bindf "missing field %S" name

let gstr name j =
  match J.to_string (gfield name j) with
  | Some s -> s
  | None -> bindf "non-string field %S" name

let gint name j =
  match J.to_int (gfield name j) with
  | Some n -> n
  | None -> bindf "non-integer field %S" name

let restriction_of_name = function
  | "P1" -> Report.P1
  | "P2" -> Report.P2
  | "P3" -> Report.P3
  | "A1" -> Report.A1
  | "A2" -> Report.A2
  | s -> bindf "unknown restriction %S" s

let dep_kind_of_name = function
  | "data" -> Report.Data
  | "control" -> Report.Control_only
  | s -> bindf "unknown dependency kind %S" s

let loc_of_cert j =
  Loc.make ~file:(gstr "file" j) ~line:(gint "line" j) ~col:(gint "col" j)

(* rebuild the finding a certificate describes; only the fields
   {!Fingerprint.compute} consumes matter, the rest stay empty *)
let finding_of_cert j : Fingerprint.finding =
  match gstr "finding" j with
  | "violation" ->
    Fingerprint.Violation
      {
        Report.v_rule = restriction_of_name (gstr "rule" j);
        v_func = gstr "func" j;
        v_loc = loc_of_cert j;
        v_msg = gstr "msg" j;
      }
  | "warning" ->
    Fingerprint.Warning
      {
        Report.w_func = gstr "func" j;
        w_region = gstr "region" j;
        w_loc = loc_of_cert j;
        w_context = [];
      }
  | "dependency" ->
    Fingerprint.Dependency
      {
        Report.d_kind = dep_kind_of_name (gstr "dep_kind" j);
        d_sink = gstr "sink" j;
        d_func = gstr "func" j;
        d_loc = loc_of_cert j;
        d_trace = [];
        d_path = [];
      }
  | k -> bindf "unknown finding class %S" k

let check_finding_binding (ir : Ssair.Ir.program) : J.t -> (unit, string) result =
  let ctx = Fingerprint.ctx_of_program ir in
  fun cert ->
    match
      let f = finding_of_cert cert in
      let fp = Fingerprint.compute ctx f in
      if fp <> gstr "id" cert then
        bindf "recomputed fingerprint %s does not match the certificate id" fp
    with
    | () -> Ok ()
    | exception Bind m -> Error m

(* ---- finding / witness certificates ------------------------------------- *)

let header ~kind ~id = [ ("schema", J.Str schema); ("kind", J.Str kind); ("id", J.Str id) ]

let violation_cert ~id (v : Report.violation) =
  J.Obj
    (header ~kind:"finding" ~id
    @ [
        ("finding", J.Str "violation");
        ("rule", J.Str (restriction_name v.Report.v_rule));
        ("func", J.Str v.Report.v_func);
      ]
    @ loc_fields v.Report.v_loc
    @ [ ("msg", J.Str v.Report.v_msg) ])

let warning_cert ~id (w : Report.warning) =
  J.Obj
    (header ~kind:"finding" ~id
    @ [
        ("finding", J.Str "warning");
        ("region", J.Str w.Report.w_region);
        ("func", J.Str w.Report.w_func);
      ]
    @ loc_fields w.Report.w_loc
    @ [ ("context", J.Arr (List.map (fun c -> J.Str c) w.Report.w_context)) ])

(* a dependency with an empty recorded path still gets a one-step chain
   anchored at its sink, so the witness chain is never vacuous *)
let dep_steps (d : Report.dependency) =
  match d.Report.d_path with
  | [] ->
    [ { Report.p_desc = d.Report.d_sink; p_why = None; p_key = ""; p_parent = None } ]
  | steps -> steps

let witness_cert ~id (d : Report.dependency) =
  J.Obj
    (header ~kind:"witness" ~id
    @ [
        ("finding", J.Str "dependency");
        ("dep_kind", J.Str (dep_kind_name d.Report.d_kind));
        ("sink", J.Str d.Report.d_sink);
        ("func", J.Str d.Report.d_func);
      ]
    @ loc_fields d.Report.d_loc
    @ [
        ("trace", J.Arr (List.map (fun s -> J.Str s) d.Report.d_trace));
        ("steps", steps_json (dep_steps d));
      ])

(* ---- site certificates (P1–P3 Site_ok ledger entries) -------------------- *)

let site_certs (ledger : Ledger.entry list) : (string * string * J.t) list =
  let seq = Hashtbl.create 16 in
  List.filter_map
    (fun (e : Ledger.entry) ->
      if e.Ledger.l_discharge <> Ledger.Site_ok then None
      else begin
        let key =
          String.concat "|"
            [
              e.Ledger.l_rule;
              e.Ledger.l_func;
              e.Ledger.l_loc.Loc.file;
              string_of_int e.Ledger.l_loc.Loc.line;
              string_of_int e.Ledger.l_loc.Loc.col;
              e.Ledger.l_region;
            ]
        in
        let n = Option.value ~default:0 (Hashtbl.find_opt seq key) in
        Hashtbl.replace seq key (n + 1);
        let id = md5_hex (String.concat "|" [ "site"; key; string_of_int n ]) in
        let cert =
          J.Obj
            (header ~kind:"site" ~id
            @ [ ("rule", J.Str e.Ledger.l_rule); ("func", J.Str e.Ledger.l_func) ]
            @ loc_fields e.Ledger.l_loc
            @ [ ("region", J.Str e.Ledger.l_region) ])
        in
        Some (id, "site", cert)
      end)
    ledger

(* ---- obligation certificates (A1/A2 bounds) ------------------------------ *)

type side_fail =
  | Side_failed  (* the analysis did not discharge this side either *)
  | Side_unreplayable of string  (* discharged, but the checker cannot replay it *)

(* certify one side phase 2 refuted with Omega: find a core of its
   constraint pool the independent refuter replays — the solver's
   deletion-minimal core first, the oracle-minimized full pool as
   fallback *)
let certify_omega_side ~fuel ~pool goal : (J.t, side_fail) result =
  let goal_j = cstr_json goal in
  let replayable core = Checker.refutable (goal_j :: List.map cstr_json core) in
  let core =
    match Omega.unsat_core ~fuel [ goal ] pool with
    | Some c when replayable c -> Some c
    | _ ->
      if not (replayable pool) then None
      else begin
        (* deletion-minimize with the checker itself as the oracle *)
        let rec shrink kept = function
          | [] -> List.rev kept
          | c :: rest ->
            if replayable (List.rev_append kept rest) then shrink kept rest
            else shrink (c :: kept) rest
        in
        Some (shrink [] pool)
      end
  in
  match core with
  | Some core ->
    Ok
      (J.Obj
         [ ("by", J.Str "omega"); ("goal", goal_j); ("core", J.Arr (List.map cstr_json core)) ])
  | None -> Error (Side_unreplayable "Omega verdict not replayable by the independent refuter")

(* One certificate per discharged obligation, read off phase 2's
   records: nothing is re-derived or re-decided here.  An obligation
   phase 2 failed has a finding certificate instead. *)
let obligation_certs ~(config : Config.t) (ph2 : Phase2.result) :
    (string * string * J.t) list * (string * string) list =
  let fuel = config.Config.omega_fuel in
  let certs = ref [] and skipped = ref [] in
  let seq_tbl = Hashtbl.create 32 in
  List.iter
    (fun (ob : Phase2.obligation) ->
      let loc = ob.Phase2.ob_loc and r = ob.Phase2.ob_region in
      let key =
        String.concat "|"
          [
            ob.Phase2.ob_func;
            loc.Loc.file;
            string_of_int loc.Loc.line;
            string_of_int loc.Loc.col;
            r.Shm.r_name;
          ]
      in
      let seq = Option.value ~default:0 (Hashtbl.find_opt seq_tbl key) in
      Hashtbl.replace seq_tbl key (seq + 1);
      let mk_id rule = md5_hex (String.concat "|" [ "oblig"; rule; key; string_of_int seq ]) in
      let cert ~rule ~discharge ~index extra =
        certs :=
          ( mk_id rule,
            "obligation",
            J.Obj
              (header ~kind:"obligation" ~id:(mk_id rule)
              @ [ ("rule", J.Str rule); ("func", J.Str ob.Phase2.ob_func) ]
              @ loc_fields loc
              @ [
                  ("iid", num ob.Phase2.ob_iid);
                  ("bid", num ob.Phase2.ob_bid);
                  ("region", J.Str r.Shm.r_name);
                  ("region_size", num r.Shm.r_size);
                  ("base_off", num ob.Phase2.ob_base_off);
                  ("elsize", num ob.Phase2.ob_elsize);
                  ("bound", num ob.Phase2.ob_bound);
                  ("discharge", J.Str discharge);
                  ("index", index);
                ]
              @ extra) )
          :: !certs
      in
      match ob.Phase2.ob_index with
      | Phase2.Const n ->
        (* in range: pure arithmetic for the checker; out of range, the
           violation's finding certificate covers the verdict *)
        if n >= 0 && n < ob.Phase2.ob_bound then
          cert ~rule:"A1" ~discharge:"const"
            ~index:(J.Obj [ ("kind", J.Str "const"); ("value", num n) ])
            []
      | Phase2.Counted { rule; low; high } -> (
        let side = function
          | Phase2.By_ranges -> Ok (J.Obj [ ("by", J.Str "ranges") ])
          | Phase2.By_omega { goal; pool; _ } -> certify_omega_side ~fuel ~pool goal
          | Phase2.Undecided _ -> Error Side_failed
        in
        match (side low, side high) with
        | Ok lj, Ok hj ->
          let discharge =
            match (low, high) with
            | Phase2.By_ranges, Phase2.By_ranges -> "ranges"
            | Phase2.By_omega _, Phase2.By_omega _ -> "omega"
            | _ -> "omega+ranges"
          in
          cert ~rule ~discharge
            ~index:(J.Obj [ ("kind", J.Str "counted") ])
            [ ("sides", J.Obj [ ("low", lj); ("high", hj) ]) ]
        | lo, hi ->
          let reasons =
            List.filter_map
              (fun (name, s) ->
                match s with
                | Error (Side_unreplayable m) -> Some (name ^ " side: " ^ m)
                | _ -> None)
              [ ("low", lo); ("high", hi) ]
          in
          (* only unreplayable sides are worth reporting: an undischarged
             side means the analysis failed the obligation too, and the
             violation's finding certificate carries that verdict *)
          if reasons <> [] then skipped := (mk_id rule, String.concat "; " reasons) :: !skipped))
    ph2.Phase2.obligations;
  (List.rev !certs, List.rev !skipped)

(* ---- absenv snapshot ----------------------------------------------------- *)

(* written from the summary views, one function's value at a time
   ([Vlist]), with no tree of the whole snapshot: [null] is Bot, a
   [null] bound is infinite *)
let itv_json (itv : Absint.Itv.t) : J.value =
  match itv with
  | Absint.Itv.Bot -> J.Vnull
  | Absint.Itv.Iv (lo, hi) ->
    let b = function
      | Absint.Itv.Fin n -> J.Vstr (string_of_int n)
      | Absint.Itv.MInf | Absint.Itv.PInf -> J.Vnull
    in
    J.Vobj [ ("lo", b lo); ("hi", b hi) ]

let absenv_json (ai : Absint.t) : J.value =
  let func (v : Absint.summary_view) =
    J.Vobj
      [
        ("func", J.Vstr v.Absint.sv_func);
        ( "params",
          J.Vlist ((fun (p, itv) -> J.Varr [ J.Vstr p; itv_json itv ]), v.Absint.sv_params) );
        ( "env",
          J.Vlist ((fun (vid, itv) -> J.Varr [ J.Vint vid; itv_json itv ]), v.Absint.sv_env) );
        ("ret", itv_json v.Absint.sv_ret);
        ("ret_raw", itv_json v.Absint.sv_ret_raw);
      ]
  in
  J.Vobj [ ("schema", J.Vstr schema); ("funcs", J.Vlist (func, Absint.summary_views ai)) ]

(* ---- manifest ------------------------------------------------------------ *)

let manifest_json ~label ~(digests : Digest_ir.t) ~(config : Config.t) ~absint_on
    ~absenv_entry ~entries ~skipped ~ledger =
  let recon = Ledger.reconcile ledger in
  let kind_counts =
    let t = Hashtbl.create 4 in
    List.iter
      (fun (_, kind, _, _) ->
        Hashtbl.replace t kind (1 + Option.value ~default:0 (Hashtbl.find_opt t kind)))
      entries;
    Hashtbl.fold (fun k n acc -> (k, num n) :: acc) t []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  J.Obj
    [
      ("schema", J.Str schema);
      ("file", J.Str label);
      ("program", J.Str digests.Digest_ir.program);
      ("env", J.Str digests.Digest_ir.env);
      ("semantic_config", J.Str (Digest_ir.semantic_config config));
      (* the manifest layout predates the single phase-3 engine *)
      ("engine", J.Str "worklist");
      ("absint", J.Bool absint_on);
      ("absenv", absenv_entry);
      ( "certs",
        J.Arr
          (List.map
             (fun (id, kind, path, digest) ->
               J.Obj
                 [
                   ("id", J.Str id);
                   ("kind", J.Str kind);
                   ("path", J.Str path);
                   ("digest", J.Str digest);
                 ])
             entries) );
      ( "skipped",
        J.Arr
          (List.map
             (fun (id, reason) ->
               J.Obj [ ("id", J.Str id); ("reason", J.Str reason) ])
             skipped) );
      ( "reconciliation",
        J.Obj
          [
            ("emitted", J.Obj kind_counts);
            ( "ledger",
              J.Obj
                [
                  ("ranges", num recon.Ledger.r_ranges);
                  ("omega", num recon.Ledger.r_omega);
                  ("failed", num recon.Ledger.r_failed);
                  ("total", num recon.Ledger.r_total);
                  ("queries", num recon.Ledger.r_queries);
                  ("avoided", num recon.Ledger.r_avoided);
                ] );
          ] );
    ]

(* ---- bundle emission ----------------------------------------------------- *)

type summary = {
  cs_dir : string;
  cs_written : int;
  cs_kinds : (string * int) list;
  cs_skipped : (string * string) list;
}

let regions_of (d : Driver.detail) =
  List.map (fun (r : Shm.region) -> (r.Shm.r_name, r.Shm.r_size)) d.Driver.shm.Shm.regions

let mkdir_p dir =
  let rec go d =
    if d <> "" && d <> "." && d <> "/" && not (Sys.file_exists d) then begin
      go (Filename.dirname d);
      try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end
  in
  go dir

let write_file path body =
  let oc = open_out_bin path in
  output_string oc body;
  close_out oc

(* a certificate as the file it becomes: (id, kind, path, body, digest) *)
let encode (id, kind, j) =
  let body = J.emit j in
  (id, kind, "certs/" ^ id ^ ".json", body, md5_hex body)

(* Under one [cert.emit] span, each part of the bundle has a child: the
   finding and witness certificates, the site and obligation
   certificates, the value-range snapshot, the manifest, the self-check
   and the file writes. *)
let emit_bundle ?(config = Config.default) ~label ~dir (an : Driver.analysis) :
    (summary, string) result =
  let d = Lazy.force an.Driver.detail in
  Telemetry.span "cert.emit" @@ fun () ->
  let ir = d.Driver.prepared.Driver.ir in
  (* every certificate, in report order: findings and witnesses first
     (keyed by fingerprint), then P1–P3 sites, then A1/A2 obligations *)
  let finding_files =
    Telemetry.span "cert.findings" @@ fun () ->
    let seen = Hashtbl.create 64 in
    List.filter_map
      (fun (fp, f) ->
        if Hashtbl.mem seen fp then None
        else begin
          Hashtbl.replace seen fp ();
          match f with
          | Fingerprint.Violation v -> Some (encode (fp, "finding", violation_cert ~id:fp v))
          | Fingerprint.Warning w -> Some (encode (fp, "finding", warning_cert ~id:fp w))
          | Fingerprint.Dependency d -> Some (encode (fp, "witness", witness_cert ~id:fp d))
          | Fingerprint.Info _ -> None
        end)
      (Fingerprint.of_report an.Driver.fingerprints an.Driver.report)
  in
  let oblig_files, skipped0 =
    Telemetry.span "cert.obligations" @@ fun () ->
    let obligs, skipped = obligation_certs ~config d.Driver.phase2 in
    (List.map encode (site_certs an.Driver.ledger @ obligs), skipped)
  in
  let files = finding_files @ oblig_files in
  let absint_on = d.Driver.absint <> None in
  let absenv_file =
    Telemetry.span "cert.absenv" @@ fun () ->
    Option.map
      (fun ai ->
        let body = J.render (absenv_json ai) in
        ("absenv.json", body, md5_hex body))
      d.Driver.absint
  in
  let absenv_entry =
    match absenv_file with
    | None -> J.Null
    | Some (path, _, digest) ->
      J.Obj [ ("path", J.Str path); ("digest", J.Str digest) ]
  in
  let build_manifest digests entries skipped =
    manifest_json ~label ~digests ~config ~absint_on ~absenv_entry
      ~entries:(List.map (fun (id, kind, path, _, digest) -> (id, kind, path, digest)) entries)
      ~skipped ~ledger:an.Driver.ledger
  in
  let digests, manifest0 =
    Telemetry.span "cert.manifest" @@ fun () ->
    let digests = Digest_ir.of_program ir in
    (digests, build_manifest digests files skipped0)
  in
  (* in-memory self-check with the independent checker: a certificate it
     rejects is demoted to [skipped] rather than shipped *)
  let load path =
    match List.find_opt (fun (_, _, p, _, _) -> p = path) files with
    | Some (_, _, _, body, _) -> Ok body
    | None -> (
      match absenv_file with
      | Some (p, body, _) when p = path -> Ok body
      | _ -> Error ("no such bundle file " ^ path))
  in
  let expect = [ ("program", digests.Digest_ir.program); ("env", digests.Digest_ir.env) ] in
  let outcome =
    Telemetry.span "cert.check" @@ fun () ->
    Checker.validate ~ir ~regions:(regions_of d) ~expect
      ~check_finding:(check_finding_binding ir) ~manifest:manifest0 ~load ()
  in
  let fatal =
    List.find_opt
      (fun (f : Checker.failure) ->
        f.Checker.ce_id = "<manifest>" || f.Checker.ce_id = "<absenv>")
      outcome.Checker.failures
  in
  match fatal with
  | Some f ->
    Error (Printf.sprintf "self-check failed (%s): %s" f.Checker.ce_id f.Checker.ce_msg)
  | None -> (
    let rejected =
      List.map (fun (f : Checker.failure) -> (f.Checker.ce_id, f.Checker.ce_msg))
        outcome.Checker.failures
    in
    let entries =
      List.filter (fun (id, _, _, _, _) -> not (List.mem_assoc id rejected)) files
    in
    let skipped =
      skipped0
      @ List.map (fun (id, msg) -> (id, "self-check: " ^ msg)) rejected
    in
    Telemetry.span "cert.write" (fun () ->
        let manifest =
          if rejected = [] then manifest0 else build_manifest digests entries skipped
        in
        mkdir_p (Filename.concat dir "certs");
        List.iter
          (fun (_, _, path, body, _) -> write_file (Filename.concat dir path) body)
          entries;
        (match absenv_file with
        | Some (path, body, _) -> write_file (Filename.concat dir path) body
        | None -> ());
        write_file (Filename.concat dir "manifest.json") (J.emit manifest));
    let kinds =
      let t = Hashtbl.create 4 in
      List.iter
        (fun (_, kind, _, _, _) ->
          Hashtbl.replace t kind
            (1 + Option.value ~default:0 (Hashtbl.find_opt t kind)))
        entries;
      Hashtbl.fold (fun k n acc -> (k, n) :: acc) t []
      |> List.sort (fun (a, _) (b, _) -> compare a b)
    in
    Ok
      {
        cs_dir = dir;
        cs_written = List.length entries;
        cs_kinds = kinds;
        cs_skipped = skipped;
      })

let bundle_dir root path =
  Filename.concat root (Filename.remove_extension (Filename.basename path))

(* against a fresh parse, never the pipeline's own structures *)
let check_bundle ~label src dir =
  let prep = Driver.prepare_source ~file:label src in
  let ir = prep.Driver.ir in
  let regions =
    List.map (fun (rg : Shm.region) -> (rg.Shm.r_name, rg.Shm.r_size))
      (Driver.stage_shm prep).Shm.regions
  in
  let d = Digest_ir.of_program ir in
  Checker.validate_bundle ~ir ~regions
    ~expect:[ ("program", d.Digest_ir.program); ("env", d.Digest_ir.env) ]
    ~check_finding:(check_finding_binding ir) dir

(* ---- explain --json ------------------------------------------------------ *)

let explain_json ~label (an : Driver.analysis) : J.t =
  let fp_ctx = an.Driver.fingerprints in
  let digests = Digest_ir.of_program (Lazy.force an.Driver.detail).Driver.prepared.Driver.ir in
  let violations = ref [] and warnings = ref [] and deps = ref [] and infos = ref [] in
  List.iter
    (fun (fp, f) ->
      match f with
      | Fingerprint.Violation v -> violations := violation_cert ~id:fp v :: !violations
      | Fingerprint.Warning w -> warnings := warning_cert ~id:fp w :: !warnings
      | Fingerprint.Dependency d -> deps := witness_cert ~id:fp d :: !deps
      | Fingerprint.Info i ->
        infos :=
          J.Obj
            ([
               ("id", J.Str fp);
               ("code", J.Str (Report.code_of_info i));
               ("func", J.Str i.Report.i_func);
             ]
            @ loc_fields i.Report.i_loc
            @ [ ("msg", J.Str i.Report.i_msg) ])
          :: !infos)
    (Fingerprint.of_report fp_ctx an.Driver.report);
  J.Obj
    [
      ("schema", J.Str explain_schema);
      ("file", J.Str label);
      ("program", J.Str digests.Digest_ir.program);
      ("fingerprint_version", J.Str Fingerprint.version);
      ("violations", J.Arr (List.rev !violations));
      ("warnings", J.Arr (List.rev !warnings));
      ("dependencies", J.Arr (List.rev !deps));
      ("infos", J.Arr (List.rev !infos));
    ]
