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
module Offset = Pointsto.Offset

let schema = Checker.schema
let explain_schema = "safeflow-explain/1"
let md5_hex = Checker.md5_hex

(* ---- JSON encoders ------------------------------------------------------ *)

let num n = J.Num (float_of_int n)
let wide n = J.Str (string_of_int n)

let itv_json (itv : Absint.Itv.t) : J.t =
  match itv with
  | Absint.Itv.Bot -> J.Null
  | Absint.Itv.Iv (lo, hi) ->
    let b = function Absint.Itv.Fin n -> wide n | Absint.Itv.MInf | Absint.Itv.PInf -> J.Null in
    J.Obj [ ("lo", b lo); ("hi", b hi) ]

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

(* phase 2's opacity test, applied to a fresh affine context: symbols
   that are neither loop phis nor parameters make the obligation A2 *)
let opaque_syms (actx : Phase2.affine_ctx) (e : Omega.Linexpr.t) =
  List.exists
    (fun sym ->
      match
        if String.length sym > 1 && sym.[0] = 'v' then
          int_of_string_opt (String.sub sym 1 (String.length sym - 1))
        else None
      with
      | None -> not (String.length sym > 2 && String.sub sym 0 2 = "p_")
      | Some id -> (
        match Hashtbl.find_opt actx.Phase2.defs id with
        | Some (Ssair.Ir.Def_phi _) -> false
        | _ -> true))
    (Omega.Linexpr.vars e)

type side_fail =
  | Side_failed  (* the analysis did not discharge this side either *)
  | Side_unreplayable of string  (* discharged, but the checker cannot replay it *)

(* certify one Omega side: re-decide the query exactly as phase 2 did,
   then find a core the independent refuter replays — the solver's
   deletion-minimal core first, the oracle-minimized full pool as
   fallback *)
let certify_omega_side ~fuel ~doms ~inds ~hyps goal :
    (J.t * [ `Omega | `Ranges ], side_fail) result =
  let feas cs = Omega.feasible ~fuel cs in
  let constraints = doms @ inds in
  let verdict =
    match hyps with
    | [] -> feas (goal :: constraints)
    | _ -> (
      match feas ((goal :: hyps) @ constraints) with
      | Omega.Unsat -> Omega.Unsat
      | Omega.Sat | Omega.Unknown -> feas (goal :: constraints))
  in
  match verdict with
  | Omega.Sat | Omega.Unknown -> Error Side_failed
  | Omega.Unsat -> (
    let pool = constraints @ hyps in
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
        ( J.Obj
            [
              ("by", J.Str "omega");
              ("goal", goal_j);
              ("core", J.Arr (List.map cstr_json core));
            ],
          `Omega )
    | None ->
      Error
        (Side_unreplayable
           "Omega verdict not replayable by the independent refuter"))

let obligation_certs ~(config : Config.t) (d : Driver.detail) :
    (string * string * J.t) list * (string * string) list =
  if not config.Config.check_restrictions then ([], [])
  else begin
    let prog = d.Driver.prepared.Driver.ir in
    let p1 = d.Driver.phase1 in
    let fuel = config.Config.omega_fuel in
    let certs = ref [] and skipped = ref [] in
    let seq_tbl = Hashtbl.create 32 in
    let emit_one (f : Ssair.Ir.func) bid (i : Ssair.Ir.instr) idx elsize
        (r : Shm.region) base_off aq =
      let bound = (r.Shm.r_size - base_off) / elsize in
      let loc = i.Ssair.Ir.iloc in
      let key =
        String.concat "|"
          [
            f.Ssair.Ir.fname;
            loc.Loc.file;
            string_of_int loc.Loc.line;
            string_of_int loc.Loc.col;
            r.Shm.r_name;
          ]
      in
      let seq = Option.value ~default:0 (Hashtbl.find_opt seq_tbl key) in
      Hashtbl.replace seq_tbl key (seq + 1);
      let mk_id rule =
        md5_hex (String.concat "|" [ "oblig"; rule; key; string_of_int seq ])
      in
      let base_fields ~rule ~discharge ~index =
        header ~kind:"obligation" ~id:(mk_id rule)
        @ [ ("rule", J.Str rule); ("func", J.Str f.Ssair.Ir.fname) ]
        @ loc_fields loc
        @ [
            ("iid", num i.Ssair.Ir.iid);
            ("bid", num bid);
            ("region", J.Str r.Shm.r_name);
            ("region_size", num r.Shm.r_size);
            ("base_off", num base_off);
            ("elsize", num elsize);
            ("bound", num bound);
            ("discharge", J.Str discharge);
            ("index", index);
          ]
      in
      match idx with
      | Ssair.Ir.Vint (n64, _) ->
        let n = Int64.to_int n64 in
        if n >= 0 && n < bound then
          (* in-range constant: pure arithmetic for the checker *)
          certs :=
            ( mk_id "A1",
              "obligation",
              J.Obj
                (base_fields ~rule:"A1" ~discharge:"const"
                   ~index:(J.Obj [ ("kind", J.Str "const"); ("value", num n) ])) )
            :: !certs
        (* out of range ⇒ the analysis reported a violation; its finding
           certificate covers the verdict, no obligation cert to emit *)
      | _ -> (
        (* counted obligation: fresh affine context in the canonical
           derivation order (index expression, dominating constraints,
           induction facts, range hypotheses) so the fresh "u<n>" symbols
           line up with the checker's own re-derivation *)
        let actx = Phase2.mk_affine_ctx f in
        let idx_e = Phase2.affine_of_value actx idx in
        let doms = Phase2.dominating_constraints actx bid in
        let inds = Phase2.induction_constraints actx idx_e in
        let hyps = Phase2.range_hypotheses aq ~bid idx_e in
        let rule = if opaque_syms actx idx_e then "A2" else "A1" in
        let rng = Option.map (fun q -> Absint.range_of_value q ~at:bid idx) aq in
        let lo_proved =
          match rng with
          | Some r ->
            Absint.Itv.is_bot r
            || (match Absint.Itv.finite_lo r with Some l -> l >= 0 | None -> false)
          | None -> false
        in
        let hi_proved =
          match rng with
          | Some r -> (
            Absint.Itv.is_bot r
            ||
            match Absint.Itv.finite_hi r with
            | Some h -> h <= bound - 1
            | None -> false)
          | None -> false
        in
        let side proved goal =
          if proved then Ok (J.Obj [ ("by", J.Str "ranges") ], `Ranges)
          else certify_omega_side ~fuel ~doms ~inds ~hyps goal
        in
        let low = side lo_proved (Omega.le idx_e (Omega.Linexpr.const (-1))) in
        let high = side hi_proved (Omega.ge idx_e (Omega.Linexpr.const bound)) in
        match (low, high) with
        | Ok (lj, lt), Ok (hj, ht) ->
          let discharge =
            match (lt, ht) with
            | `Ranges, `Ranges -> "ranges"
            | `Omega, `Omega -> "omega"
            | _ -> "omega+ranges"
          in
          certs :=
            ( mk_id rule,
              "obligation",
              J.Obj
                (base_fields ~rule ~discharge
                   ~index:(J.Obj [ ("kind", J.Str "counted") ])
                @ [ ("sides", J.Obj [ ("low", lj); ("high", hj) ]) ]) )
            :: !certs
        | _ ->
          let reasons =
            List.filter_map
              (fun (name, s) ->
                match s with
                | Error (Side_unreplayable m) -> Some (name ^ " side: " ^ m)
                | _ -> None)
              [ ("low", low); ("high", high) ]
          in
          (* only unreplayable sides are worth reporting: an undischarged
             side means the analysis failed the obligation too, and the
             violation's finding certificate carries that verdict *)
          if reasons <> [] then
            skipped := (mk_id rule, String.concat "; " reasons) :: !skipped)
    in
    Array.iteri
      (fun fx (f : Ssair.Ir.func) ->
        if not (Phase1.exempt_fx p1 fx) then begin
          let aq =
            lazy (Option.map (fun ai -> Absint.query_ctx ai f) d.Driver.absint)
          in
          List.iter
            (fun (b : Ssair.Ir.block) ->
              List.iter
                (fun (i : Ssair.Ir.instr) ->
                  match i.Ssair.Ir.idesc with
                  | Ssair.Ir.Gep { base; kind = Ssair.Ir.Gindex elt; idx } ->
                    let targets = Phase1.targets p1 fx base in
                    if not (Phase1.Rset.is_empty targets) then begin
                      let elsize = max 1 (Ty.sizeof prog.Ssair.Ir.env elt) in
                      Phase1.Rset.iter
                        (fun tgt ->
                          match Shm.region p1.Phase1.shm tgt.Phase1.Rtgt.region with
                          | None -> ()
                          | Some r -> (
                            match tgt.Phase1.Rtgt.off with
                            | Offset.Top -> () (* A2 violation; finding cert *)
                            | Offset.Byte base_off ->
                              emit_one f b.Ssair.Ir.bbid i idx elsize r base_off
                                (Lazy.force aq)))
                        targets
                    end
                  | _ -> ())
                b.Ssair.Ir.instrs)
            f.Ssair.Ir.blocks
        end)
      p1.Phase1.index.Ssair.Index.funcs;
    (List.rev !certs, List.rev !skipped)
  end

(* ---- absenv snapshot ----------------------------------------------------- *)

let absenv_json (ai : Absint.t) : J.t =
  J.Obj
    [
      ("schema", J.Str schema);
      ( "funcs",
        J.Arr
          (List.map
             (fun (v : Absint.summary_view) ->
               J.Obj
                 [
                   ("func", J.Str v.Absint.sv_func);
                   ( "params",
                     J.Arr
                       (List.map
                          (fun (p, itv) -> J.Arr [ J.Str p; itv_json itv ])
                          v.Absint.sv_params) );
                   ( "env",
                     J.Arr
                       (List.map
                          (fun (vid, itv) -> J.Arr [ num vid; itv_json itv ])
                          v.Absint.sv_env) );
                   ("ret", itv_json v.Absint.sv_ret);
                   ("ret_raw", itv_json v.Absint.sv_ret_raw);
                 ])
             (Absint.summary_views ai)) );
    ]

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

let emit_bundle ?(config = Config.default) ~label ~dir (an : Driver.analysis) :
    (summary, string) result =
  let d = Lazy.force an.Driver.detail in
  let ir = d.Driver.prepared.Driver.ir in
  let digests = Digest_ir.of_program ir in
  (* every certificate, in report order: findings and witnesses first
     (keyed by fingerprint), then P1–P3 sites, then A1/A2 obligations *)
  let fp_ctx = an.Driver.fingerprints in
  let finding_certs =
    let seen = Hashtbl.create 64 in
    List.filter_map
      (fun (fp, f) ->
        if Hashtbl.mem seen fp then None
        else begin
          Hashtbl.replace seen fp ();
          match f with
          | Fingerprint.Violation v -> Some (fp, "finding", violation_cert ~id:fp v)
          | Fingerprint.Warning w -> Some (fp, "finding", warning_cert ~id:fp w)
          | Fingerprint.Dependency d -> Some (fp, "witness", witness_cert ~id:fp d)
          | Fingerprint.Info _ -> None
        end)
      (Fingerprint.of_report fp_ctx an.Driver.report)
  in
  let obligs, skipped0 = obligation_certs ~config d in
  let all_certs = finding_certs @ site_certs an.Driver.ledger @ obligs in
  let files =
    List.map
      (fun (id, kind, j) ->
        let body = J.emit j in
        (id, kind, "certs/" ^ id ^ ".json", body, md5_hex body))
      all_certs
  in
  let absint_on = d.Driver.absint <> None in
  let absenv_file =
    match d.Driver.absint with
    | None -> None
    | Some ai ->
      let body = J.emit (absenv_json ai) in
      Some ("absenv.json", body, md5_hex body)
  in
  let absenv_entry =
    match absenv_file with
    | None -> J.Null
    | Some (path, _, digest) ->
      J.Obj [ ("path", J.Str path); ("digest", J.Str digest) ]
  in
  let build_manifest entries skipped =
    manifest_json ~label ~digests ~config ~absint_on ~absenv_entry
      ~entries:(List.map (fun (id, kind, path, _, digest) -> (id, kind, path, digest)) entries)
      ~skipped ~ledger:an.Driver.ledger
  in
  (* in-memory self-check with the independent checker: a certificate it
     rejects is demoted to [skipped] rather than shipped *)
  let load_from files path =
    match
      List.find_opt (fun (_, _, p, _, _) -> p = path) files
    with
    | Some (_, _, _, body, _) -> Ok body
    | None -> (
      match absenv_file with
      | Some (p, body, _) when p = path -> Ok body
      | _ -> Error ("no such bundle file " ^ path))
  in
  let entries0 = files in
  let expect = [ ("program", digests.Digest_ir.program); ("env", digests.Digest_ir.env) ] in
  let outcome =
    Checker.validate ~ir ~regions:(regions_of d) ~expect
      ~check_finding:(check_finding_binding ir)
      ~manifest:(build_manifest entries0 skipped0)
      ~load:(load_from entries0) ()
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
      List.filter (fun (id, _, _, _, _) -> not (List.mem_assoc id rejected)) entries0
    in
    let skipped =
      skipped0
      @ List.map (fun (id, msg) -> (id, "self-check: " ^ msg)) rejected
    in
    mkdir_p (Filename.concat dir "certs");
    List.iter
      (fun (_, _, path, body, _) -> write_file (Filename.concat dir path) body)
      entries;
    (match absenv_file with
    | Some (path, body, _) -> write_file (Filename.concat dir path) body
    | None -> ());
    write_file (Filename.concat dir "manifest.json")
      (J.emit (build_manifest entries skipped));
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
