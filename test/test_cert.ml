(* Certificate pipeline tests:

   - round-trip identity: every certificate emitted for the five subject
     systems validates against a freshly parsed program, with absint on
     and off, and emission never
     perturbs the report;
   - cache states: cold, warm and dirty (corrupted on disk) cached runs
     produce byte-identical reports and byte-identical bundles, with the
     v7 payload digest catching the corruption and the on_recovery hook
     observing it;
   - negative tests: a tampered witness step, a widened absenv range and
     a dropped unsat-core hypothesis are each rejected with a precise
     error (the certificate digest is re-signed after tampering, so the
     rejection exercises the semantic check, not the content digest);
   - explain --json: the document parses and shares the certificate
     step-chain encoding. *)

open Safeflow
module J = Jsonlite

let find_system name =
  let candidates =
    [ "../../../systems/" ^ name; "../../systems/" ^ name; "systems/" ^ name ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some p -> p
  | None -> Alcotest.fail ("cannot locate systems/" ^ name)

let systems =
  [ "figure2.c"; "ip_controller.c"; "double_ip.c"; "car_follow.c";
    "generic_simplex.c" ]

let mkdtemp prefix =
  let base = Filename.get_temp_dir_name () in
  let rec go k =
    let d = Filename.concat base (Printf.sprintf "%s-%d-%d" prefix (Unix.getpid ()) k) in
    if Sys.file_exists d then go (k + 1)
    else begin
      try
        Sys.mkdir d 0o700;
        d
      with Sys_error _ -> go (k + 1)
    end
  in
  go 0

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let rec rm_rf d =
  if Sys.file_exists d then begin
    Array.iter
      (fun f ->
        let p = Filename.concat d f in
        if Sys.is_directory p then rm_rf p else Sys.remove p)
      (Sys.readdir d);
    Sys.rmdir d
  end

let with_tmpdir f =
  let d = mkdtemp "sf-cert" in
  Fun.protect ~finally:(fun () -> rm_rf d) (fun () -> f d)

(* validate a bundle the way `safeflow check-cert` does: against a fresh
   parse of the source, never the emitting analysis's own structures *)
let validate_fresh path bdir =
  let prep = Driver.prepare_file path in
  let ir = prep.Driver.ir in
  let shm = Driver.stage_shm prep in
  let regions =
    List.map (fun (r : Shm.region) -> (r.Shm.r_name, r.Shm.r_size)) shm.Shm.regions
  in
  let d = Digest_ir.of_program ir in
  Checker.validate_bundle ~ir ~regions
    ~expect:[ ("program", d.Digest_ir.program); ("env", d.Digest_ir.env) ]
    ~check_finding:(Cert.check_finding_binding ir) bdir

let report_string (a : Driver.analysis) = Fmt.str "%a" Report.pp a.Driver.report

(* the bundle as a comparable value: every file's path and content *)
let bundle_files bdir =
  let rec walk prefix acc =
    Array.fold_left
      (fun acc f ->
        let p = Filename.concat prefix f in
        let full = Filename.concat bdir p in
        if Sys.is_directory full then walk p acc else (p, read_file full) :: acc)
      acc
      (Sys.readdir (Filename.concat bdir prefix))
  in
  List.sort compare (walk "" [])

(* -- round-trip grid ----------------------------------------------------------- *)

let check_roundtrip name =
  List.iter
    (fun absint ->
      let tag = Printf.sprintf "%s/absint=%b" name absint in
      let config = { Config.default with Config.absint } in
      let path = find_system name in
      let baseline = report_string (Driver.analyze_file ~config path) in
      with_tmpdir (fun dir ->
          let a = Driver.analyze_file ~config path in
          let s =
            match Cert.emit_bundle ~config ~label:path ~dir a with
            | Ok s -> s
            | Error e -> Alcotest.fail (tag ^ ": emission failed: " ^ e)
          in
          Alcotest.(check string)
            (tag ^ ": emission does not perturb the report")
            baseline (report_string a);
          Alcotest.(check int) (tag ^ ": nothing skipped") 0
            (List.length s.Cert.cs_skipped);
          Alcotest.(check bool) (tag ^ ": bundle nonempty") true
            (s.Cert.cs_written > 0);
          let o = validate_fresh path dir in
          List.iter
            (fun (f : Checker.failure) ->
              Alcotest.fail
                (tag ^ ": " ^ f.Checker.ce_id ^ ": " ^ f.Checker.ce_msg))
            o.Checker.failures;
          Alcotest.(check int) (tag ^ ": checker skipped") 0 o.Checker.skipped;
          Alcotest.(check int)
            (tag ^ ": every certificate verified")
            s.Cert.cs_written o.Checker.passed))
    [ true; false ]

let test_roundtrip name () = check_roundtrip name

(* -- cache states: cold / warm / dirty ----------------------------------------- *)

let all_disk_files dir =
  let rec walk d acc =
    Array.fold_left
      (fun acc f ->
        let p = Filename.concat d f in
        if Sys.is_directory p then walk p acc else p :: acc)
      acc (Sys.readdir d)
  in
  walk dir []

(* flip the last byte of every entry file: the header unmarshals fine but
   the payload digest no longer matches — the v7 corrupt path *)
let corrupt_payloads dir =
  List.iter
    (fun p ->
      let s = Bytes.of_string (read_file p) in
      let i = Bytes.length s - 1 in
      Bytes.set s i (Char.chr (Char.code (Bytes.get s i) lxor 0xff));
      write_file p (Bytes.to_string s))
    (all_disk_files dir)

let test_cache_states () =
  let name = "generic_simplex.c" in
  let path = find_system name in
  let config = Config.default in
  let emit label a dir =
    match Cert.emit_bundle ~config ~label:path ~dir a with
    | Ok _ -> bundle_files dir
    | Error e -> Alcotest.fail (label ^ ": emission failed: " ^ e)
  in
  with_tmpdir (fun root ->
      let cache_dir = Filename.concat root "cache" in
      let bundle sub = Filename.concat root sub in
      (* sequential no-cache baseline *)
      let a0 = Driver.analyze_file ~config path in
      let r0 = report_string a0 in
      let b0 = emit "baseline" a0 (bundle "b0") in
      (* cold *)
      let c1 = Cache.create ~dir:cache_dir () in
      let a1 = Driver.analyze_file ~config ~cache:c1 path in
      Alcotest.(check string) "cold report" r0 (report_string a1);
      Alcotest.(check bool) "cold bundle" true (b0 = emit "cold" a1 (bundle "b1"));
      (* warm: a fresh cache instance over the same directory *)
      let c2 = Cache.create ~dir:cache_dir () in
      let a2 = Driver.analyze_file ~config ~cache:c2 path in
      Alcotest.(check string) "warm report" r0 (report_string a2);
      Alcotest.(check bool) "warm bundle" true (b0 = emit "warm" a2 (bundle "b2"));
      (* dirty: every disk payload corrupted in place; the digest in the
         v7 entry header catches it, the entry is recomputed, and the
         recovery is surfaced through on_recovery *)
      corrupt_payloads cache_dir;
      let recoveries = ref [] in
      let c3 =
        Cache.create ~dir:cache_dir
          ~on_recovery:(fun ~kind ~ns ~key:_ -> recoveries := (kind, ns) :: !recoveries)
          ()
      in
      let a3 = Driver.analyze_file ~config ~cache:c3 path in
      Alcotest.(check string) "dirty report recomputed identically" r0
        (report_string a3);
      Alcotest.(check bool) "dirty bundle" true (b0 = emit "dirty" a3 (bundle "b3"));
      let corrupt =
        List.fold_left
          (fun acc (_, (s : Cache.ns_stats)) -> acc + s.Cache.corrupt)
          0 (Cache.detailed_stats c3)
      in
      Alcotest.(check bool) "corruption detected" true (corrupt > 0);
      Alcotest.(check bool) "on_recovery saw it" true
        (List.exists (fun (k, _) -> k = "corrupt") !recoveries))

(* -- tampering helpers ---------------------------------------------------------- *)

let obj_update k f = function
  | J.Obj kvs -> J.Obj (List.map (fun (k', v) -> if k' = k then (k, f v) else (k', v)) kvs)
  | j -> j

let jstr = function J.Str s -> s | _ -> Alcotest.fail "expected a JSON string"

let manifest_certs bdir =
  let m = J.parse_exn (read_file (Filename.concat bdir "manifest.json")) in
  match J.member "certs" m with
  | Some (J.Arr l) -> (m, l)
  | _ -> Alcotest.fail "manifest has no certs array"

let cert_entry bdir ~kind ?(where = fun _ -> true) () =
  let _, certs = manifest_certs bdir in
  match
    List.find_opt
      (fun e ->
        Option.map jstr (J.member "kind" e) = Some kind
        &&
        let body = J.parse_exn (read_file (Filename.concat bdir (jstr (Option.get (J.member "path" e))))) in
        where body)
      certs
  with
  | Some e -> e
  | None -> Alcotest.fail ("no " ^ kind ^ " certificate in bundle")

(* tamper a certificate body and re-sign it: rewrite the file AND the
   manifest digest, so validation reaches the semantic check rather than
   stopping at "content digest mismatch" *)
let tamper_resign bdir entry (f : J.t -> J.t) =
  let path = jstr (Option.get (J.member "path" entry)) in
  let id = jstr (Option.get (J.member "id" entry)) in
  let body' = J.emit (f (J.parse_exn (read_file (Filename.concat bdir path)))) in
  write_file (Filename.concat bdir path) body';
  let digest' = Checker.md5_hex body' in
  let m = J.parse_exn (read_file (Filename.concat bdir "manifest.json")) in
  let m' =
    obj_update "certs"
      (function
        | J.Arr l ->
          J.Arr
            (List.map
               (fun e ->
                 if Option.map jstr (J.member "id" e) = Some id then
                   obj_update "digest" (fun _ -> J.Str digest') e
                 else e)
               l)
        | j -> j)
      m
  in
  write_file (Filename.concat bdir "manifest.json") (J.emit m');
  id

let the_failure tag (o : Checker.outcome) =
  match o.Checker.failures with
  | [ f ] -> f
  | [] -> Alcotest.fail (tag ^ ": tampered bundle validated cleanly")
  | fs ->
    List.hd fs
    |> fun f ->
    ignore f;
    Alcotest.fail
      (tag ^ ": expected one failure, got "
      ^ String.concat "; "
          (List.map (fun (f : Checker.failure) -> f.Checker.ce_id ^ ": " ^ f.Checker.ce_msg) fs))

let contains ~sub s = Astring.String.is_infix ~affix:sub s

let emit_for ~config path dir =
  let a = Driver.analyze_file ~config path in
  match Cert.emit_bundle ~config ~label:path ~dir a with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("emission failed: " ^ e)

(* -- negative: tampered witness step -------------------------------------------- *)

let test_tamper_witness () =
  let path = find_system "generic_simplex.c" in
  let config = Config.default in
  with_tmpdir (fun dir ->
      emit_for ~config path dir;
      let entry = cert_entry dir ~kind:"witness" () in
      let id =
        tamper_resign dir entry
          (obj_update "steps" (function
            | J.Arr (s0 :: rest) ->
              J.Arr (obj_update "desc" (fun d -> J.Str (jstr d ^ " (tampered)")) s0 :: rest)
            | j -> j))
      in
      let o = validate_fresh path dir in
      let f = the_failure "witness" o in
      Alcotest.(check string) "failure names the tampered certificate" id
        f.Checker.ce_id;
      Alcotest.(check bool)
        ("chain break reported: " ^ f.Checker.ce_msg)
        true
        (contains ~sub:"link digest mismatch" f.Checker.ce_msg))

(* -- negative: widened absenv range --------------------------------------------- *)

(* widen every finite interval bound in the target function by a large
   constant: the recorded fixpoint is no longer consistent (some recorded
   fact stops containing its one-step evaluation, or a range discharge
   stops proving its bound) *)
let widen_absenv_func fname aj =
  let widen_bound sign = function
    | J.Str s -> J.Str (string_of_int ((int_of_string s * 10) + (sign * 1000)))
    | j -> j
  in
  let widen_itv = function
    | J.Obj _ as itv ->
      obj_update "lo" (widen_bound (-1)) (obj_update "hi" (widen_bound 1) itv)
    | j -> j
  in
  let widen_pair = function
    | J.Arr [ k; itv ] -> J.Arr [ k; widen_itv itv ]
    | j -> j
  in
  obj_update "funcs"
    (function
      | J.Arr fs ->
        J.Arr
          (List.map
             (fun fj ->
               if Option.map jstr (J.member "func" fj) = Some fname then
                 obj_update "env"
                   (function J.Arr ps -> J.Arr (List.map widen_pair ps) | j -> j)
                   fj
               else fj)
             fs)
      | j -> j)
    aj

let test_tamper_absenv () =
  let path = find_system "generic_simplex.c" in
  let config = Config.default in
  with_tmpdir (fun dir ->
      emit_for ~config path dir;
      (* sanity: untampered bundle validates *)
      Alcotest.(check int) "pre-tamper clean" 0
        (List.length (validate_fresh path dir).Checker.failures);
      let entry = cert_entry dir ~kind:"obligation" () in
      let oblig = J.parse_exn (read_file (Filename.concat dir (jstr (Option.get (J.member "path" entry))))) in
      let fname = jstr (Option.get (J.member "func" oblig)) in
      let apath = Filename.concat dir "absenv.json" in
      let body' = J.emit (widen_absenv_func fname (J.parse_exn (read_file apath))) in
      write_file apath body';
      (* re-sign the absenv digest in the manifest so the rejection comes
         from re-verification, not the content digest *)
      let m = J.parse_exn (read_file (Filename.concat dir "manifest.json")) in
      let m' =
        obj_update "absenv"
          (obj_update "digest" (fun _ -> J.Str (Checker.md5_hex body')))
          m
      in
      write_file (Filename.concat dir "manifest.json") (J.emit m');
      let o = validate_fresh path dir in
      Alcotest.(check bool) "widened ranges rejected" true
        (o.Checker.failures <> []);
      let f = List.hd o.Checker.failures in
      Alcotest.(check bool)
        ("precise reason: " ^ f.Checker.ce_id ^ ": " ^ f.Checker.ce_msg)
        true
        (contains ~sub:"does not contain" f.Checker.ce_msg
        || contains ~sub:"do not prove the bound" f.Checker.ce_msg))

(* -- negative: dropped unsat-core hypothesis ------------------------------------ *)

let test_tamper_core () =
  let path = find_system "generic_simplex.c" in
  (* absint off forces the omega discharge path, so obligations carry
     unsat cores rather than range proofs *)
  let config = { Config.default with Config.absint = false } in
  with_tmpdir (fun dir ->
      emit_for ~config path dir;
      let entry =
        cert_entry dir ~kind:"obligation"
          ~where:(fun c ->
            match J.member "sides" c with
            | Some sides -> (
              match J.member "low" sides with
              | Some lo -> Option.map jstr (J.member "by" lo) = Some "omega"
              | None -> false)
            | None -> false)
          ()
      in
      let id =
        tamper_resign dir entry
          (obj_update "sides"
             (obj_update "low" (obj_update "core" (fun _ -> J.Arr []))))
      in
      let o = validate_fresh path dir in
      let f = the_failure "core" o in
      Alcotest.(check string) "failure names the tampered certificate" id
        f.Checker.ce_id;
      Alcotest.(check bool)
        ("refutation failure reported: " ^ f.Checker.ce_msg)
        true
        (contains ~sub:"could not refute" f.Checker.ce_msg))

(* -- negative: unsigned tamper is caught by the content digest ------------------- *)

let test_tamper_digest () =
  let path = find_system "figure2.c" in
  let config = Config.default in
  with_tmpdir (fun dir ->
      emit_for ~config path dir;
      let _, certs = manifest_certs dir in
      let entry = List.hd certs in
      let p = Filename.concat dir (jstr (Option.get (J.member "path" entry))) in
      write_file p (read_file p ^ " ");
      let o = validate_fresh path dir in
      Alcotest.(check bool) "digest mismatch detected" true
        (List.exists
           (fun (f : Checker.failure) ->
             contains ~sub:"content digest mismatch" f.Checker.ce_msg)
           o.Checker.failures))

(* -- explain --json -------------------------------------------------------------- *)

let test_explain_json () =
  let path = find_system "generic_simplex.c" in
  let a = Driver.analyze_file path in
  let doc = Cert.explain_json ~label:path a in
  (* serialization round-trips *)
  let j = J.parse_exn (J.emit doc) in
  Alcotest.(check (option string)) "schema" (Some Cert.explain_schema)
    (Option.bind (J.member "schema" j) J.to_string);
  Alcotest.(check (option string)) "file label" (Some path)
    (Option.bind (J.member "file" j) J.to_string);
  let deps =
    match J.member "dependencies" j with Some (J.Arr l) -> l | _ -> []
  in
  Alcotest.(check bool) "has dependencies" true (deps <> []);
  (* witness paths use the certificate step-chain encoding: each step's
     link recomputes from its content and the preceding link *)
  List.iter
    (fun d ->
      match J.member "steps" d with
      | Some (J.Arr steps) ->
        let _ =
          List.fold_left
            (fun prev s ->
              let g k = Option.bind (J.member k s) J.to_string in
              let desc = Option.value ~default:"" (g "desc") in
              let key = Option.value ~default:"" (g "key") in
              let why = g "why" in
              let expect = Checker.step_link ~desc ~why ~key ~prev in
              Alcotest.(check (option string)) "step link chain" (Some expect)
                (g "link");
              expect)
            "" steps
        in
        ()
      | _ -> ())
    deps

(* -- suite ----------------------------------------------------------------------- *)

let () =
  Alcotest.run "cert"
    [
      ( "roundtrip",
        List.map
          (fun name -> Alcotest.test_case name `Quick (test_roundtrip name))
          systems );
      ( "cache",
        [ Alcotest.test_case "cold/warm/dirty identity" `Quick test_cache_states ] );
      ( "negative",
        [
          Alcotest.test_case "tampered witness step" `Quick test_tamper_witness;
          Alcotest.test_case "widened absenv range" `Quick test_tamper_absenv;
          Alcotest.test_case "dropped unsat-core hypothesis" `Quick test_tamper_core;
          Alcotest.test_case "unsigned tamper" `Quick test_tamper_digest;
        ] );
      ( "explain",
        [ Alcotest.test_case "json document" `Quick test_explain_json ] );
    ]
