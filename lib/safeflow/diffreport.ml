open Minic

type entry = {
  e_fp : string;
  e_code : string;
  e_where : string;
  e_msg : string;
}

let format_version = "safeflow-findings/1"

let header = Printf.sprintf "# %s %s" format_version Fingerprint.version

let entries_of_report ctx ~file (r : Report.t) : entry list =
  List.map
    (fun (fp, f) ->
      let l = Fingerprint.loc f in
      let where =
        if Loc.equal l Loc.dummy then file ^ ":0:0" else Fmt.str "%a" Loc.pp l
      in
      { e_fp = fp; e_code = Fingerprint.code f; e_where = where;
        e_msg = Fingerprint.message f })
    (Fingerprint.of_report ctx r)

let to_string entries =
  let b = Buffer.create 1024 in
  Buffer.add_string b header;
  Buffer.add_char b '\n';
  List.iter
    (fun e ->
      (* messages are single-line by construction; flatten defensively *)
      let msg = String.map (fun c -> if c = '\n' then ' ' else c) e.e_msg in
      Buffer.add_string b (Printf.sprintf "%s %s %s %s\n" e.e_fp e.e_code e.e_where msg))
    entries;
  Buffer.contents b

let save path entries =
  let oc = open_out path in
  output_string oc (to_string entries);
  close_out oc

let looks_like_findings content =
  let prefix = "# " ^ format_version in
  String.length content >= String.length prefix
  && String.equal (String.sub content 0 (String.length prefix)) prefix

let parse content : entry list =
  if not (looks_like_findings content) then
    failwith
      (Printf.sprintf "not a %s file (missing '# %s' header)" format_version
         format_version);
  String.split_on_char '\n' content
  |> List.filteri (fun i _ -> i > 0)
  |> List.filter_map (fun line ->
         let line = String.trim line in
         if line = "" || line.[0] = '#' then None
         else
           (* <fp> <code> <where> <message with spaces> *)
           match String.index_opt line ' ' with
           | None -> failwith ("malformed findings line: " ^ line)
           | Some i1 -> (
             let rest = String.sub line (i1 + 1) (String.length line - i1 - 1) in
             match String.index_opt rest ' ' with
             | None -> failwith ("malformed findings line: " ^ line)
             | Some i2 -> (
               let rest2 = String.sub rest (i2 + 1) (String.length rest - i2 - 1) in
               let where, msg =
                 match String.index_opt rest2 ' ' with
                 | None -> (rest2, "")
                 | Some i3 ->
                   ( String.sub rest2 0 i3,
                     String.sub rest2 (i3 + 1) (String.length rest2 - i3 - 1) )
               in
               Some
                 { e_fp = String.sub line 0 i1;
                   e_code = String.sub rest 0 i2;
                   e_where = where;
                   e_msg = msg })))

let load path = parse (Minic.Loc.read_source path)

(* -- Classification ------------------------------------------------------------- *)

type diff = {
  d_new : entry list;
  d_fixed : entry list;
  d_unchanged : entry list;
}

(** Multiset matching by fingerprint: each baseline occurrence of a
    fingerprint absorbs one current occurrence. *)
let diff ~baseline ~current : diff =
  let remaining = Hashtbl.create 64 in
  List.iter
    (fun e ->
      Hashtbl.replace remaining e.e_fp
        (1 + Option.value ~default:0 (Hashtbl.find_opt remaining e.e_fp)))
    baseline;
  let unchanged = ref [] and fresh = ref [] in
  List.iter
    (fun e ->
      match Hashtbl.find_opt remaining e.e_fp with
      | Some n when n > 0 ->
        Hashtbl.replace remaining e.e_fp (n - 1);
        unchanged := e :: !unchanged
      | _ -> fresh := e :: !fresh)
    current;
  (* baseline occurrences never matched are fixed *)
  let matched = Hashtbl.create 64 in
  let fixed =
    List.filter
      (fun e ->
        let used = Option.value ~default:0 (Hashtbl.find_opt matched e.e_fp) in
        let left = Option.value ~default:0 (Hashtbl.find_opt remaining e.e_fp) in
        if used < left then begin
          Hashtbl.replace matched e.e_fp (used + 1);
          true
        end
        else false)
      baseline
  in
  { d_new = List.rev !fresh; d_fixed = fixed; d_unchanged = List.rev !unchanged }

let pp_entry ppf e = Fmt.pf ppf "%s %s %s  (%s)" e.e_code e.e_where e.e_msg e.e_fp

let pp_diff ppf d =
  Fmt.pf ppf "@[<v>== SafeFlow diff ==@,";
  Fmt.pf ppf "new (%d):@," (List.length d.d_new);
  List.iter (fun e -> Fmt.pf ppf "  + %a@," pp_entry e) d.d_new;
  Fmt.pf ppf "fixed (%d):@," (List.length d.d_fixed);
  List.iter (fun e -> Fmt.pf ppf "  - %a@," pp_entry e) d.d_fixed;
  Fmt.pf ppf "unchanged: %d@," (List.length d.d_unchanged);
  Fmt.pf ppf "@]"

(* -- CI gating ------------------------------------------------------------------- *)

let is_error_code code = (Report.rule_of_code code).Report.rule_level = `Error

let gate ~fail_on entries =
  match fail_on with
  | `Never -> 0
  | `Error -> if List.exists (fun e -> is_error_code e.e_code) entries then 1 else 0
  | `Warning ->
    if List.exists (fun e -> is_error_code e.e_code) entries then 1
    else if entries <> [] then 2
    else 0
