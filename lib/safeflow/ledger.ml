(* Obligation ledger (PR 9): one structured entry per A1/A2 bounds
   obligation and per P1–P3 restriction-check site, recording which
   prover discharged it, with what facts, and at what cost.

   The ledger is observability-only data: it is carried alongside the
   phase-2 result (and through the per-function cache, so warm runs
   reconcile exactly like cold ones) but never feeds into [Report.t] —
   reports stay byte-identical whether anyone looks at the ledger or
   not (the PR 3 invariant, asserted by test_engine_equiv.ml). *)

open Minic

type discharge =
  | Ranges  (* absint interval proof; no Omega query issued for this side *)
  | Omega_unsat  (* Omega decided Unsat on the raw constraint system *)
  | Omega_hyp  (* Omega Unsat only after absint range hypotheses were added *)
  | Const  (* constant index statically inside the declared bound *)
  | Site_ok  (* P1–P3 site examined and found clean *)
  | Assumed  (* obligation suspended: initializing (exempt) function *)
  | Failed  (* a violation (or undischarged Unknown) was reported *)

type entry = {
  l_rule : string;  (* "A1" | "A2" | "P1" | "P2" | "P3" | "EXEMPT" *)
  l_func : string;
  l_loc : Loc.t;
  l_region : string;  (* shm region / array symbol; "" when not tied to one *)
  l_discharge : discharge;
  l_counted : bool;  (* participates in the bounds tally ([reconcile]) *)
  l_queries : int;  (* Omega queries issued for this obligation *)
  l_avoided : int;  (* Omega queries skipped thanks to interval proofs *)
  l_cstrs : int;  (* constraint-system size handed to Omega (max over queries) *)
  l_hyps : int;  (* absint range hypotheses injected into Omega queries *)
  l_itv : (int * int) option;  (* interval fact used, when absint had one *)
  l_bound : int;  (* declared element count for bounds obligations; -1 n/a *)
  l_ns : int;  (* wall time spent deciding this entry, nanoseconds *)
}

let discharge_name = function
  | Ranges -> "ranges"
  | Omega_unsat -> "omega"
  | Omega_hyp -> "omega+ranges"
  | Const -> "const"
  | Site_ok -> "ok"
  | Assumed -> "assumed"
  | Failed -> "failed"

(* stable order for rendering: by function, then source location, then
   rule, then region — entry emission order is an implementation detail
   of the phase-2 traversal (and of cache hits) and must not leak *)
let compare_entry a b =
  compare
    (a.l_func, a.l_loc, a.l_rule, a.l_region, discharge_name a.l_discharge)
    (b.l_func, b.l_loc, b.l_rule, b.l_region, discharge_name b.l_discharge)

let sort entries = List.sort compare_entry entries

(* -- The bounds tally ------------------------------------------------------- *)

(* the counted bounds obligations by discharge: ranges, omega (with or
   without range hypotheses) and failed, their sum, and the Omega
   queries issued and avoided; phase 2's [bounds] is this tally *)
type recon = {
  r_ranges : int;
  r_omega : int;
  r_failed : int;
  r_total : int;
  r_queries : int;
  r_avoided : int;
}

let reconcile entries =
  let counted = List.filter (fun e -> e.l_counted) entries in
  let count p = List.length (List.filter p counted) in
  {
    r_ranges = count (fun e -> e.l_discharge = Ranges);
    r_omega =
      count (fun e -> e.l_discharge = Omega_unsat || e.l_discharge = Omega_hyp);
    r_failed = count (fun e -> e.l_discharge = Failed);
    r_total = List.length counted;
    r_queries = List.fold_left (fun a e -> a + e.l_queries) 0 counted;
    r_avoided = List.fold_left (fun a e -> a + e.l_avoided) 0 counted;
  }

(* -- JSON ------------------------------------------------------------------ *)

let esc = Jsonlite.escape

let entry_json b e =
  Buffer.add_string b
    (Printf.sprintf
       "{\"rule\":\"%s\",\"func\":\"%s\",\"file\":\"%s\",\"line\":%d,\"col\":%d,\"region\":\"%s\",\"discharge\":\"%s\",\"counted\":%b,\"queries\":%d,\"avoided\":%d,\"cstrs\":%d,\"hyps\":%d"
       (esc e.l_rule) (esc e.l_func) (esc e.l_loc.Loc.file) e.l_loc.Loc.line
       e.l_loc.Loc.col (esc e.l_region)
       (discharge_name e.l_discharge)
       e.l_counted e.l_queries e.l_avoided e.l_cstrs e.l_hyps);
  (match e.l_itv with
  | Some (lo, hi) ->
    Buffer.add_string b (Printf.sprintf ",\"itv\":[%d,%d]" lo hi)
  | None -> ());
  if e.l_bound >= 0 then
    Buffer.add_string b (Printf.sprintf ",\"bound\":%d" e.l_bound);
  Buffer.add_string b (Printf.sprintf ",\"us\":%.3f}" (float_of_int e.l_ns /. 1_000.0))

let entries_json entries =
  let b = Buffer.create 1024 in
  Buffer.add_char b '[';
  List.iteri
    (fun i e ->
      if i > 0 then Buffer.add_char b ',';
      entry_json b e)
    (sort entries);
  Buffer.add_char b ']';
  Buffer.contents b

(* compact per-file summary, suitable for a Telemetry section *)
let summary_json entries =
  let r = reconcile entries in
  let by_discharge =
    List.fold_left
      (fun acc e ->
        let k = discharge_name e.l_discharge in
        let n = try List.assoc k acc with Not_found -> 0 in
        (k, n + 1) :: List.remove_assoc k acc)
      [] entries
  in
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf
       "{\"entries\":%d,\"bounds\":{\"total\":%d,\"ranges\":%d,\"omega\":%d,\"failed\":%d,\"queries\":%d,\"avoided\":%d},\"discharge\":{"
       (List.length entries) r.r_total r.r_ranges r.r_omega r.r_failed
       r.r_queries r.r_avoided);
  List.iteri
    (fun i (k, n) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b (Printf.sprintf "\"%s\":%d" (esc k) n))
    (List.sort compare by_discharge);
  Buffer.add_string b "}}";
  Buffer.contents b
