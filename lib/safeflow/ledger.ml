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

module J = Jsonlite

let entry_json e =
  J.Vobj
    ([
       ("rule", J.Vstr e.l_rule);
       ("func", J.Vstr e.l_func);
       ("file", J.Vstr e.l_loc.Loc.file);
       ("line", J.Vint e.l_loc.Loc.line);
       ("col", J.Vint e.l_loc.Loc.col);
       ("region", J.Vstr e.l_region);
       ("discharge", J.Vstr (discharge_name e.l_discharge));
       ("counted", J.Vbool e.l_counted);
       ("queries", J.Vint e.l_queries);
       ("avoided", J.Vint e.l_avoided);
       ("cstrs", J.Vint e.l_cstrs);
       ("hyps", J.Vint e.l_hyps);
     ]
    @ (match e.l_itv with
      | Some (lo, hi) -> [ ("itv", J.Varr [ J.Vint lo; J.Vint hi ]) ]
      | None -> [])
    @ (if e.l_bound >= 0 then [ ("bound", J.Vint e.l_bound) ] else [])
    @ [ ("us", J.Vfixed (3, float_of_int e.l_ns /. 1_000.0)) ])

let entries_json entries = J.Varr (List.map entry_json (sort entries))

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
  J.Vobj
    [
      ("entries", J.Vint (List.length entries));
      ( "bounds",
        J.Vobj
          [
            ("total", J.Vint r.r_total);
            ("ranges", J.Vint r.r_ranges);
            ("omega", J.Vint r.r_omega);
            ("failed", J.Vint r.r_failed);
            ("queries", J.Vint r.r_queries);
            ("avoided", J.Vint r.r_avoided);
          ] );
      ( "discharge",
        J.Vobj (List.map (fun (k, n) -> (k, J.Vint n)) (List.sort compare by_discharge)) );
    ]
