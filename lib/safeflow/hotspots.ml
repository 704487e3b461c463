(* Hot-spot attribution (PR 9): rank functions and shm regions by where
   phase-2 analysis budget goes and why.  Input is the obligation ledger
   — per member in fleet mode, a single pseudo-member otherwise — so the
   ranking works identically for one file and for a thousand-member
   fleet (whose ledgers arrive over the worker result channel). *)

type row = {
  hs_member : string;  (* member path; "" for a single-file run *)
  hs_name : string;  (* function or region name *)
  hs_entries : int;  (* ledger entries attributed here (EXEMPT excluded) *)
  hs_failed : int;
  hs_queries : int;  (* Omega queries issued *)
  hs_avoided : int;  (* Omega queries skipped via interval proofs *)
  hs_time_ns : int;
  hs_score : float;
}

(* analysis time x obligation count x failure rate, with the rate
   Laplace-smoothed ((failed+1)/(entries+1)) so an expensive obligation-
   heavy function still ranks when everything discharges cleanly *)
let score ~time_ns ~entries ~failed =
  let time_ms = float_of_int time_ns /. 1e6 in
  let rate = (float_of_int failed +. 1.0) /. (float_of_int entries +. 1.0) in
  time_ms *. float_of_int entries *. rate

let rank_by key_of ?(top = 0) (members : (string * Ledger.entry list) list) :
    row list =
  let tbl : (string * string, int * int * int * int * int) Hashtbl.t =
    Hashtbl.create 64
  in
  List.iter
    (fun (m, entries) ->
      List.iter
        (fun (e : Ledger.entry) ->
          match key_of e with
          | None -> ()
          | Some name ->
            let key = (m, name) in
            let cnt, fail, q, av, ns =
              Option.value (Hashtbl.find_opt tbl key) ~default:(0, 0, 0, 0, 0)
            in
            Hashtbl.replace tbl key
              ( cnt + 1,
                (if e.Ledger.l_discharge = Ledger.Failed then fail + 1 else fail),
                q + e.Ledger.l_queries,
                av + e.Ledger.l_avoided,
                ns + e.Ledger.l_ns ))
        entries)
    members;
  let rows =
    Hashtbl.fold
      (fun (m, name) (cnt, fail, q, av, ns) acc ->
        {
          hs_member = m;
          hs_name = name;
          hs_entries = cnt;
          hs_failed = fail;
          hs_queries = q;
          hs_avoided = av;
          hs_time_ns = ns;
          hs_score = score ~time_ns:ns ~entries:cnt ~failed:fail;
        }
        :: acc)
      tbl []
  in
  let rows =
    List.sort
      (fun a b ->
        match compare b.hs_score a.hs_score with
        | 0 -> compare (a.hs_member, a.hs_name) (b.hs_member, b.hs_name)
        | c -> c)
      rows
  in
  if top > 0 then List.filteri (fun i _ -> i < top) rows else rows

let rank ?top members =
  rank_by ?top
    (fun e -> if String.equal e.Ledger.l_rule "EXEMPT" then None else Some e.Ledger.l_func)
    members

let rank_regions ?top members =
  rank_by ?top
    (fun e -> if String.equal e.Ledger.l_region "" then None else Some e.Ledger.l_region)
    members

let rows_json rows =
  let module J = Jsonlite in
  J.Varr
    (List.map
       (fun r ->
         J.Vobj
           [
             ("member", J.Vstr r.hs_member);
             ("name", J.Vstr r.hs_name);
             ("entries", J.Vint r.hs_entries);
             ("failed", J.Vint r.hs_failed);
             ("queries", J.Vint r.hs_queries);
             ("avoided", J.Vint r.hs_avoided);
             ("time_ms", J.Vfixed (3, float_of_int r.hs_time_ns /. 1e6));
             ("score", J.Vfixed (6, r.hs_score));
           ])
       rows)

let pp_rows ppf (rows : row list) =
  Fmt.pf ppf "@[<v>";
  Fmt.pf ppf "%-32s %-20s %7s %6s %7s %8s %10s@," "name" "member" "entries"
    "failed" "queries" "time" "score";
  List.iter
    (fun r ->
      Fmt.pf ppf "%-32s %-20s %7d %6d %7d %7.2fms %10.3f@," r.hs_name
        (if String.equal r.hs_member "" then "-"
         else Filename.basename r.hs_member)
        r.hs_entries r.hs_failed r.hs_queries
        (float_of_int r.hs_time_ns /. 1e6)
        r.hs_score)
    rows;
  Fmt.pf ppf "@]"
