open Minic

type region_coverage = {
  rc_region : string;
  rc_size : int;
  rc_read_sites : int;
  rc_unmonitored_sites : int;
  rc_assumed_bytes : int;
}

type t = {
  cov_read_sites : int;
  cov_monitored_sites : int;
  cov_regions : region_coverage list;
  cov_errors : int;
  cov_control_only : int;
  cov_warnings : int;
  cov_bounds : Ledger.recon;
}

(* byte count of the union of [lo, hi) intervals, clamped to [0, size) *)
let union_bytes ~size intervals =
  let clamped =
    List.filter_map
      (fun (lo, hi) ->
        let lo = max 0 lo and hi = min size hi in
        if hi > lo then Some (lo, hi) else None)
      intervals
  in
  let sorted = List.sort compare clamped in
  let acc = ref 0 and cur = ref None in
  List.iter
    (fun (lo, hi) ->
      match !cur with
      | None -> cur := Some (lo, hi)
      | Some (clo, chi) ->
        if lo <= chi then cur := Some (clo, max chi hi)
        else begin
          acc := !acc + (chi - clo);
          cur := Some (lo, hi)
        end)
    sorted;
  (match !cur with Some (clo, chi) -> acc := !acc + (chi - clo) | None -> ());
  !acc

let compute ?(bounds = Ledger.reconcile []) ~prog:(_ : Ssair.Ir.program) ~(shm : Shm.t)
    ~(p1 : Phase1.t) ~(pts : Pointsto.t) ~(analyzed : string list) (r : Report.t) : t =
  let index = p1.Phase1.index in
  (* by function index: analyzed and not exempt *)
  let in_scope = Array.make (Ssair.Index.length index) false in
  List.iter
    (fun name ->
      let fx = Ssair.Index.find index name in
      if fx >= 0 && not (Phase1.exempt_fx p1 fx) then in_scope.(fx) <- true)
    analyzed;
  (* syntactic non-core read sites: loads whose phase-1 facts target a
     non-core region — the same site predicate phase 3 warns on *)
  let sites : (Loc.t * string, unit) Hashtbl.t = Hashtbl.create 64 in
  Array.iteri
    (fun fx (f : Ssair.Ir.func) ->
      if in_scope.(fx) then
        List.iter
          (fun (b : Ssair.Ir.block) ->
            List.iter
              (fun (i : Ssair.Ir.instr) ->
                match i.Ssair.Ir.idesc with
                | Ssair.Ir.Load { ptr; _ } ->
                  Phase1.Rset.iter
                    (fun tgt ->
                      let rname = tgt.Phase1.Rtgt.region in
                      match Shm.region shm rname with
                      | Some reg when reg.Shm.r_noncore ->
                        Hashtbl.replace sites (i.Ssair.Ir.iloc, rname) ()
                      | _ -> ())
                    (Phase1.targets p1 fx ptr)
                | _ -> ())
              b.Ssair.Ir.instrs)
          f.Ssair.Ir.blocks)
    index.Ssair.Index.funcs;
  let unmonitored : (Loc.t * string, unit) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (w : Report.warning) ->
      Hashtbl.replace unmonitored (w.Report.w_loc, w.Report.w_region) ())
    r.Report.warnings;
  (* monitor assumptions anywhere in the analyzed program *)
  let assumed : (string, (int * int) list) Hashtbl.t = Hashtbl.create 8 in
  Array.iteri
    (fun fx in_scope ->
      if in_scope then
        List.iter
          (function
            | Assume.Aregion (rname, lo, hi) ->
              Hashtbl.replace assumed rname
                ((lo, hi) :: Option.value ~default:[] (Hashtbl.find_opt assumed rname))
            | Assume.Anode _ -> ())
          (Assume.of_func ~shm ~p1 ~pts fx))
    in_scope;
  (* a table's (site, region) keys counted per region, in one pass *)
  let per_region tbl =
    let counts = Hashtbl.create 16 in
    Hashtbl.iter
      (fun (_, rn) () ->
        Hashtbl.replace counts rn (1 + Option.value ~default:0 (Hashtbl.find_opt counts rn)))
      tbl;
    fun name -> Option.value ~default:0 (Hashtbl.find_opt counts name)
  in
  let site_count = per_region sites and unmonitored_count = per_region unmonitored in
  let region_cov (reg : Shm.region) =
    let name = reg.Shm.r_name in
    {
      rc_region = name;
      rc_size = reg.Shm.r_size;
      rc_read_sites = site_count name;
      rc_unmonitored_sites = unmonitored_count name;
      rc_assumed_bytes =
        union_bytes ~size:reg.Shm.r_size
          (Option.value ~default:[] (Hashtbl.find_opt assumed name));
    }
  in
  let regions =
    shm.Shm.regions
    |> List.filter (fun (reg : Shm.region) -> reg.Shm.r_noncore)
    |> List.map region_cov
    |> List.sort (fun a b -> compare a.rc_region b.rc_region)
  in
  let total = Hashtbl.length sites in
  let unmon = Hashtbl.length unmonitored in
  {
    cov_read_sites = total;
    cov_monitored_sites = max 0 (total - unmon);
    cov_regions = regions;
    cov_errors = List.length (Report.errors r);
    cov_control_only = List.length (Report.control_deps r);
    cov_warnings = List.length r.Report.warnings;
    cov_bounds = bounds;
  }

let monitored_fraction t =
  if t.cov_read_sites = 0 then 1.0
  else float_of_int t.cov_monitored_sites /. float_of_int t.cov_read_sites

let stats t =
  let b = t.cov_bounds in
  [
    ("noncore_read_sites", t.cov_read_sites);
    ("monitored_read_sites", t.cov_monitored_sites);
    ("control_only_deps", t.cov_control_only);
    ("a1a2_obligations", b.Ledger.r_total);
    ("a1a2_by_ranges", b.Ledger.r_ranges);
    ("a1a2_by_omega", b.Ledger.r_omega);
    ("a1a2_failed", b.Ledger.r_failed);
    ("omega_queries_avoided", b.Ledger.r_avoided);
  ]

let pp ppf t =
  Fmt.pf ppf "@[<v>== monitoring coverage ==@,";
  Fmt.pf ppf "non-core read sites: %d (%d monitored, %d unmonitored, %.0f%% covered)@,"
    t.cov_read_sites t.cov_monitored_sites
    (t.cov_read_sites - t.cov_monitored_sites)
    (100.0 *. monitored_fraction t);
  Fmt.pf ppf "error dependencies: %d   control-only (likely FP): %d@," t.cov_errors
    t.cov_control_only;
  (let b = t.cov_bounds in
   Fmt.pf ppf
     "A1/A2 bounds obligations: %d (%d by ranges, %d by Omega, %d failed; %d Omega queries avoided)@,"
     b.Ledger.r_total b.Ledger.r_ranges b.Ledger.r_omega b.Ledger.r_failed
     b.Ledger.r_avoided);
  Fmt.pf ppf "non-core regions:@,";
  List.iter
    (fun rc ->
      Fmt.pf ppf "  %-16s %5d bytes, %2d read sites (%d unmonitored), %d bytes under assumption@,"
        rc.rc_region rc.rc_size rc.rc_read_sites rc.rc_unmonitored_sites
        rc.rc_assumed_bytes)
    t.cov_regions;
  Fmt.pf ppf "@]"

let to_json t =
  let module J = Jsonlite in
  let b = t.cov_bounds in
  J.Vobj
    [
      ("read_sites", J.Vint t.cov_read_sites);
      ("monitored_sites", J.Vint t.cov_monitored_sites);
      ("monitored_fraction", J.Vfixed (3, monitored_fraction t));
      ("errors", J.Vint t.cov_errors);
      ("control_only", J.Vint t.cov_control_only);
      ("warnings", J.Vint t.cov_warnings);
      ( "bounds",
        J.Vobj
          [
            ("obligations", J.Vint b.Ledger.r_total);
            ("by_ranges", J.Vint b.Ledger.r_ranges);
            ("by_omega", J.Vint b.Ledger.r_omega);
            ("failed", J.Vint b.Ledger.r_failed);
            ("omega_avoided", J.Vint b.Ledger.r_avoided);
          ] );
      ( "regions",
        J.Varr
          (List.map
             (fun rc ->
               J.Vobj
                 [
                   ("region", J.Vstr rc.rc_region);
                   ("size", J.Vint rc.rc_size);
                   ("read_sites", J.Vint rc.rc_read_sites);
                   ("unmonitored_sites", J.Vint rc.rc_unmonitored_sites);
                   ("assumed_bytes", J.Vint rc.rc_assumed_bytes);
                 ])
             t.cov_regions) );
    ]
