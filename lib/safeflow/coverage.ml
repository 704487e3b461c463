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
  cov_bounds : Phase2.bounds_stats;
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

let compute ?(bounds = Phase2.bounds_zero) ~(prog : Ssair.Ir.program) ~(shm : Shm.t)
    ~(p1 : Phase1.t) ~(pts : Pointsto.t) ~(analyzed : string list) (r : Report.t) : t =
  let analyzed_set = Hashtbl.create 32 in
  List.iter (fun f -> Hashtbl.replace analyzed_set f ()) analyzed;
  let in_scope (f : Ssair.Ir.func) =
    Hashtbl.mem analyzed_set f.Ssair.Ir.fname
    && not (Phase1.is_exempt p1 f.Ssair.Ir.fname)
  in
  (* syntactic non-core read sites: loads whose phase-1 facts target a
     non-core region — the same site predicate phase 3 warns on *)
  let sites : (Loc.t * string, unit) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (f : Ssair.Ir.func) ->
      if in_scope f then
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
                (Phase1.shm_targets p1 f ptr)
            | _ -> ())
          (Ssair.Ir.all_instrs f))
    prog.Ssair.Ir.funcs;
  let unmonitored : (Loc.t * string, unit) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (w : Report.warning) ->
      Hashtbl.replace unmonitored (w.Report.w_loc, w.Report.w_region) ())
    r.Report.warnings;
  (* monitor assumptions anywhere in the analyzed program *)
  let assumed : (string, (int * int) list) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun (f : Ssair.Ir.func) ->
      if in_scope f then
        List.iter
          (function
            | Assume.Aregion (rname, lo, hi) ->
              Hashtbl.replace assumed rname
                ((lo, hi) :: Option.value ~default:[] (Hashtbl.find_opt assumed rname))
            | Assume.Anode _ -> ())
          (Assume.of_func ~prog ~shm ~p1 ~pts f))
    prog.Ssair.Ir.funcs;
  let region_cov (reg : Shm.region) =
    let name = reg.Shm.r_name in
    let count tbl =
      Hashtbl.fold (fun (_, rn) () acc -> if String.equal rn name then acc + 1 else acc) tbl 0
    in
    {
      rc_region = name;
      rc_size = reg.Shm.r_size;
      rc_read_sites = count sites;
      rc_unmonitored_sites = count unmonitored;
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
    ("a1a2_obligations", b.Phase2.bs_total);
    ("a1a2_by_ranges", b.Phase2.bs_ranges);
    ("a1a2_by_omega", b.Phase2.bs_omega);
    ("a1a2_failed", b.Phase2.bs_failed);
    ("omega_queries_avoided", b.Phase2.bs_omega_avoided);
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
     b.Phase2.bs_total b.Phase2.bs_ranges b.Phase2.bs_omega b.Phase2.bs_failed
     b.Phase2.bs_omega_avoided);
  Fmt.pf ppf "non-core regions:@,";
  List.iter
    (fun rc ->
      Fmt.pf ppf "  %-16s %5d bytes, %2d read sites (%d unmonitored), %d bytes under assumption@,"
        rc.rc_region rc.rc_size rc.rc_read_sites rc.rc_unmonitored_sites
        rc.rc_assumed_bytes)
    t.cov_regions;
  Fmt.pf ppf "@]"

let to_json t =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf
       "{\"read_sites\":%d,\"monitored_sites\":%d,\"monitored_fraction\":%.3f,\"errors\":%d,\"control_only\":%d,\"warnings\":%d,\"bounds\":{\"obligations\":%d,\"by_ranges\":%d,\"by_omega\":%d,\"failed\":%d,\"omega_avoided\":%d},\"regions\":["
       t.cov_read_sites t.cov_monitored_sites (monitored_fraction t) t.cov_errors
       t.cov_control_only t.cov_warnings t.cov_bounds.Phase2.bs_total
       t.cov_bounds.Phase2.bs_ranges t.cov_bounds.Phase2.bs_omega
       t.cov_bounds.Phase2.bs_failed t.cov_bounds.Phase2.bs_omega_avoided);
  List.iteri
    (fun i rc ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf
           "{\"region\":\"%s\",\"size\":%d,\"read_sites\":%d,\"unmonitored_sites\":%d,\"assumed_bytes\":%d}"
           rc.rc_region rc.rc_size rc.rc_read_sites rc.rc_unmonitored_sites
           rc.rc_assumed_bytes))
    t.cov_regions;
  Buffer.add_string b "]}";
  Buffer.contents b
