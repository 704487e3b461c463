(** Telemetry implementation (see the interface for the contract).

    Hot-path discipline: every entry point reads one flag and returns
    when telemetry is off, so instrumented code costs a load and a branch
    when disabled.  All state is plain mutable data: SafeFlow runs on
    the main domain only (parallelism is forked processes, see
    {!Forkmap}), so nothing here is shared between threads.

    Fleet aggregation: a forked worker process records into its own
    inherited copy of this state (cleared by {!begin_worker}), packages
    it as a versioned {!snapshot} at exit, and the fleet parent merges
    every worker snapshot back in with {!merge_worker} — counters
    summed, gauges max'd, spans kept per worker for the multi-process
    Chrome trace and merged by name into the aggregated tree. *)

external now_ns : unit -> int64 = "safeflow_monotonic_ns"

let on = ref false

let enabled () = !on

(* -- Spans --------------------------------------------------------------------- *)

type span_record = {
  s_id : int;
  s_parent : int;
  s_name : string;
  s_args : (string * string) list;
  s_start_ns : int64;
  s_dur_ns : int64;
}

type active = {
  a_id : int;
  a_parent : int;
  a_name : string;
  a_args : (string * string) list;
  a_t0 : int64;
}

(* trace epoch: all exported timestamps are relative to this.  A forked
   worker inherits the parent's epoch, and CLOCK_MONOTONIC is
   system-wide, so parent and worker span timestamps share one timeline
   in the merged trace. *)
let epoch = ref (now_ns ())

let next_span_id = ref 0

let finished : span_record list ref = ref []  (* newest first *)

(* the open spans, innermost first *)
let stack : active list ref = ref []

let span ?(args = []) name f =
  if not !on then f ()
  else begin
    let parent = match !stack with [] -> -1 | a :: _ -> a.a_id in
    let a =
      {
        a_id = !next_span_id;
        a_parent = parent;
        a_name = name;
        a_args = args;
        a_t0 = now_ns ();
      }
    in
    incr next_span_id;
    stack := a :: !stack;
    Fun.protect
      ~finally:(fun () ->
        let dur = Int64.sub (now_ns ()) a.a_t0 in
        (match !stack with _ :: tl -> stack := tl | [] -> ());
        let r =
          {
            s_id = a.a_id;
            s_parent = a.a_parent;
            s_name = a.a_name;
            s_args = a.a_args;
            s_start_ns = Int64.sub a.a_t0 !epoch;
            s_dur_ns = dur;
          }
        in
        finished := r :: !finished)
      f
  end

let sort_spans l =
  List.sort (fun a b -> compare (a.s_start_ns, a.s_id) (b.s_start_ns, b.s_id)) l

let spans () = sort_spans !finished

(* -- Counters and gauges --------------------------------------------------------- *)

type counter = int ref

let registry : (string, counter) Hashtbl.t = Hashtbl.create 64

(* names with gauge semantics: merged across workers by max, not sum *)
let gauge_set : (string, unit) Hashtbl.t = Hashtbl.create 8

let counter name =
  match Hashtbl.find_opt registry name with
  | Some c -> c
  | None ->
    let c = ref 0 in
    Hashtbl.replace registry name c;
    c

let gauge name =
  let c = counter name in
  Hashtbl.replace gauge_set name ();
  c

let is_gauge name = Hashtbl.mem gauge_set name

let incr c = if !on then Stdlib.incr c

let add c n = if !on then c := !c + n

let record_max c n = if !on && n > !c then c := n

let value c = !c

let counters () =
  List.sort compare (Hashtbl.fold (fun name c acc -> (name, !c) :: acc) registry [])

(* float gauges: named floating-point measurements with max-retain
   semantics (analyses/sec and friends, which an int counter would
   truncate) *)
let fgauges : (string, float) Hashtbl.t = Hashtbl.create 8

let record_float_max name v =
  if !on then
    match Hashtbl.find_opt fgauges name with
    | Some old when old >= v -> ()
    | _ -> Hashtbl.replace fgauges name v

let float_gauges () =
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) fgauges [])

(* this process's GC figures so far, as float gauges; they only grow, so
   recording them again at each export keeps the latest, and
   [snapshot], [write_stats_json] and [pp_stats] call this first, so a
   worker view holds the worker's own figures and a fleet's top level
   the largest of the parent's and its workers'.  [quick_stat]'s
   word counts stand as of the last minor collection, which is exact for
   promotion but not for allocation: [Gc.minor_words] also counts the
   words allocated since *)
let record_gc () =
  let g = Gc.quick_stat () in
  List.iter
    (fun (name, v) -> record_float_max name v)
    [ ("gc.minor_collections", float_of_int g.Gc.minor_collections);
      ("gc.major_collections", float_of_int g.Gc.major_collections);
      ("gc.minor_words", Gc.minor_words ());
      ("gc.promoted_words", g.Gc.promoted_words);
      ("gc.top_heap_words", float_of_int g.Gc.top_heap_words) ]

(* -- Histograms ------------------------------------------------------------------ *)

(* log2-bucketed latency histograms: bucket [i] counts observations with
   duration in [2^i, 2^(i+1)) ns (bucket 0 additionally absorbs 0 and
   1 ns).  64 buckets cover the full non-negative int63 range, so no
   observation is ever clipped.  Percentiles are recomputed from the buckets
   on export, which makes the representation mergeable bucket-wise
   across fleet workers. *)
let hist_buckets = 64

type histogram = {
  h_name : string;
  mutable h_count : int;
  mutable h_sum : int;  (* total observed ns *)
  h_b : int array;
}

let hist_registry : (string, histogram) Hashtbl.t = Hashtbl.create 8

let histogram name =
  match Hashtbl.find_opt hist_registry name with
  | Some h -> h
  | None ->
    let h = { h_name = name; h_count = 0; h_sum = 0; h_b = Array.make hist_buckets 0 } in
    Hashtbl.replace hist_registry name h;
    h

let bucket_of_ns ns =
  if ns <= 1 then 0
  else begin
    let i = ref 0 in
    let v = ref ns in
    while !v > 1 do
      i := !i + 1;
      v := !v lsr 1
    done;
    min (hist_buckets - 1) !i
  end

(* inclusive upper bound of bucket [i], used as the deterministic
   percentile estimate (pessimistic: reports the bucket ceiling) *)
let bucket_upper_ns i =
  if i >= 62 then max_int else (1 lsl (i + 1)) - 1

let observe_ns h ns =
  if !on then begin
    let ns = if Int64.compare ns 0L < 0 then 0 else Int64.to_int ns in
    let b = bucket_of_ns ns in
    h.h_count <- h.h_count + 1;
    h.h_sum <- h.h_sum + ns;
    h.h_b.(b) <- h.h_b.(b) + 1
  end

let time_hist h f =
  if not !on then f ()
  else begin
    let t0 = now_ns () in
    Fun.protect ~finally:(fun () -> observe_ns h (Int64.sub (now_ns ()) t0)) f
  end

type hist_view = {
  hv_name : string;
  hv_count : int;
  hv_sum_ns : int;
  hv_buckets : int array;
  hv_p50_ns : int;
  hv_p90_ns : int;
  hv_p99_ns : int;
}

let percentile_ns buckets count q =
  if count = 0 then 0
  else begin
    let target = max 1 (min count (int_of_float (ceil (q *. float_of_int count)))) in
    let acc = ref 0 in
    let res = ref 0 in
    (try
       Array.iteri
         (fun i n ->
           acc := !acc + n;
           if n > 0 then res := bucket_upper_ns i;
           if !acc >= target then raise Exit)
         buckets
     with Exit -> ());
    !res
  end

let view_of_buckets name count sum buckets =
  {
    hv_name = name;
    hv_count = count;
    hv_sum_ns = sum;
    hv_buckets = buckets;
    hv_p50_ns = percentile_ns buckets count 0.50;
    hv_p90_ns = percentile_ns buckets count 0.90;
    hv_p99_ns = percentile_ns buckets count 0.99;
  }

let histograms () =
  List.sort compare
    (Hashtbl.fold
       (fun _ h acc -> view_of_buckets h.h_name h.h_count h.h_sum (Array.copy h.h_b) :: acc)
       hist_registry [])

(* -- Sections -------------------------------------------------------------------- *)

(* named JSON values contributed by other subsystems (monitoring
   coverage per analyzed file, notably), written into the stats JSON;
   first-set order preserved *)
let section_tbl : (string * Jsonlite.value) list ref = ref []

let set_section name json = section_tbl := (name, json) :: List.remove_assoc name !section_tbl

(* -- Worker snapshots -------------------------------------------------------------- *)

(* v2: adds [sn_hists] (log-bucketed latency histograms, merged
   bucket-wise).
   v3: span records lose [s_domain] (a worker is one single-threaded
   process).
   v4: loses [sn_sections] (sections are set by the parent after the
   workers are done) *)
let snapshot_version = 4

type snapshot = {
  sn_version : int;
  sn_pid : int;
  sn_counters : (string * int) list;
  sn_gauge_names : string list;
  sn_fgauges : (string * float) list;
  sn_hists : (string * int * int * int array) list;
      (* name, count, sum_ns, buckets *)
  sn_spans : span_record list;
}

let snapshot () =
  record_gc ();
  {
    sn_version = snapshot_version;
    sn_pid = Unix.getpid ();
    sn_counters = counters ();
    sn_gauge_names = List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) gauge_set []);
    sn_fgauges = float_gauges ();
    sn_hists =
      List.map
        (fun hv -> (hv.hv_name, hv.hv_count, hv.hv_sum_ns, hv.hv_buckets))
        (histograms ());
    sn_spans = spans ();
  }

type worker_view = { w_label : string; w_snapshot : snapshot }

let worker_views : worker_view list ref = ref []  (* newest first *)

let merge_worker ~label (s : snapshot) =
  if s.sn_version <> snapshot_version then false
  else begin
    (* adopt the worker's gauge classification before merging, so a
       gauge the parent never registered still merges by max *)
    List.iter (fun n -> ignore (gauge n)) s.sn_gauge_names;
    List.iter
      (fun (name, v) ->
        let c = counter name in
        if List.mem name s.sn_gauge_names then record_max c v else add c v)
      s.sn_counters;
    List.iter (fun (n, v) -> record_float_max n v) s.sn_fgauges;
    (* histograms merge bucket-wise: counts, sums and every bucket are
       plain sums, and percentiles are recomputed from the merged
       buckets on export *)
    List.iter
      (fun (name, count, sum, buckets) ->
        let h = histogram name in
        h.h_count <- h.h_count + count;
        h.h_sum <- h.h_sum + sum;
        Array.iteri (fun i n -> if i < hist_buckets then h.h_b.(i) <- h.h_b.(i) + n) buckets)
      s.sn_hists;
    worker_views := { w_label = label; w_snapshot = s } :: !worker_views;
    true
  end

let workers () = List.rev !worker_views

let begin_worker () =
  finished := [];
  section_tbl := [];
  worker_views := [];
  Hashtbl.reset fgauges;
  Hashtbl.iter
    (fun _ h ->
      h.h_count <- 0;
      h.h_sum <- 0;
      Array.fill h.h_b 0 hist_buckets 0)
    hist_registry;
  Hashtbl.iter (fun _ c -> c := 0) registry

(* -- Switch / reset -------------------------------------------------------------- *)

let reset () =
  epoch := now_ns ();
  begin_worker ()

let set_enabled b =
  if b && not !on then epoch := now_ns ();
  on := b

(* -- JSON export ------------------------------------------------------------------- *)

module J = Jsonlite

let us_of_ns ns = Int64.to_float ns /. 1_000.0

let ms_of_ns ns = Int64.to_float ns /. 1_000_000.0

let write_json path v =
  let oc = open_out path in
  J.to_channel oc v;
  output_char oc '\n';
  close_out oc

(* -- Chrome trace export ----------------------------------------------------------- *)

let write_chrome_trace path =
  let meta ~pid name =
    J.Vobj
      [ ("name", J.Vstr "process_name"); ("ph", J.Vstr "M"); ("pid", J.Vint pid);
        ("tid", J.Vint 0); ("args", J.Vobj [ ("name", J.Vstr name) ]) ]
  in
  let event ~pid s =
    J.Vobj
      ([ ("name", J.Vstr s.s_name); ("cat", J.Vstr "safeflow"); ("ph", J.Vstr "X");
         ("ts", J.Vfixed (3, us_of_ns s.s_start_ns)); ("dur", J.Vfixed (3, us_of_ns s.s_dur_ns));
         ("pid", J.Vint pid); ("tid", J.Vint 0) ]
      @
      if s.s_args = [] then []
      else [ ("args", J.Vobj (List.map (fun (k, v) -> (k, J.Vstr v)) s.s_args)) ])
  in
  let self_pid = Unix.getpid () in
  let ws = workers () in
  let span_events =
    List.map (event ~pid:self_pid) (spans ())
    @ List.concat_map
        (fun w -> List.map (event ~pid:w.w_snapshot.sn_pid) (sort_spans w.w_snapshot.sn_spans))
        ws
  in
  (* latency histograms as trace counter events ("ph":"C"): one sample
     per histogram at the current trace time, so Perfetto renders a
     counter track with the percentile series next to the span rows *)
  let now_ts = us_of_ns (Int64.sub (now_ns ()) !epoch) in
  let hist_events =
    List.filter_map
      (fun hv ->
        if hv.hv_count = 0 then None
        else
          Some
            (J.Vobj
               [ ("name", J.Vstr ("hist:" ^ hv.hv_name)); ("cat", J.Vstr "safeflow");
                 ("ph", J.Vstr "C"); ("ts", J.Vfixed (3, now_ts)); ("pid", J.Vint self_pid);
                 ("tid", J.Vint 0);
                 ( "args",
                   J.Vobj
                     [ ("count", J.Vint hv.hv_count);
                       ("p50_us", J.Vfixed (3, float_of_int hv.hv_p50_ns /. 1_000.0));
                       ("p90_us", J.Vfixed (3, float_of_int hv.hv_p90_ns /. 1_000.0));
                       ("p99_us", J.Vfixed (3, float_of_int hv.hv_p99_ns /. 1_000.0)) ] ) ]))
      (histograms ())
  in
  write_json path
    (J.Vobj
       [ ("displayTimeUnit", J.Vstr "ms");
         ( "traceEvents",
           J.Varr
             ((meta ~pid:self_pid (if ws = [] then "safeflow" else "safeflow (fleet parent)")
              :: List.map (fun w -> meta ~pid:w.w_snapshot.sn_pid w.w_label) ws)
             @ span_events @ hist_events) ) ])

(* -- Aggregated span tree ------------------------------------------------------------ *)

(* One tree node per distinct name under a given parent aggregate:
   sibling spans sharing a name collapse into (count, total time), which
   keeps the tree readable when a phase opens thousands of per-pair or
   per-function spans. *)
type agg = {
  g_name : string;
  mutable g_count : int;
  mutable g_total_ns : int64;
  g_children : (string, agg) Hashtbl.t;
  mutable g_order : string list;  (* child names, first-seen order, reversed *)
}

let new_agg name =
  { g_name = name; g_count = 0; g_total_ns = 0L; g_children = Hashtbl.create 4; g_order = [] }

(* fold one span list (its own id space) into [root]; worker span lists
   merge into the same tree by name, so the aggregated view is
   fleet-wide *)
let aggregate_into root (all : span_record list) =
  let by_id = Hashtbl.create (List.length all) in
  List.iter (fun s -> Hashtbl.replace by_id s.s_id s) all;
  (* aggregate node for a span: walk its ancestor chain, descending from
     the root through one agg per (depth, name) *)
  let rec agg_of (s : span_record) : agg =
    let parent_agg =
      match Hashtbl.find_opt by_id s.s_parent with
      | Some p -> agg_of p
      | None -> root
    in
    match Hashtbl.find_opt parent_agg.g_children s.s_name with
    | Some a -> a
    | None ->
      let a = new_agg s.s_name in
      Hashtbl.replace parent_agg.g_children s.s_name a;
      parent_agg.g_order <- s.s_name :: parent_agg.g_order;
      a
  in
  List.iter
    (fun s ->
      let a = agg_of s in
      a.g_count <- a.g_count + 1;
      a.g_total_ns <- Int64.add a.g_total_ns s.s_dur_ns)
    all

let aggregate () =
  let root = new_agg "" in
  aggregate_into root (spans ());
  List.iter
    (fun w -> aggregate_into root (sort_spans w.w_snapshot.sn_spans))
    (workers ());
  root

let rec iter_agg f depth (a : agg) =
  List.iter
    (fun name ->
      let child = Hashtbl.find a.g_children name in
      f depth child;
      iter_agg f (depth + 1) child)
    (List.rev a.g_order)

(* -- Stats JSON ---------------------------------------------------------------------- *)

(* v2: adds the "sections" object (one JSON value per subsystem entry,
   e.g. per-file monitoring coverage).
   v3: adds "pid", the "gauges" object (float gauges such as
   fleet.analyses_per_sec) and the "workers" array (per-worker counter/
   gauge breakdown from merged fleet snapshots); "counters" and "spans"
   are the merged fleet-wide view when workers are present.
   v4: adds the "histograms" object (log2-bucketed latency histograms
   with count / total_ms / p50_us / p90_us / p99_us and sparse
   [bucket, count] pairs), both at top level (fleet-merged) and inside
   each "workers" entry. *)
let stats_json_schema = "safeflow-telemetry/4"

let counters_json cs = J.Vobj (List.map (fun (name, v) -> (name, J.Vint v)) cs)

let fgauges_json gs = J.Vobj (List.map (fun (name, v) -> (name, J.Vfixed (6, v))) gs)

let hists_json hs =
  J.Vobj
    (List.map
       (fun hv ->
         let buckets = ref [] in
         Array.iteri
           (fun j n -> if n > 0 then buckets := J.Varr [ J.Vint j; J.Vint n ] :: !buckets)
           hv.hv_buckets;
         ( hv.hv_name,
           J.Vobj
             [ ("count", J.Vint hv.hv_count);
               ("total_ms", J.Vfixed (3, float_of_int hv.hv_sum_ns /. 1_000_000.0));
               ("p50_us", J.Vfixed (3, float_of_int hv.hv_p50_ns /. 1_000.0));
               ("p90_us", J.Vfixed (3, float_of_int hv.hv_p90_ns /. 1_000.0));
               ("p99_us", J.Vfixed (3, float_of_int hv.hv_p99_ns /. 1_000.0));
               ("buckets", J.Varr (List.rev !buckets)) ] ))
       hs)

let worker_hist_views (s : snapshot) =
  List.map
    (fun (name, count, sum, buckets) -> view_of_buckets name count sum buckets)
    s.sn_hists

let write_stats_json path =
  record_gc ();
  let spans = ref [] in
  iter_agg
    (fun depth a ->
      spans :=
        J.Vobj
          [ ("name", J.Vstr a.g_name); ("depth", J.Vint depth); ("count", J.Vint a.g_count);
            ("total_ms", J.Vfixed (3, ms_of_ns a.g_total_ns)) ]
        :: !spans)
    0 (aggregate ());
  let worker w =
    let s = w.w_snapshot in
    J.Vobj
      [ ("label", J.Vstr w.w_label); ("pid", J.Vint s.sn_pid);
        ("spans", J.Vint (List.length s.sn_spans)); ("counters", counters_json s.sn_counters);
        ("gauges", fgauges_json s.sn_fgauges); ("histograms", hists_json (worker_hist_views s)) ]
  in
  write_json path
    (J.Vobj
       [ ("schema", J.Vstr stats_json_schema); ("pid", J.Vint (Unix.getpid ()));
         ("counters", counters_json (counters ())); ("gauges", fgauges_json (float_gauges ()));
         ("histograms", hists_json (histograms ())); ("spans", J.Varr (List.rev !spans));
         ("workers", J.Varr (List.map worker (workers ())));
         ("sections", J.Vobj (List.rev !section_tbl)) ])

(* -- Human-readable tree -------------------------------------------------------------- *)

let pp_stats ppf () =
  record_gc ();
  Fmt.pf ppf "@[<v>== telemetry ==@,";
  (match workers () with
  | [] -> ()
  | ws ->
    Fmt.pf ppf "merged %d worker snapshot(s):%a@," (List.length ws)
      (fun ppf ws ->
        List.iter
          (fun w -> Fmt.pf ppf " %s(pid %d)" w.w_label w.w_snapshot.sn_pid)
          ws)
      ws);
  Fmt.pf ppf "span tree (count, total wall time):@,";
  let any = ref false in
  iter_agg
    (fun depth a ->
      any := true;
      let indent = String.make (2 + (2 * depth)) ' ' in
      let label = indent ^ a.g_name in
      Fmt.pf ppf "%-42s %6d x %10.2f ms@," label a.g_count (ms_of_ns a.g_total_ns))
    0 (aggregate ());
  if not !any then Fmt.pf ppf "  (no spans recorded)@,";
  Fmt.pf ppf "counters:@,";
  List.iter
    (fun (name, v) ->
      Fmt.pf ppf "  %-40s %12d%s@," name v
        (if is_gauge name then "  (gauge)" else ""))
    (counters ());
  (match float_gauges () with
  | [] -> ()
  | gs ->
    Fmt.pf ppf "gauges:@,";
    List.iter (fun (name, v) -> Fmt.pf ppf "  %-40s %12.3f@," name v) gs);
  (match List.filter (fun hv -> hv.hv_count > 0) (histograms ()) with
  | [] -> ()
  | hs ->
    Fmt.pf ppf "histograms (count, p50/p90/p99, total):@,";
    List.iter
      (fun hv ->
        Fmt.pf ppf "  %-28s %8d x  %8.1f/%8.1f/%8.1f us %10.2f ms@,"
          hv.hv_name hv.hv_count
          (float_of_int hv.hv_p50_ns /. 1_000.0)
          (float_of_int hv.hv_p90_ns /. 1_000.0)
          (float_of_int hv.hv_p99_ns /. 1_000.0)
          (float_of_int hv.hv_sum_ns /. 1_000_000.0))
      hs);
  Fmt.pf ppf "@]"
