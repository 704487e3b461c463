(** Telemetry implementation (see the interface for the contract).

    Hot-path discipline: every entry point loads one atomic flag and
    returns when telemetry is off, so instrumented code costs a load and
    a branch when disabled.  When enabled, span finish and counter
    registration take a global mutex; counter updates are lock-free
    atomics.

    Fleet aggregation: a forked worker process records into its own
    inherited copy of this state (cleared by {!begin_worker}), packages
    it as a versioned {!snapshot} at exit, and the fleet parent merges
    every worker snapshot back in with {!merge_worker} — counters
    summed, gauges max'd, spans kept per worker for the multi-process
    Chrome trace and merged by name into the aggregated tree. *)

external now_ns : unit -> int64 = "safeflow_monotonic_ns"

let on = Atomic.make false

let enabled () = Atomic.get on

(* -- Spans --------------------------------------------------------------------- *)

type span_record = {
  s_id : int;
  s_parent : int;
  s_name : string;
  s_args : (string * string) list;
  s_domain : int;
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

let lock = Mutex.create ()

let locked f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

(* trace epoch: all exported timestamps are relative to this.  A forked
   worker inherits the parent's epoch, and CLOCK_MONOTONIC is
   system-wide, so parent and worker span timestamps share one timeline
   in the merged trace. *)
let epoch = Atomic.make (now_ns ())

let next_span_id = Atomic.make 0

let finished : span_record list ref = ref []  (* newest first; guarded by [lock] *)

(* per-domain stack of open spans *)
let stack_key : active list ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref [])

let span ?(args = []) name f =
  if not (Atomic.get on) then f ()
  else begin
    let stack = Domain.DLS.get stack_key in
    let parent = match !stack with [] -> -1 | a :: _ -> a.a_id in
    let a =
      {
        a_id = Atomic.fetch_and_add next_span_id 1;
        a_parent = parent;
        a_name = name;
        a_args = args;
        a_t0 = now_ns ();
      }
    in
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
            s_domain = (Domain.self () :> int);
            s_start_ns = Int64.sub a.a_t0 (Atomic.get epoch);
            s_dur_ns = dur;
          }
        in
        locked (fun () -> finished := r :: !finished))
      f
  end

let sort_spans l =
  List.sort (fun a b -> compare (a.s_start_ns, a.s_id) (b.s_start_ns, b.s_id)) l

let spans () = sort_spans (locked (fun () -> !finished))

(* -- Counters and gauges --------------------------------------------------------- *)

type counter = int Atomic.t

let registry : (string, counter) Hashtbl.t = Hashtbl.create 64

(* names with gauge semantics: merged across workers by max, not sum *)
let gauge_set : (string, unit) Hashtbl.t = Hashtbl.create 8

let counter name =
  locked (fun () ->
      match Hashtbl.find_opt registry name with
      | Some c -> c
      | None ->
        let c = Atomic.make 0 in
        Hashtbl.replace registry name c;
        c)

let gauge name =
  let c = counter name in
  locked (fun () -> Hashtbl.replace gauge_set name ());
  c

let is_gauge name = locked (fun () -> Hashtbl.mem gauge_set name)

let incr c = if Atomic.get on then ignore (Atomic.fetch_and_add c 1)

let add c n = if Atomic.get on then ignore (Atomic.fetch_and_add c n)

let rec record_max c n =
  if Atomic.get on then begin
    let v = Atomic.get c in
    if n > v && not (Atomic.compare_and_set c v n) then record_max c n
  end

let value c = Atomic.get c

let counters () =
  locked (fun () ->
      List.sort compare
        (Hashtbl.fold (fun name c acc -> (name, Atomic.get c) :: acc) registry []))

(* float gauges: named floating-point measurements with max-retain
   semantics (analyses/sec and friends, which an int counter would
   truncate); guarded by [lock] *)
let fgauges : (string, float) Hashtbl.t = Hashtbl.create 8

let record_float_max name v =
  if Atomic.get on then
    locked (fun () ->
        match Hashtbl.find_opt fgauges name with
        | Some old when old >= v -> ()
        | _ -> Hashtbl.replace fgauges name v)

let float_gauges () =
  locked (fun () ->
      List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) fgauges []))

(* -- Histograms ------------------------------------------------------------------ *)

(* log2-bucketed latency histograms: bucket [i] counts observations with
   duration in [2^i, 2^(i+1)) ns (bucket 0 additionally absorbs 0 and
   1 ns).  64 buckets cover the full non-negative int63 range, so no
   observation is ever clipped.  Updates are lock-free atomics, same
   discipline as counters; percentiles are recomputed from the buckets
   on export, which makes the representation mergeable bucket-wise
   across fleet workers. *)
let hist_buckets = 64

type histogram = {
  h_name : string;
  h_count : int Atomic.t;
  h_sum : int Atomic.t;  (* total observed ns *)
  h_b : int Atomic.t array;
}

let hist_registry : (string, histogram) Hashtbl.t = Hashtbl.create 8

let histogram name =
  locked (fun () ->
      match Hashtbl.find_opt hist_registry name with
      | Some h -> h
      | None ->
        let h =
          {
            h_name = name;
            h_count = Atomic.make 0;
            h_sum = Atomic.make 0;
            h_b = Array.init hist_buckets (fun _ -> Atomic.make 0);
          }
        in
        Hashtbl.replace hist_registry name h;
        h)

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
  if Atomic.get on then begin
    let ns = if Int64.compare ns 0L < 0 then 0 else Int64.to_int ns in
    ignore (Atomic.fetch_and_add h.h_count 1);
    ignore (Atomic.fetch_and_add h.h_sum ns);
    ignore (Atomic.fetch_and_add h.h_b.(bucket_of_ns ns) 1)
  end

let time_hist h f =
  if not (Atomic.get on) then f ()
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
  let hs =
    locked (fun () -> Hashtbl.fold (fun _ h acc -> h :: acc) hist_registry [])
  in
  List.sort compare
    (List.map
       (fun h ->
         view_of_buckets h.h_name (Atomic.get h.h_count) (Atomic.get h.h_sum)
           (Array.map Atomic.get h.h_b))
       hs)

(* -- Sections -------------------------------------------------------------------- *)

(* named raw-JSON fragments contributed by other subsystems (monitoring
   coverage per analyzed file, notably) and embedded verbatim in the
   stats JSON; guarded by [lock], first-set order preserved *)
let section_tbl : (string * string) list ref = ref []

let set_section name json =
  locked (fun () ->
      section_tbl := (name, json) :: List.remove_assoc name !section_tbl)

let sections () = locked (fun () -> List.rev !section_tbl)

(* -- Worker snapshots -------------------------------------------------------------- *)

(* v2: adds [sn_hists] (log-bucketed latency histograms, merged
   bucket-wise) *)
let snapshot_version = 2

type snapshot = {
  sn_version : int;
  sn_pid : int;
  sn_counters : (string * int) list;
  sn_gauge_names : string list;
  sn_fgauges : (string * float) list;
  sn_hists : (string * int * int * int array) list;
      (* name, count, sum_ns, buckets *)
  sn_spans : span_record list;
  sn_sections : (string * string) list;
}

let snapshot () =
  {
    sn_version = snapshot_version;
    sn_pid = Unix.getpid ();
    sn_counters = counters ();
    sn_gauge_names =
      locked (fun () ->
          List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) gauge_set []));
    sn_fgauges = float_gauges ();
    sn_hists =
      List.map
        (fun hv -> (hv.hv_name, hv.hv_count, hv.hv_sum_ns, hv.hv_buckets))
        (histograms ());
    sn_spans = spans ();
    sn_sections = sections ();
  }

type worker_view = { w_label : string; w_snapshot : snapshot }

let worker_views : worker_view list ref = ref []  (* newest first; guarded by [lock] *)

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
        ignore (Atomic.fetch_and_add h.h_count count);
        ignore (Atomic.fetch_and_add h.h_sum sum);
        Array.iteri
          (fun i n ->
            if i < hist_buckets && n > 0 then
              ignore (Atomic.fetch_and_add h.h_b.(i) n))
          buckets)
      s.sn_hists;
    (* sections carry analysis-derived data, not timings: keep the
       parent's value when both set the same name *)
    List.iter
      (fun (name, json) ->
        locked (fun () ->
            if not (List.mem_assoc name !section_tbl) then
              section_tbl := (name, json) :: !section_tbl))
      s.sn_sections;
    locked (fun () ->
        worker_views := { w_label = label; w_snapshot = s } :: !worker_views);
    true
  end

let workers () = List.rev (locked (fun () -> !worker_views))

let zero_hists () =
  Hashtbl.iter
    (fun _ h ->
      Atomic.set h.h_count 0;
      Atomic.set h.h_sum 0;
      Array.iter (fun b -> Atomic.set b 0) h.h_b)
    hist_registry

let begin_worker () =
  locked (fun () ->
      finished := [];
      section_tbl := [];
      worker_views := [];
      Hashtbl.reset fgauges;
      zero_hists ();
      Hashtbl.iter (fun _ c -> Atomic.set c 0) registry)

(* -- Switch / reset -------------------------------------------------------------- *)

let reset () =
  Atomic.set epoch (now_ns ());
  locked (fun () ->
      finished := [];
      section_tbl := [];
      worker_views := [];
      Hashtbl.reset fgauges;
      zero_hists ();
      Hashtbl.iter (fun _ c -> Atomic.set c 0) registry)

let set_enabled b =
  if b && not (Atomic.get on) then Atomic.set epoch (now_ns ());
  Atomic.set on b

(* -- JSON helpers ----------------------------------------------------------------- *)

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let us_of_ns ns = Int64.to_float ns /. 1_000.0

let ms_of_ns ns = Int64.to_float ns /. 1_000_000.0

(* -- Chrome trace export ----------------------------------------------------------- *)

let write_chrome_trace path =
  let b = Buffer.create 4096 in
  let first = ref true in
  let sep () =
    if !first then first := false else Buffer.add_char b ',' in
  let meta ~pid name =
    sep ();
    Buffer.add_string b
      (Printf.sprintf
         "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":0,\"args\":{\"name\":\"%s\"}}"
         pid (json_escape name))
  in
  let event ~pid s =
    sep ();
    Buffer.add_string b
      (Printf.sprintf
         "{\"name\":\"%s\",\"cat\":\"safeflow\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":%d,\"tid\":%d"
         (json_escape s.s_name) (us_of_ns s.s_start_ns) (us_of_ns s.s_dur_ns) pid
         s.s_domain);
    if s.s_args <> [] then begin
      Buffer.add_string b ",\"args\":{";
      List.iteri
        (fun j (k, v) ->
          if j > 0 then Buffer.add_char b ',';
          Buffer.add_string b
            (Printf.sprintf "\"%s\":\"%s\"" (json_escape k) (json_escape v)))
        s.s_args;
      Buffer.add_char b '}'
    end;
    Buffer.add_char b '}'
  in
  Buffer.add_string b "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  let self_pid = Unix.getpid () in
  let ws = workers () in
  meta ~pid:self_pid (if ws = [] then "safeflow" else "safeflow (fleet parent)");
  List.iter (fun w -> meta ~pid:w.w_snapshot.sn_pid w.w_label) ws;
  List.iter (event ~pid:self_pid) (spans ());
  List.iter
    (fun w ->
      List.iter (event ~pid:w.w_snapshot.sn_pid) (sort_spans w.w_snapshot.sn_spans))
    ws;
  (* latency histograms as trace counter events ("ph":"C"): one sample
     per histogram at the current trace time, so Perfetto renders a
     counter track with the percentile series next to the span rows *)
  let now_ts = us_of_ns (Int64.sub (now_ns ()) (Atomic.get epoch)) in
  List.iter
    (fun hv ->
      if hv.hv_count > 0 then begin
        sep ();
        Buffer.add_string b
          (Printf.sprintf
             "{\"name\":\"hist:%s\",\"cat\":\"safeflow\",\"ph\":\"C\",\"ts\":%.3f,\"pid\":%d,\"tid\":0,\"args\":{\"count\":%d,\"p50_us\":%.3f,\"p90_us\":%.3f,\"p99_us\":%.3f}}"
             (json_escape hv.hv_name) now_ts self_pid hv.hv_count
             (float_of_int hv.hv_p50_ns /. 1_000.0)
             (float_of_int hv.hv_p90_ns /. 1_000.0)
             (float_of_int hv.hv_p99_ns /. 1_000.0))
      end)
    (histograms ());
  Buffer.add_string b "]}\n";
  let oc = open_out path in
  output_string oc (Buffer.contents b);
  close_out oc

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

(* v2: adds the "sections" object (raw JSON fragments from subsystems,
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

let buf_counters b (cs : (string * int) list) =
  Buffer.add_char b '{';
  List.iteri
    (fun i (name, v) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b (Printf.sprintf "\"%s\":%d" (json_escape name) v))
    cs;
  Buffer.add_char b '}'

let buf_fgauges b (gs : (string * float) list) =
  Buffer.add_char b '{';
  List.iteri
    (fun i (name, v) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b (Printf.sprintf "\"%s\":%.6f" (json_escape name) v))
    gs;
  Buffer.add_char b '}'

let buf_hists b (hs : hist_view list) =
  Buffer.add_char b '{';
  List.iteri
    (fun i hv ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf
           "\"%s\":{\"count\":%d,\"total_ms\":%.3f,\"p50_us\":%.3f,\"p90_us\":%.3f,\"p99_us\":%.3f,\"buckets\":["
           (json_escape hv.hv_name) hv.hv_count
           (float_of_int hv.hv_sum_ns /. 1_000_000.0)
           (float_of_int hv.hv_p50_ns /. 1_000.0)
           (float_of_int hv.hv_p90_ns /. 1_000.0)
           (float_of_int hv.hv_p99_ns /. 1_000.0));
      let first = ref true in
      Array.iteri
        (fun j n ->
          if n > 0 then begin
            if not !first then Buffer.add_char b ',';
            first := false;
            Buffer.add_string b (Printf.sprintf "[%d,%d]" j n)
          end)
        hv.hv_buckets;
      Buffer.add_string b "]}")
    hs;
  Buffer.add_char b '}'

let worker_hist_views (s : snapshot) =
  List.map
    (fun (name, count, sum, buckets) -> view_of_buckets name count sum buckets)
    s.sn_hists

let write_stats_json path =
  let b = Buffer.create 4096 in
  Buffer.add_string b (Printf.sprintf "{\"schema\":\"%s\"" stats_json_schema);
  Buffer.add_string b (Printf.sprintf ",\"pid\":%d" (Unix.getpid ()));
  Buffer.add_string b ",\"counters\":";
  buf_counters b (counters ());
  Buffer.add_string b ",\"gauges\":";
  buf_fgauges b (float_gauges ());
  Buffer.add_string b ",\"histograms\":";
  buf_hists b (histograms ());
  Buffer.add_string b ",\"spans\":[";
  let first = ref true in
  iter_agg
    (fun depth a ->
      if not !first then Buffer.add_char b ',';
      first := false;
      Buffer.add_string b
        (Printf.sprintf "{\"name\":\"%s\",\"depth\":%d,\"count\":%d,\"total_ms\":%.3f}"
           (json_escape a.g_name) depth a.g_count (ms_of_ns a.g_total_ns)))
    0 (aggregate ());
  Buffer.add_string b "],\"workers\":[";
  List.iteri
    (fun i w ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf "{\"label\":\"%s\",\"pid\":%d,\"spans\":%d,\"counters\":"
           (json_escape w.w_label) w.w_snapshot.sn_pid
           (List.length w.w_snapshot.sn_spans));
      buf_counters b w.w_snapshot.sn_counters;
      Buffer.add_string b ",\"gauges\":";
      buf_fgauges b w.w_snapshot.sn_fgauges;
      Buffer.add_string b ",\"histograms\":";
      buf_hists b (worker_hist_views w.w_snapshot);
      Buffer.add_char b '}')
    (workers ());
  Buffer.add_string b "],\"sections\":{";
  List.iteri
    (fun i (name, json) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b (Printf.sprintf "\"%s\":%s" (json_escape name) json))
    (sections ());
  Buffer.add_string b "}}\n";
  let oc = open_out path in
  output_string oc (Buffer.contents b);
  close_out oc

(* -- Human-readable tree -------------------------------------------------------------- *)

let pp_stats ppf () =
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
