(* Observability-layer tests:

   - Jsonlite round-trips of the JSON the tool itself emits, plus the
     edge cases a reader must survive: \uXXXX escapes (including
     surrogate pairs), deep nesting, mantissa-boundary numbers, and
     every truncated prefix of a document;
   - Telemetry worker-snapshot merging: counters summed, gauges max'd,
     float gauges max'd, histograms merged bucket-wise (percentiles
     recomputed, never averaged), empty and version-mismatched
     snapshots, deep span trees aggregated fleet-wide in the stats JSON;
   - Ledger: the per-obligation audit trail reconciles exactly with the
     phase-2 bounds summary on every subject system;
   - Events: every constructor yields one parseable line with the
     expected fields;
   - Progress: event lines drive the members-done accounting and the
     rendered line.

   These tests mutate the process-global telemetry state; each one
   resets it and the file ends with telemetry disabled. *)

open Safeflow

let tmpfile suffix =
  Filename.temp_file "sf-obs" suffix

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let find_system name =
  let candidates =
    [ "../../../systems/" ^ name; "../../systems/" ^ name; "systems/" ^ name ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some p -> p
  | None -> Alcotest.fail ("cannot locate systems/" ^ name)

(* -- Jsonlite ----------------------------------------------------------------- *)

let test_jsonlite_basics () =
  let doc = {|{"a":1,"b":[true,null,"x\ny"],"c":{"d":-2.5,"e":""}}|} in
  match Jsonlite.parse doc with
  | Error e -> Alcotest.fail e
  | Ok j ->
    Alcotest.(check (option int)) "int member" (Some 1)
      (Option.bind (Jsonlite.member "a" j) Jsonlite.to_int);
    let b = Option.bind (Jsonlite.member "b" j) Jsonlite.to_list in
    (match b with
    | Some [ Jsonlite.Bool true; Jsonlite.Null; Jsonlite.Str s ] ->
      Alcotest.(check string) "escaped string decoded" "x\ny" s
    | _ -> Alcotest.fail "array shape");
    Alcotest.(check (option (float 1e-9))) "nested float" (Some (-2.5))
      (Option.bind (Jsonlite.member "c" j) (fun c ->
           Option.bind (Jsonlite.member "d" c) Jsonlite.to_float))

let test_jsonlite_errors () =
  let bad s =
    match Jsonlite.parse s with Ok _ -> Alcotest.fail ("accepted " ^ s) | Error _ -> ()
  in
  bad "{";
  bad "[1,]";
  bad "{\"a\":1} trailing";
  bad "tru";
  bad "";
  (* escape must survive a round-trip through parse *)
  let tricky = "a\"b\\c\nd\te\r" ^ String.make 1 (Char.chr 7) in
  let doc = "{\"k\":\"" ^ Jsonlite.escape tricky ^ "\"}" in
  match Jsonlite.parse doc with
  | Ok j ->
    Alcotest.(check (option string)) "escape round-trip" (Some tricky)
      (Option.bind (Jsonlite.member "k" j) Jsonlite.to_string)
  | Error e -> Alcotest.fail e

let test_jsonlite_unicode () =
  let str1 doc =
    match Jsonlite.parse doc with
    | Ok j -> (
      match Option.bind (Jsonlite.member "k" j) Jsonlite.to_string with
      | Some s -> s
      | None -> Alcotest.fail ("no string member in " ^ doc))
    | Error e -> Alcotest.fail (e ^ " in " ^ doc)
  in
  Alcotest.(check string) "ascii escape" "A" (str1 {|{"k":"\u0041"}|});
  Alcotest.(check string) "2-byte utf8" "\xc3\xa9" (str1 {|{"k":"\u00e9"}|});
  Alcotest.(check string) "3-byte utf8" "\xe2\x82\xac" (str1 {|{"k":"\u20ac"}|});
  (* U+1F600 needs a surrogate pair and a 4-byte UTF-8 encoding *)
  Alcotest.(check string) "surrogate pair" "\xf0\x9f\x98\x80"
    (str1 {|{"k":"\ud83d\ude00"}|});
  Alcotest.(check string) "surrogate pair, upper-case hex" "\xf0\x9f\x98\x80"
    (str1 {|{"k":"\uD83D\uDE00"}|});
  (* U+10000, the lowest supplementary code point *)
  Alcotest.(check string) "first supplementary code point" "\xf0\x90\x80\x80"
    (str1 {|{"k":"\ud800\udc00"}|});
  let bad doc =
    match Jsonlite.parse doc with
    | Ok _ -> Alcotest.fail ("accepted " ^ doc)
    | Error _ -> ()
  in
  bad {|{"k":"\ud83d"}|};          (* unpaired high surrogate at end *)
  bad {|{"k":"\ud83dx"}|};         (* high surrogate, then plain char *)
  bad {|{"k":"\ud83d\n"}|};        (* high surrogate, then other escape *)
  bad {|{"k":"\ud83d\u0041"}|};  (* high surrogate, then non-low escape *)
  bad {|{"k":"\ude00"}|};          (* lone low surrogate *)
  bad {|{"k":"\uZZZZ"}|};          (* non-hex digits *)
  bad {|{"k":"\u1_23"}|};          (* OCaml int literal syntax is not hex *)
  bad {|{"k":"\u00"}|}             (* hex digits cut short by the quote *)

let test_jsonlite_deep_nesting () =
  let depth = 10_000 in
  let doc = String.make depth '[' ^ "7" ^ String.make depth ']' in
  match Jsonlite.parse doc with
  | Error e -> Alcotest.fail e
  | Ok j ->
    let rec unwrap n j =
      match j with
      | Jsonlite.Arr [ inner ] -> unwrap (n + 1) inner
      | Jsonlite.Num f -> (n, f)
      | _ -> Alcotest.fail "unexpected shape"
    in
    let n, f = unwrap 0 j in
    Alcotest.(check int) "depth preserved" depth n;
    Alcotest.(check (float 0.0)) "leaf value" 7.0 f

let test_jsonlite_num_boundaries () =
  let int_of doc =
    match Jsonlite.parse doc with
    | Ok j -> Option.bind (Jsonlite.member "n" j) Jsonlite.to_int
    | Error e -> Alcotest.fail e
  in
  (* numbers are doubles: every integer with |n| <= 2^53 is exact *)
  Alcotest.(check (option int)) "2^53-1 exact" (Some 9007199254740991)
    (int_of {|{"n":9007199254740991}|});
  Alcotest.(check (option int)) "-(2^53-1) exact" (Some (-9007199254740991))
    (int_of {|{"n":-9007199254740991}|});
  Alcotest.(check (option int)) "2^53 exact" (Some 9007199254740992)
    (int_of {|{"n":9007199254740992}|});
  (* int64-boundary inputs parse (rounded to the nearest double) rather
     than erroring; only <= 2^53 exactness is promised *)
  (match Jsonlite.parse {|{"n":9223372036854775807}|} with
  | Error e -> Alcotest.fail e
  | Ok j -> (
    match Option.bind (Jsonlite.member "n" j) Jsonlite.to_float with
    | None -> Alcotest.fail "int64 max not numeric"
    | Some f ->
      Alcotest.(check bool) "int64 max within rounding" true
        (abs_float (f -. 9.223372036854775808e18) <= 2048.0)));
  match Jsonlite.parse {|{"n":-9223372036854775808}|} with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e

let test_jsonlite_truncated_prefixes () =
  (* no strict prefix of an object document is valid JSON — the brace
     never closes.  Every cut point, including mid-escape and
     mid-surrogate-pair, must yield Error: never an exception, never a
     bogus Ok. *)
  let doc = {|{"k":[1,-2.5e2,{"u":"\u0041\ud83d\ude00"},null,true,"x\ty"]}|} in
  for n = 0 to String.length doc - 1 do
    match Jsonlite.parse (String.sub doc 0 n) with
    | Ok _ -> Alcotest.failf "prefix of length %d accepted" n
    | Error _ -> ()
  done;
  match Jsonlite.parse doc with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("full document rejected: " ^ e)

(* -- Telemetry snapshot merge -------------------------------------------------- *)

let fresh () =
  Telemetry.set_enabled true;
  Telemetry.reset ()

let counter_value name = Telemetry.value (Telemetry.counter name)

let mk_snapshot ?(pid = 4242) ?(version = Telemetry.snapshot_version)
    ?(counters = []) ?(gauge_names = []) ?(fgauges = []) ?(hists = [])
    ?(spans = []) ?(sections = []) () =
  {
    Telemetry.sn_version = version;
    sn_pid = pid;
    sn_counters = counters;
    sn_gauge_names = gauge_names;
    sn_fgauges = fgauges;
    sn_hists = hists;
    sn_spans = spans;
    sn_sections = sections;
  }

let test_merge_counters () =
  fresh ();
  Telemetry.add (Telemetry.counter "obs.a") 5;
  let w1 = mk_snapshot ~counters:[ ("obs.a", 3); ("obs.b", 7) ] () in
  let w2 = mk_snapshot ~counters:[ ("obs.a", 2); ("obs.b", 1) ] () in
  Alcotest.(check bool) "merge w1" true (Telemetry.merge_worker ~label:"w1" w1);
  Alcotest.(check bool) "merge w2" true (Telemetry.merge_worker ~label:"w2" w2);
  Alcotest.(check int) "duplicate names summed across workers" 10 (counter_value "obs.a");
  Alcotest.(check int) "worker-only counter adopted" 8 (counter_value "obs.b");
  Alcotest.(check int) "both snapshots retained" 2 (List.length (Telemetry.workers ()))

let test_merge_empty_and_mismatch () =
  fresh ();
  Telemetry.add (Telemetry.counter "obs.a") 5;
  Alcotest.(check bool) "empty snapshot merges" true
    (Telemetry.merge_worker ~label:"empty" (mk_snapshot ()));
  Alcotest.(check int) "empty worker is a no-op on counters" 5 (counter_value "obs.a");
  Alcotest.(check bool) "version mismatch rejected" false
    (Telemetry.merge_worker ~label:"bad"
       (mk_snapshot ~version:(Telemetry.snapshot_version + 1)
          ~counters:[ ("obs.a", 100) ] ()));
  Alcotest.(check int) "rejected snapshot merged nothing" 5 (counter_value "obs.a");
  Alcotest.(check int) "rejected snapshot not retained" 1
    (List.length (Telemetry.workers ()))

let test_merge_gauges () =
  fresh ();
  Telemetry.record_max (Telemetry.gauge "obs.peak") 4;
  let w1 = mk_snapshot ~counters:[ ("obs.peak", 9) ] ~gauge_names:[ "obs.peak" ] () in
  let w2 = mk_snapshot ~counters:[ ("obs.peak", 6) ] ~gauge_names:[ "obs.peak" ] () in
  ignore (Telemetry.merge_worker ~label:"w1" w1);
  ignore (Telemetry.merge_worker ~label:"w2" w2);
  Alcotest.(check int) "gauge max'd, not summed" 9 (counter_value "obs.peak");
  (* a gauge the parent never registered is adopted as a gauge *)
  let w3 = mk_snapshot ~counters:[ ("obs.other_peak", 3) ] ~gauge_names:[ "obs.other_peak" ] () in
  let w4 = mk_snapshot ~counters:[ ("obs.other_peak", 2) ] ~gauge_names:[ "obs.other_peak" ] () in
  ignore (Telemetry.merge_worker ~label:"w3" w3);
  ignore (Telemetry.merge_worker ~label:"w4" w4);
  Alcotest.(check bool) "adopted as gauge" true (Telemetry.is_gauge "obs.other_peak");
  Alcotest.(check int) "adopted gauge max'd" 3 (counter_value "obs.other_peak");
  (* float gauges *)
  Telemetry.record_float_max "obs.rate" 10.5;
  ignore
    (Telemetry.merge_worker ~label:"w5" (mk_snapshot ~fgauges:[ ("obs.rate", 99.25) ] ()));
  ignore
    (Telemetry.merge_worker ~label:"w6" (mk_snapshot ~fgauges:[ ("obs.rate", 50.0) ] ()));
  Alcotest.(check (list (pair string (float 1e-9)))) "float gauge max'd"
    [ ("obs.rate", 99.25) ]
    (Telemetry.float_gauges ())

(* -- Latency histograms ---------------------------------------------------- *)

let hist_view name =
  match
    List.find_opt
      (fun (hv : Telemetry.hist_view) -> hv.Telemetry.hv_name = name)
      (Telemetry.histograms ())
  with
  | Some hv -> hv
  | None -> Alcotest.fail ("histogram not registered: " ^ name)

let test_hist_buckets () =
  fresh ();
  let h = Telemetry.histogram "obs.hist" in
  List.iter
    (fun ns -> Telemetry.observe_ns h (Int64.of_int ns))
    [ 0; 1; 2; 3; 4; 1023; 1024 ];
  let hv = hist_view "obs.hist" in
  Alcotest.(check int) "count" 7 hv.Telemetry.hv_count;
  Alcotest.(check int) "sum" (0 + 1 + 2 + 3 + 4 + 1023 + 1024) hv.Telemetry.hv_sum_ns;
  Alcotest.(check int) "bucket 0 absorbs 0 and 1 ns" 2 hv.Telemetry.hv_buckets.(0);
  Alcotest.(check int) "bucket 1 = [2,4)" 2 hv.Telemetry.hv_buckets.(1);
  Alcotest.(check int) "bucket 2 = [4,8)" 1 hv.Telemetry.hv_buckets.(2);
  Alcotest.(check int) "bucket 9 = [512,1024)" 1 hv.Telemetry.hv_buckets.(9);
  Alcotest.(check int) "bucket 10 = [1024,2048)" 1 hv.Telemetry.hv_buckets.(10);
  (* negative durations (clock hiccups) clamp into bucket 0 *)
  Telemetry.observe_ns h (-5L);
  Alcotest.(check int) "negative clamps to bucket 0" 3
    (hist_view "obs.hist").Telemetry.hv_buckets.(0);
  (* the switch gates recording completely *)
  Telemetry.set_enabled false;
  Telemetry.observe_ns h 100L;
  Alcotest.(check int) "no observations while off" 8
    (hist_view "obs.hist").Telemetry.hv_count

let test_hist_percentiles () =
  fresh ();
  let h = Telemetry.histogram "obs.pct" in
  let hv0 = hist_view "obs.pct" in
  Alcotest.(check int) "empty histogram p50 = 0" 0 hv0.Telemetry.hv_p50_ns;
  (* 50 fast (bucket 6), 45 medium (bucket 13), 5 slow (bucket 19):
     percentile estimates are the ceiling of the crossing bucket *)
  for _ = 1 to 50 do Telemetry.observe_ns h 100L done;
  for _ = 1 to 45 do Telemetry.observe_ns h 10_000L done;
  for _ = 1 to 5 do Telemetry.observe_ns h 1_000_000L done;
  let hv = hist_view "obs.pct" in
  Alcotest.(check int) "p50 = ceiling of [64,128)" 127 hv.Telemetry.hv_p50_ns;
  Alcotest.(check int) "p90 = ceiling of [8192,16384)" 16383 hv.Telemetry.hv_p90_ns;
  Alcotest.(check int) "p99 = ceiling of [2^19,2^20)" 1048575 hv.Telemetry.hv_p99_ns

let test_hist_merge () =
  fresh ();
  let h = Telemetry.histogram "obs.mh" in
  for _ = 1 to 10 do Telemetry.observe_ns h 100L done;
  (* worker 1: 50 observations in bucket 13; worker 2: 30 in bucket 19,
     shipped in a short (non-64-length) bucket array, which merge must
     tolerate *)
  let w1b = Array.init 64 (fun i -> if i = 13 then 50 else 0) in
  let w2b = Array.init 20 (fun i -> if i = 19 then 30 else 0) in
  ignore
    (Telemetry.merge_worker ~label:"w1"
       (mk_snapshot ~hists:[ ("obs.mh", 50, 500_000, w1b) ] ()));
  ignore
    (Telemetry.merge_worker ~label:"w2"
       (mk_snapshot ~hists:[ ("obs.mh", 30, 30_000_000, w2b) ] ()));
  let hv = hist_view "obs.mh" in
  Alcotest.(check int) "counts summed" 90 hv.Telemetry.hv_count;
  Alcotest.(check int) "sums summed" (1_000 + 500_000 + 30_000_000)
    hv.Telemetry.hv_sum_ns;
  Alcotest.(check int) "bucket 6 kept" 10 hv.Telemetry.hv_buckets.(6);
  Alcotest.(check int) "bucket 13 merged" 50 hv.Telemetry.hv_buckets.(13);
  Alcotest.(check int) "bucket 19 merged" 30 hv.Telemetry.hv_buckets.(19);
  (* percentiles recomputed from the merged buckets, never averaged:
     cumulative 10/60/90 puts p50 in bucket 13 and p90 in bucket 19 *)
  Alcotest.(check int) "merged p50" 16383 hv.Telemetry.hv_p50_ns;
  Alcotest.(check int) "merged p90" 1048575 hv.Telemetry.hv_p90_ns;
  (* the stats JSON carries the fleet view and each worker's own *)
  let path = tmpfile ".json" in
  Telemetry.write_stats_json path;
  let j = Jsonlite.parse_exn (read_file path) in
  Sys.remove path;
  let top =
    Option.bind (Jsonlite.member "histograms" j) (Jsonlite.member "obs.mh")
  in
  Alcotest.(check (option int)) "fleet-merged count in stats JSON" (Some 90)
    (Option.bind top (fun h -> Option.bind (Jsonlite.member "count" h) Jsonlite.to_int));
  (match Option.bind top (fun h -> Option.bind (Jsonlite.member "buckets" h) Jsonlite.to_list) with
  | Some pairs ->
    let pair p =
      match Jsonlite.to_list p with
      | Some [ a; b ] -> (Jsonlite.to_int a, Jsonlite.to_int b)
      | _ -> Alcotest.fail "bucket pair shape"
    in
    Alcotest.(check (list (pair (option int) (option int))))
      "sparse [bucket,count] pairs"
      [ (Some 6, Some 10); (Some 13, Some 50); (Some 19, Some 30) ]
      (List.map pair pairs)
  | None -> Alcotest.fail "no buckets array in stats JSON");
  let workers =
    Option.get (Option.bind (Jsonlite.member "workers" j) Jsonlite.to_list)
  in
  let w1 =
    List.find
      (fun w -> Option.bind (Jsonlite.member "label" w) Jsonlite.to_string = Some "w1")
      workers
  in
  Alcotest.(check (option int)) "per-worker histogram retained" (Some 50)
    (Option.bind (Jsonlite.member "histograms" w1) (fun hs ->
         Option.bind (Jsonlite.member "obs.mh" hs) (fun h ->
             Option.bind (Jsonlite.member "count" h) Jsonlite.to_int)))

let test_hist_trace_counters () =
  fresh ();
  let h = Telemetry.histogram "obs.tc" in
  Telemetry.observe_ns h 5_000L;
  let path = tmpfile ".json" in
  Telemetry.write_chrome_trace path;
  let j = Jsonlite.parse_exn (read_file path) in
  Sys.remove path;
  let events =
    Option.get (Option.bind (Jsonlite.member "traceEvents" j) Jsonlite.to_list)
  in
  match
    List.find_opt
      (fun e ->
        Option.bind (Jsonlite.member "name" e) Jsonlite.to_string
        = Some "hist:obs.tc")
      events
  with
  | None -> Alcotest.fail "no counter event for histogram"
  | Some e ->
    Alcotest.(check (option string)) "counter phase" (Some "C")
      (Option.bind (Jsonlite.member "ph" e) Jsonlite.to_string);
    let args = Option.get (Jsonlite.member "args" e) in
    Alcotest.(check (option int)) "count arg" (Some 1)
      (Option.bind (Jsonlite.member "count" args) Jsonlite.to_int);
    (* 5000 ns lands in [4096,8192): the p50 estimate is the ceiling *)
    Alcotest.(check (option (float 1e-6))) "p50 in microseconds" (Some 8.191)
      (Option.bind (Jsonlite.member "p50_us" args) Jsonlite.to_float)

(* worker span lists keep their own id space; merging must still fold
   same-named spans at the same depth into one aggregate node *)
let test_merge_deep_span_trees () =
  fresh ();
  (* parent records root > mid > leaf once, for real *)
  Telemetry.span "root" (fun () ->
      Telemetry.span "mid" (fun () -> Telemetry.span "leaf" (fun () -> ())));
  (* a worker saw the same tree twice, under clashing span ids *)
  let span ~id ~parent name =
    {
      Telemetry.s_id = id;
      s_parent = parent;
      s_name = name;
      s_args = [];
      s_domain = 0;
      s_start_ns = Int64.of_int (id * 10);
      s_dur_ns = 1000L;
    }
  in
  let wspans =
    [
      span ~id:0 ~parent:(-1) "root";
      span ~id:1 ~parent:0 "mid";
      span ~id:2 ~parent:1 "leaf";
      span ~id:3 ~parent:(-1) "root";
      span ~id:4 ~parent:3 "mid";
      span ~id:5 ~parent:4 "leaf";
    ]
  in
  ignore (Telemetry.merge_worker ~label:"w" (mk_snapshot ~spans:wspans ()));
  let path = tmpfile ".json" in
  Telemetry.write_stats_json path;
  let j = Jsonlite.parse_exn (read_file path) in
  Sys.remove path;
  Alcotest.(check (option string)) "schema v4" (Some "safeflow-telemetry/4")
    (Option.bind (Jsonlite.member "schema" j) Jsonlite.to_string);
  let spans = Option.get (Option.bind (Jsonlite.member "spans" j) Jsonlite.to_list) in
  let find name depth =
    List.find_opt
      (fun s ->
        Option.bind (Jsonlite.member "name" s) Jsonlite.to_string = Some name
        && Option.bind (Jsonlite.member "depth" s) Jsonlite.to_int = Some depth)
      spans
  in
  let count name depth =
    Option.bind (find name depth) (fun s ->
        Option.bind (Jsonlite.member "count" s) Jsonlite.to_int)
  in
  Alcotest.(check (option int)) "root: 1 parent + 2 worker" (Some 3) (count "root" 0);
  Alcotest.(check (option int)) "mid under root" (Some 3) (count "mid" 1);
  Alcotest.(check (option int)) "leaf at depth 2" (Some 3) (count "leaf" 2);
  Alcotest.(check bool) "leaf not misplaced at root" true (find "leaf" 0 = None);
  (* workers section carries the snapshot verbatim *)
  let workers = Option.get (Option.bind (Jsonlite.member "workers" j) Jsonlite.to_list) in
  (match workers with
  | [ w ] ->
    Alcotest.(check (option string)) "worker label" (Some "w")
      (Option.bind (Jsonlite.member "label" w) Jsonlite.to_string);
    Alcotest.(check (option int)) "worker pid" (Some 4242)
      (Option.bind (Jsonlite.member "pid" w) Jsonlite.to_int)
  | _ -> Alcotest.fail "expected exactly one worker view")

let test_trace_multi_pid () =
  fresh ();
  Telemetry.span "parent.work" (fun () -> ());
  let wspan =
    {
      Telemetry.s_id = 0;
      s_parent = -1;
      s_name = "worker.work";
      s_args = [];
      s_domain = 0;
      s_start_ns = 0L;
      s_dur_ns = 500L;
    }
  in
  ignore (Telemetry.merge_worker ~label:"w0" (mk_snapshot ~pid:777 ~spans:[ wspan ] ()));
  let path = tmpfile ".json" in
  Telemetry.write_chrome_trace path;
  let j = Jsonlite.parse_exn (read_file path) in
  Sys.remove path;
  let events = Option.get (Option.bind (Jsonlite.member "traceEvents" j) Jsonlite.to_list) in
  let pids_of ph =
    List.filter_map
      (fun e ->
        if Option.bind (Jsonlite.member "ph" e) Jsonlite.to_string = Some ph then
          Option.bind (Jsonlite.member "pid" e) Jsonlite.to_int
        else None)
      events
    |> List.sort_uniq compare
  in
  Alcotest.(check int) "two distinct span pids" 2 (List.length (pids_of "X"));
  Alcotest.(check bool) "worker pid present" true (List.mem 777 (pids_of "X"));
  Alcotest.(check bool) "process_name metadata for both" true
    (List.length (pids_of "M") = 2)

(* -- Obligation ledger ----------------------------------------------------------- *)

(* The reconciliation contract (DESIGN.md §16): summing the ledger's
   counted entries must reproduce the phase-2 bounds summary exactly —
   per discharge class, per query, per avoided query — on every subject
   system, with and without the value-range analysis.  The bounds
   summary reaches the report through the coverage stats, so the two
   accountings take fully independent paths from phase 2 outward. *)
let ledger_systems =
  [ "ip_controller.c"; "generic_simplex.c"; "double_ip.c"; "figure2.c"; "car_follow.c" ]

(* The absint span accounts for itself cheaply: on synth-384 it has
   three bookkeeping children (the call graph, then each interprocedural
   pass, with the per-function spans nested inside), and they cover at
   least 90 % of its time. *)
let test_absint_span_coverage () =
  fresh ();
  ignore (Driver.analyze ~file:"synth384.c" (Synth.of_size ~seed:1 384));
  let spans = Telemetry.spans () in
  let absint = List.find (fun s -> s.Telemetry.s_name = "absint") spans in
  let children = List.filter (fun s -> s.Telemetry.s_parent = absint.Telemetry.s_id) spans in
  Alcotest.(check (list string)) "children of absint"
    [ "absint.bookkeeping"; "absint.bookkeeping"; "absint.bookkeeping" ]
    (List.map (fun s -> s.Telemetry.s_name) children);
  let covered = List.fold_left (fun acc s -> Int64.add acc s.Telemetry.s_dur_ns) 0L children in
  let share = Int64.to_float covered /. Int64.to_float absint.Telemetry.s_dur_ns in
  if share < 0.9 then Alcotest.failf "children cover %.1f %% of absint" (100. *. share)

let test_ledger_reconcile name () =
  let src = read_file (find_system name) in
  List.iter
    (fun (label, config) ->
      let a = Driver.analyze ~config src in
      let r = Ledger.reconcile a.Driver.ledger in
      let stat k =
        match List.assoc_opt k a.Driver.report.Report.stats with
        | Some v -> v
        | None -> Alcotest.fail ("missing report stat " ^ k)
      in
      let chk what key got = Alcotest.(check int) (label ^ ": " ^ what) (stat key) got in
      chk "obligations" "a1a2_obligations" r.Ledger.r_total;
      chk "by ranges" "a1a2_by_ranges" r.Ledger.r_ranges;
      chk "by omega" "a1a2_by_omega" r.Ledger.r_omega;
      chk "failed" "a1a2_failed" r.Ledger.r_failed;
      chk "queries avoided" "omega_queries_avoided" r.Ledger.r_avoided;
      (* structural sanity: range discharges never queried the solver,
         Omega discharges always did, and the ledger is in sorted order *)
      List.iter
        (fun (e : Ledger.entry) ->
          match e.Ledger.l_discharge with
          | Ledger.Ranges ->
            Alcotest.(check int) (label ^ ": ranges entry queries") 0 e.Ledger.l_queries
          | Ledger.Omega_unsat | Ledger.Omega_hyp ->
            Alcotest.(check bool) (label ^ ": omega entry queried") true
              (e.Ledger.l_queries >= 1)
          | _ -> ())
        a.Driver.ledger;
      Alcotest.(check bool) (label ^ ": ledger sorted") true
        (Ledger.sort a.Driver.ledger = a.Driver.ledger))
    [ ("absint", Config.default);
      ("no-absint", { Config.default with Config.absint = false }) ]

(* -- Events --------------------------------------------------------------------- *)

let test_events_parse () =
  let str name j = Option.bind (Jsonlite.member name j) Jsonlite.to_string in
  let int name j = Option.bind (Jsonlite.member name j) Jsonlite.to_int in
  let lines =
    [
      Events.fleet_start ~systems:64 ~jobs:2 ~shard_domains:2;
      Events.worker_start ~worker:1 ~pid:123 ~members:32;
      Events.member_start ~worker:1 ~path:"m\"quoted\".c";
      Events.member_done ~worker:1 ~path:"m.c" ~errors:1 ~warnings:2 ~findings:3
        ~cache_hits:4 ~cache_misses:5 ~certs:(7, 1, 2) ~elapsed_ms:6.5 ();
      Events.cache_recovered ~worker:1 ~ns:"phase3" ~key:"abc" ~kind:"corrupt";
      Events.heartbeat ~worker:1 ~done_:10 ~total:32;
      Events.worker_done ~worker:1 ~members:32 ~errors:4 ~warnings:8;
      Events.fleet_done ~systems:64 ~elapsed_s:1.5 ~analyses_per_sec:42.7;
    ]
  in
  List.iter
    (fun line ->
      Alcotest.(check bool) "single line" false (String.contains line '\n');
      match Jsonlite.parse line with
      | Error e -> Alcotest.fail (e ^ ": " ^ line)
      | Ok j ->
        Alcotest.(check bool) ("ev field: " ^ line) true (str "ev" j <> None);
        Alcotest.(check bool) "wall clock" true
          (Option.bind (Jsonlite.member "t" j) Jsonlite.to_float <> None))
    lines;
  let first = Jsonlite.parse_exn (List.nth lines 0) in
  Alcotest.(check (option string)) "schema on fleet_start" (Some Events.schema)
    (str "schema" first);
  let md = Jsonlite.parse_exn (List.nth lines 3) in
  Alcotest.(check (option int)) "findings" (Some 3) (int "findings" md);
  Alcotest.(check (option int)) "cache delta" (Some 4) (int "cache_hits" md);
  Alcotest.(check (option int)) "certs pass" (Some 7) (int "certs_pass" md);
  Alcotest.(check (option int)) "certs skipped" (Some 2) (int "certs_skipped" md);
  let rec_ = Jsonlite.parse_exn (List.nth lines 4) in
  Alcotest.(check (option string)) "recovery kind" (Some "corrupt")
    (str "kind" rec_);
  Alcotest.(check (option string)) "recovery ns" (Some "phase3") (str "ns" rec_);
  let quoted = Jsonlite.parse_exn (List.nth lines 2) in
  Alcotest.(check (option string)) "path with quotes survives" (Some "m\"quoted\".c")
    (str "path" quoted)

(* -- Progress -------------------------------------------------------------------- *)

let test_progress () =
  let path = tmpfile ".txt" in
  let oc = open_out path in
  let p = Progress.create ~out:oc ~interval_s:0.0 ~total:4 () in
  Progress.feed p (Events.fleet_start ~systems:4 ~jobs:2 ~shard_domains:1);
  for w = 0 to 1 do
    Progress.feed p (Events.worker_start ~worker:w ~pid:(100 + w) ~members:2)
  done;
  for i = 0 to 3 do
    let w = i mod 2 in
    Progress.feed p (Events.member_start ~worker:w ~path:(Printf.sprintf "m%d.c" i));
    Progress.feed p
      (Events.member_done ~worker:w ~path:(Printf.sprintf "m%d.c" i) ~errors:0
         ~warnings:0 ~findings:0 ~cache_hits:0 ~cache_misses:0 ~elapsed_ms:1.0 ())
  done;
  Progress.feed p "not json at all";  (* must not raise *)
  Progress.finish p;
  close_out oc;
  let out = read_file path in
  Sys.remove path;
  Alcotest.(check int) "all members counted" 4 (Progress.members_done p);
  Alcotest.(check bool) "final state rendered" true
    (Astring.String.is_infix ~affix:"4/4 members" out)

let () =
  let cleanup f () =
    Fun.protect
      ~finally:(fun () ->
        Telemetry.set_enabled false;
        Telemetry.reset ())
      f
  in
  Alcotest.run "observability"
    [ ( "jsonlite",
        [ Alcotest.test_case "basics" `Quick test_jsonlite_basics;
          Alcotest.test_case "errors and escapes" `Quick test_jsonlite_errors;
          Alcotest.test_case "unicode escapes and surrogate pairs" `Quick
            test_jsonlite_unicode;
          Alcotest.test_case "deep nesting" `Quick test_jsonlite_deep_nesting;
          Alcotest.test_case "numeric boundaries" `Quick test_jsonlite_num_boundaries;
          Alcotest.test_case "truncated prefixes" `Quick
            test_jsonlite_truncated_prefixes ] );
      ( "telemetry-merge",
        [ Alcotest.test_case "counters summed" `Quick (cleanup test_merge_counters);
          Alcotest.test_case "empty and version mismatch" `Quick
            (cleanup test_merge_empty_and_mismatch);
          Alcotest.test_case "gauges max'd" `Quick (cleanup test_merge_gauges);
          Alcotest.test_case "deep span trees aggregated" `Quick
            (cleanup test_merge_deep_span_trees);
          Alcotest.test_case "multi-pid chrome trace" `Quick
            (cleanup test_trace_multi_pid) ] );
      ( "histograms",
        [ Alcotest.test_case "log2 bucketing" `Quick (cleanup test_hist_buckets);
          Alcotest.test_case "percentile estimates" `Quick
            (cleanup test_hist_percentiles);
          Alcotest.test_case "fleet merge bucket-wise" `Quick (cleanup test_hist_merge);
          Alcotest.test_case "chrome trace counters" `Quick
            (cleanup test_hist_trace_counters) ] );
      ( "ledger",
        List.map
          (fun name ->
            Alcotest.test_case name `Quick (test_ledger_reconcile name))
          ledger_systems );
      ( "spans",
        [ Alcotest.test_case "absint children cover its time" `Quick
            (cleanup test_absint_span_coverage) ] );
      ( "events",
        [ Alcotest.test_case "constructors parse" `Quick test_events_parse ] );
      ( "progress",
        [ Alcotest.test_case "event stream drives rendering" `Quick test_progress ] ) ]
