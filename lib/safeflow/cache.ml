(** Content-addressed analysis cache (see the interface). *)

(* Version 2: Report.dependency gained the structured [d_path] witness
   field, changing the marshalled layout of the "phase3" namespace.
   Version 3: the "phase2"/"phase2fn" namespaces store a result record
   (violations + range-discharge infos + bounds statistics) instead of a
   bare violation list, and the new "absint" namespace holds per-function
   range summaries.
   Version 4: the "pair" namespace stores the flattened edge-block
   layout (packed int entity descriptors and op words plus local value
   tables) instead of the symbolic op-variant arrays.
   Version 5: every entry header records the origin system that wrote it
   (fleet-mode cross-system dedupe accounting), and on-disk entries live
   under a generation-stamped subdirectory so concurrent processes built
   against different cache formats or compiler versions never fight over
   the same files.
   Version 6: the "phase2"/"phase2fn" results carry the obligation
   ledger (one audit entry per A1/A2 obligation and P1-P3 site), so a
   warm run reconciles discharge counts exactly like a cold one.
   Version 7: entry headers record a content digest of the marshalled
   payload, written and verified separately from the header — a payload
   swapped or damaged after the header was written is detected as
   corrupt instead of unmarshalling into the wrong value; and the
   "absint" func_summary layout gained the raw (pre-promotion) return
   join that certificate emission records.
   Version 8: the per-function "phase2fn" and "pair" namespaces are gone
   (a hit on either cost more than recomputing), "absint" keys are
   structural digests of the location-free function instead of its
   printed text, "pointsto" entries no longer embed the program (the
   "prepared" entry holds it), and payloads are marshalled without
   sharing.
   Version 9: the "phase3" entry is the phase-3 result itself — report
   lists, counters and the flat taint state (packed entity keys over
   interned names and contexts, data/control bitsets, parent and reason
   ids) — instead of a record of boxed-entity association lists, and its
   key no longer carries an engine tag.
   Version 10: an entry is a 32-byte hex digest of everything after it,
   then the header, then the payload, each marshalled straight to and
   from the file (no whole-payload string); "absint" holds one pack per
   program (inputs digest ↦ summary) instead of one entry per function,
   and the new "latest" namespace maps an origin to its last pack's
   key.
   Version 11: the IR a "prepared" entry holds is built in SSA form
   directly while lowering, so its phi ids and phi operand order differ
   from version 10's. *)
let format_version = 11

let magic = "SAFEFLOW-CACHE"

(* The generation stamp names everything that decides whether two
   processes can share marshalled entries at all: the cache format and
   the compiler that produced the [Marshal] encoding.  Processes with
   different stamps write to disjoint subdirectories, so a version skew
   across a fleet degrades to double-compute instead of stale-entry
   churn (two generations repeatedly deleting each other's files). *)
let generation = Printf.sprintf "v%d-ocaml%s" format_version Sys.ocaml_version

let generation_dir_name =
  "gen-" ^ String.sub (Digest.to_hex (Digest.string generation)) 0 12

type ns_stats = { hits : int; misses : int; stale : int; corrupt : int; cross : int }

type counters = {
  c_hits : int ref;
  c_misses : int ref;
  c_stale : int ref;
  c_corrupt : int ref;
  c_cross : int ref;
}

type entry = {
  e_v : Obj.t;
  e_origin : string;  (** system that first computed it; "" when unknown *)
}

type t = {
  dir : string option;  (** generation subdirectory, entries live here *)
  verbose : bool;  (** one-line stderr note per discarded disk entry *)
  tbl : (string, entry) Hashtbl.t;
      (** "ns:key" ↦ entry, for what the disk tier does not hold: every
          entry of a memory-only cache, and values whose disk write
          failed *)
  counters : (string, counters) Hashtbl.t;  (** per-namespace outcomes *)
  lock : Mutex.t;
  on_recovery : (kind:string -> ns:string -> key:string -> unit) option;
      (** observer for stale/corrupt disk discards (fleet event stream) *)
}

(* Telemetry counter inventory.  The namespaces are known statically, so
   registering them here makes every "cache.<ns>.<outcome>" key present
   (as 0) in any stats snapshot — the CI schema check relies on that.
   Unknown namespaces still register lazily inside [count]. *)
let tele_counter ns outcome = Telemetry.counter (Printf.sprintf "cache.%s.%s" ns outcome)

let outcomes = [ "hits"; "misses"; "stale"; "corrupt" ]

let c_cross_hits = Telemetry.counter "cache.cross_hits"

let () =
  List.iter
    (fun ns -> List.iter (fun o -> ignore (tele_counter ns o)) outcomes)
    [ "prepared"; "phase1"; "phase2"; "pointsto"; "phase3"; "absint"; "latest" ]

(* -- origin tracking ------------------------------------------------------------

   The current origin is the identity of the system whose analysis is
   running on this domain ("" = unknown).  A hit on an entry recorded
   under a different origin is a cross-system hit: work another system's
   analysis already paid for.  Origins are domain-local so the
   multi-system driver can analyze several systems concurrently over one
   shared cache and still attribute hits correctly. *)

let origin_dls : string Domain.DLS.key = Domain.DLS.new_key (fun () -> "")

let current_origin () = Domain.DLS.get origin_dls

let with_origin origin f =
  let prev = Domain.DLS.get origin_dls in
  Domain.DLS.set origin_dls origin;
  Fun.protect ~finally:(fun () -> Domain.DLS.set origin_dls prev) f

(* [mkdir] that tolerates losing a race: two fleet workers creating the
   same missing directory both succeed as long as it ends up a
   directory, whoever made it. *)
let ensure_dir d =
  try Sys.mkdir d 0o755
  with Sys_error _ when Sys.file_exists d && Sys.is_directory d -> ()

let create ?dir ?(verbose = false) ?on_recovery () =
  let dir =
    match dir with
    | None -> None
    | Some d ->
      (try
         ensure_dir d;
         (* entries live under the generation subdirectory; a sibling
            generation left by another build is simply ignored *)
         let gdir = Filename.concat d generation_dir_name in
         ensure_dir gdir;
         (* human-readable stamp; best-effort and write-once *)
         let stamp = Filename.concat gdir "GENERATION" in
         if not (Sys.file_exists stamp) then begin
           let tmp =
             Printf.sprintf "%s.%d.tmp" stamp (Unix.getpid ())
           in
           let oc = open_out tmp in
           output_string oc (generation ^ "\n");
           close_out oc;
           (try Sys.rename tmp stamp
            with Sys_error _ -> (try Sys.remove tmp with Sys_error _ -> ()))
         end;
         Some gdir
       with Sys_error _ | Unix.Unix_error _ -> None)
  in
  {
    dir;
    verbose;
    tbl = Hashtbl.create 256;
    counters = Hashtbl.create 8;
    lock = Mutex.create ();
    on_recovery;
  }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* Disk-read outcomes.  [Stale] is a well-formed entry from another cache
   format or compiler version; [Corrupt] is a file that failed to
   unmarshal at all (truncated write, bit rot).  Both are recovered from
   identically — drop and recompute — but are counted separately. *)
type 'a outcome = Hit of 'a | Absent | Stale | Corrupt

let count t ns ~cross (o : _ outcome) =
  let c =
    match Hashtbl.find_opt t.counters ns with
    | Some c -> c
    | None ->
      let c =
        { c_hits = ref 0; c_misses = ref 0; c_stale = ref 0; c_corrupt = ref 0;
          c_cross = ref 0 }
      in
      Hashtbl.replace t.counters ns c;
      c
  in
  (* [misses] keeps its historical meaning of "every lookup that was not
     a hit", so the (hits, misses) view is unchanged by the split *)
  (match o with
  | Hit _ ->
    incr c.c_hits;
    if cross then incr c.c_cross
  | Absent -> incr c.c_misses
  | Stale ->
    incr c.c_misses;
    incr c.c_stale
  | Corrupt ->
    incr c.c_misses;
    incr c.c_corrupt);
  if Telemetry.enabled () then begin
    (match o with
    | Hit _ ->
      Telemetry.incr (tele_counter ns "hits");
      if cross then Telemetry.incr c_cross_hits
    | Absent | Stale | Corrupt -> Telemetry.incr (tele_counter ns "misses"));
    match o with
    | Stale -> Telemetry.incr (tele_counter ns "stale")
    | Corrupt -> Telemetry.incr (tele_counter ns "corrupt")
    | Hit _ | Absent -> ()
  end

(* Keys are hex digests and namespaces are short alphanumeric tags, so
   "ns-key.bin" is a safe file name on every platform. *)
let path_of dir ns key = Filename.concat dir (ns ^ "-" ^ key ^ ".bin")

type header = {
  h_magic : string;
  h_version : int;
  h_ocaml : string;
  h_ns : string;
  h_key : string;
  h_origin : string;
}

(* An entry file is [digest][header][payload]: [digest] is the MD5 (32
   hex characters) of every byte after it, and header and payload are
   marshalled straight to and from the file.  The reader digests the
   file before [Marshal] sees any of it, so a truncated, flipped or
   swapped entry, or a damaged digest, reads as corrupt instead of
   decoding into the wrong value. *)
let digest_len = 32

let h_disk_read = Telemetry.histogram "cache.disk_read"

let read_disk t ns key : entry outcome =
  match t.dir with
  | None -> Absent
  | Some dir -> (
    let path = path_of dir ns key in
    match open_in_bin path with
    | exception Sys_error _ -> Absent
    | ic ->
      let result =
        Telemetry.time_hist h_disk_read @@ fun () ->
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () ->
            try
              let expected = really_input_string ic digest_len in
              if not (String.equal (Digest.to_hex (Digest.channel ic (-1))) expected) then
                Corrupt
              else begin
                seek_in ic digest_len;
                let (h : header) = Marshal.from_channel ic in
                if
                  not
                    (String.equal h.h_magic magic
                    && h.h_version = format_version
                    && String.equal h.h_ocaml Sys.ocaml_version
                    && String.equal h.h_ns ns && String.equal h.h_key key)
                then Stale
                else Hit { e_v = Marshal.from_channel ic; e_origin = h.h_origin }
              end
            with _ -> Corrupt)
      in
      (match result with
      | Hit _ | Absent -> ()
      | Stale | Corrupt ->
        (* drop the file so it is rewritten on the next store; unlink is
           atomic, so a concurrent reader either sees the whole entry or
           none of it *)
        let kind = if result = Stale then "stale" else "corrupt" in
        if t.verbose then
          Printf.eprintf "%ssafeflow: cache: discarding %s entry %s\n%!"
            (Logctx.get ()) kind (Filename.basename path);
        (match t.on_recovery with
        | Some f -> ( try f ~kind ~ns ~key with _ -> ())
        | None -> ());
        (try Sys.remove path with Sys_error _ -> ()));
      result)

(* Writers never touch the destination path directly: each write goes to
   a temp name unique across processes AND within this process (pid +
   atomic counter — two domains, or two forked workers of a fleet run,
   storing the same key concurrently must not interleave into one temp
   file), then rename(2) publishes it atomically.  Readers therefore
   observe either no file or a complete entry, never a torn one.

   The temp file is published only after a checked flush and close: a
   write error (a full disk, a file-size limit) raises, the temp file is
   removed, and the caller keeps the value in memory instead.  The digest
   is taken by reading back what was written, through an input channel
   on the same descriptor, and patched into the placeholder at the head
   of the file.  Only the output channel is closed; the input channel is
   left to the GC, which frees its buffer without touching the
   descriptor. *)
let tmp_seq = Atomic.make 0

let write_file path (e : entry) h =
  let fd = Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o644 in
  let oc = Unix.out_channel_of_descr fd in
  try
    output_string oc (String.make digest_len '0');
    Marshal.to_channel oc h [];
    (* every cached type is acyclic pure data (IR, fact tables, sets,
       report records), so marshalling without sharing terminates, and
       it skips the sharing-detection table that dominated store time *)
    Marshal.to_channel oc e.e_v [ Marshal.No_sharing ];
    flush oc;
    let ic = Unix.in_channel_of_descr fd in
    seek_in ic digest_len;
    let digest = Digest.to_hex (Digest.channel ic (-1)) in
    seek_out oc 0;
    output_string oc digest;
    close_out oc
  with ex ->
    close_out_noerr oc;
    raise ex

(* [true] when the entry is on disk afterwards — published now, or
   already there (same key ⇒ same value, so it is not rewritten unless
   [replace]) *)
let write_disk t ns key ~replace (e : entry) =
  match t.dir with
  | None -> false
  | Some dir ->
    let path = path_of dir ns key in
    if (not replace) && Sys.file_exists path then true
    else begin
      let tmp =
        Printf.sprintf "%s.%d.%d.tmp" path (Unix.getpid ())
          (Atomic.fetch_and_add tmp_seq 1)
      in
      try
        write_file tmp e
          { h_magic = magic; h_version = format_version; h_ocaml = Sys.ocaml_version;
            h_ns = ns; h_key = key; h_origin = e.e_origin };
        Sys.rename tmp path;
        true
      with _ ->
        (try Sys.remove tmp with Sys_error _ -> ());
        false
    end

let find t ~ns ~key : 'a option =
  Telemetry.span "cache.find" ~args:[ ("ns", ns) ] (fun () ->
      let origin = current_origin () in
      locked t (fun () ->
          let is_cross e_origin =
            (not (String.equal origin ""))
            && (not (String.equal e_origin ""))
            && not (String.equal e_origin origin)
          in
          let o =
            match Hashtbl.find_opt t.tbl (ns ^ ":" ^ key) with
            | Some e -> Hit e
            | None -> read_disk t ns key
          in
          count t ns
            ~cross:(match o with Hit e -> is_cross e.e_origin | _ -> false)
            (match o with Hit _ -> Hit () | Absent -> Absent | Stale -> Stale | Corrupt -> Corrupt);
          (* a disk hit is not copied into memory: the file stays the
             one copy *)
          match o with
          | Hit e -> Some (Obj.obj e.e_v)
          | Absent | Stale | Corrupt -> None))

let store ?(replace = false) t ~ns ~key v =
  Telemetry.span "cache.store" ~args:[ ("ns", ns) ] (fun () ->
      let e = { e_v = Obj.repr v; e_origin = current_origin () } in
      let k = ns ^ ":" ^ key in
      locked t (fun () ->
          if write_disk t ns key ~replace e then Hashtbl.remove t.tbl k
          else Hashtbl.replace t.tbl k e))

let stats t =
  locked t (fun () ->
      List.sort compare
        (Hashtbl.fold
           (fun ns c acc -> (ns, (!(c.c_hits), !(c.c_misses))) :: acc)
           t.counters []))

let detailed_stats t =
  locked t (fun () ->
      List.sort compare
        (Hashtbl.fold
           (fun ns c acc ->
             ( ns,
               {
                 hits = !(c.c_hits);
                 misses = !(c.c_misses);
                 stale = !(c.c_stale);
                 corrupt = !(c.c_corrupt);
                 cross = !(c.c_cross);
               } )
             :: acc)
           t.counters []))

let cross_hits t =
  locked t (fun () ->
      Hashtbl.fold (fun _ c acc -> acc + !(c.c_cross)) t.counters 0)

let reset_stats t = locked t (fun () -> Hashtbl.reset t.counters)
