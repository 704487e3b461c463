(** Forked worker processes (see the interface). *)

(* What an item costs its worker, in eighths: the first item of a group
   8, each further one 1.  Equal items after the first are cache hits in
   a fleet: 52 copies of one member take 3.2 ms longer than one copy,
   52 distinct members 25.7 ms longer (fleet --jobs 1 on a cold cache,
   2-core VM), an eighth. *)
let first_cost = 8

let stripes ?key ~workers n =
  let workers = max 1 workers in
  let worker =
    match key with
    | None -> Array.init n (fun i -> i mod workers)
    | Some key ->
      (* groups numbered in first-appearance order, then dealt largest
         first (a stable sort: ties keep that order), each to the least
         loaded worker (ties: the lowest index) *)
      let ids = Hashtbl.create 64 in
      let group =
        Array.init n (fun i ->
            let k = key i in
            match Hashtbl.find_opt ids k with
            | Some g -> g
            | None ->
              let g = Hashtbl.length ids in
              Hashtbl.replace ids k g;
              g)
      in
      let size = Array.make (Hashtbl.length ids) 0 in
      Array.iter (fun g -> size.(g) <- size.(g) + 1) group;
      let load = Array.make workers 0 and dealt = Array.make (Array.length size) 0 in
      List.init (Array.length size) Fun.id
      |> List.stable_sort (fun a b -> Int.compare size.(b) size.(a))
      |> List.iter (fun g ->
             let w = ref 0 in
             Array.iteri (fun j l -> if l < load.(!w) then w := j) load;
             dealt.(g) <- !w;
             load.(!w) <- load.(!w) + first_cost + size.(g) - 1);
      Array.map (fun g -> dealt.(g)) group
  in
  Array.init workers (fun j ->
      Array.of_list (List.filter (fun i -> worker.(i) = j) (List.init n Fun.id)))

let mkdtemp prefix =
  let base = Filename.get_temp_dir_name () in
  let rec go k =
    let d = Filename.concat base (Printf.sprintf "%s-%d-%d" prefix (Unix.getpid ()) k) in
    if Sys.file_exists d then go (k + 1)
    else begin
      try
        Sys.mkdir d 0o700;
        d
      with Sys_error _ -> go (k + 1)
    end
  in
  go 0

type cause = Rejected | Unwritable | Crashed

let exit_code = function Rejected -> 3 | Unwritable -> 4 | Crashed -> 5

type failure = { input : string; cause : cause; message : string }

(* what a worker marshals back: its per-item results and, when telemetry
   is on, its snapshot; or why it could not finish its stripe *)
type 'b payload =
  (('b, failure) result array * Telemetry.snapshot option, string) Stdlib.result

let signal_name s =
  Sys.[ (sigkill, "KILL"); (sigsegv, "SEGV"); (sigabrt, "ABRT"); (sigterm, "TERM") ]
  |> List.assoc_opt s |> Option.value ~default:(string_of_int s)

let map ?on_event ~stripes ~name f =
  let jobs = Array.length stripes in
  let tmpdir = mkdtemp "safeflow-workers" in
  let result_file j = Filename.concat tmpdir (Printf.sprintf "worker-%d.bin" j) in
  flush stdout;
  flush stderr;
  let pipe = Option.map (fun _ -> Unix.pipe ()) on_event in
  let fork_worker j =
    match Unix.fork () with
    | 0 ->
      (* fresh telemetry on the parent's timeline; a vanished event
         reader must not kill the worker *)
      Telemetry.begin_worker ();
      let emit =
        Option.map
          (fun (rfd, wfd) ->
            Unix.close rfd;
            (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
            Events.write_line wfd)
          pipe
      in
      let write (p : _ payload) =
        let oc = open_out_bin (result_file j) in
        Marshal.to_channel oc p [];
        close_out oc
      in
      let status =
        try
          let results = f ~worker:j ~emit stripes.(j) in
          let snap = if Telemetry.enabled () then Some (Telemetry.snapshot ()) else None in
          write (Ok (results, snap));
          0
        with e ->
          (try write (Error (Printexc.to_string e)) with _ -> ());
          1
      in
      (* _exit: no at_exit handlers, no double-flushed buffers; also
         drops this worker's write end of the event pipe *)
      Unix._exit status
    | pid -> pid
  in
  let pids = List.init jobs fork_worker in
  (match (pipe, on_event) with
  | Some (rfd, wfd), Some sink ->
    Unix.close wfd;
    let ic = Unix.in_channel_of_descr rfd in
    (try
       while true do
         sink (input_line ic)
       done
     with End_of_file | Sys_error _ -> ());
    close_in_noerr ic
  | _ -> ());
  (* reap every worker before reading any result: no zombies *)
  let statuses = List.map (fun pid -> snd (Unix.waitpid [] pid)) pids in
  (* a worker that did not finish its stripe turns each of its items
     into a failure record *)
  let read j status =
    let lost reason =
      ( Array.map
          (fun i ->
            let input = name i in
            Error
              { input; cause = Crashed;
                message = Printf.sprintf "%s: worker %d %s" input j reason })
          stripes.(j),
        None )
    in
    match status with
    | Unix.WEXITED c when c <> 0 && c <> 1 -> lost (Printf.sprintf "exited with code %d" c)
    | Unix.WSIGNALED s -> lost ("killed by signal " ^ signal_name s)
    | Unix.WSTOPPED s -> lost ("stopped by signal " ^ signal_name s)
    | Unix.WEXITED _ -> (
      match
        let ic = open_in_bin (result_file j) in
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> (Marshal.from_channel ic : _ payload))
      with
      | Ok r -> r
      | Error msg -> lost ("failed: " ^ msg)
      | exception (Sys_error _ | End_of_file | Failure _) ->
        lost "left no readable result file")
  in
  let shards =
    Fun.protect
      ~finally:(fun () ->
        try
          Array.iter
            (fun f -> try Sys.remove (Filename.concat tmpdir f) with Sys_error _ -> ())
            (Sys.readdir tmpdir);
          Sys.rmdir tmpdir
        with Sys_error _ -> ())
      (fun () -> List.mapi read statuses)
  in
  List.iteri
    (fun j (_, snap) ->
      Option.iter
        (fun s ->
          if not (Telemetry.merge_worker ~label:(Printf.sprintf "worker %d" j) s) then
            Printf.eprintf
              "safeflow: dropping worker %d telemetry (snapshot version mismatch)\n%!" j)
        snap)
    shards;
  let n = Array.fold_left (fun acc s -> acc + Array.length s) 0 stripes in
  let by_item = Array.make n None in
  List.iteri
    (fun j (results, _) -> Array.iteri (fun k i -> by_item.(i) <- Some results.(k)) stripes.(j))
    shards;
  Array.map Option.get by_item
