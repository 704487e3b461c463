(* SafeFlow paper experiments.

   Usage: main.exe SUBCOMMAND

   Subcommands:
     table1   - regenerate the paper's Table 1 (paper vs measured); exits 1
                when an Annot, Errors, Warnings or FalseP cell differs from
                the paper
     sim      - closed-loop Simplex scenario outcomes (Figure 1 / section 4)

   Timing of the analysis itself lives in bench/e2e. *)

let find path =
  let candidates = [ path; "../" ^ path; "../../" ^ path; "../../../" ^ path ] in
  match List.find_opt Sys.file_exists candidates with
  | Some p -> p
  | None -> failwith ("cannot find " ^ path)

let read_file p =
  let ic = open_in_bin p in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* ==================================================== Table 1 ============ *)

type paper_row = {
  p_name : string;
  p_core_file : string;
  p_noncore_files : string list;
  p_orig_file : string option;
  p_loc_total : string;  (* as printed in the paper *)
  p_loc_core : int;
  p_changes : string;
  p_annot : int;
  p_errors : int;
  p_warnings : int;
  p_fps : int;
}

let paper_rows =
  [ { p_name = "IP"; p_core_file = "ip_controller.c";
      p_noncore_files = [ "noncore/ip_complex.c" ];
      p_orig_file = Some "originals/ip_controller_orig.c";
      p_loc_total = "7079"; p_loc_core = 820; p_changes = "diff 86, 1 func";
      p_annot = 11; p_errors = 1; p_warnings = 7; p_fps = 2 };
    { p_name = "Generic Simplex"; p_core_file = "generic_simplex.c";
      p_noncore_files = [ "noncore/generic_complex.c" ];
      p_orig_file = None;
      p_loc_total = "8057"; p_loc_core = 1020; p_changes = "0";
      p_annot = 22; p_errors = 2; p_warnings = 7; p_fps = 6 };
    { p_name = "Double IP"; p_core_file = "double_ip.c";
      p_noncore_files = [ "noncore/dip_complex.c" ];
      p_orig_file = Some "originals/double_ip_orig.c";
      p_loc_total = ">7188"; p_loc_core = 929; p_changes = "diff 88, 1 func";
      p_annot = 23; p_errors = 2; p_warnings = 8; p_fps = 2 } ]

(* changed-line count between original and split source via LCS *)
let diff_size a b =
  let la = Array.of_list (String.split_on_char '\n' a) in
  let lb = Array.of_list (String.split_on_char '\n' b) in
  let n = Array.length la and m = Array.length lb in
  let dp = Array.make_matrix (n + 1) (m + 1) 0 in
  for i = n - 1 downto 0 do
    for j = m - 1 downto 0 do
      dp.(i).(j) <-
        (if String.equal la.(i) lb.(j) then 1 + dp.(i + 1).(j + 1)
         else max dp.(i + 1).(j) dp.(i).(j + 1))
    done
  done;
  n + m - (2 * dp.(0).(0))

let table1 () =
  Fmt.pr "@.== Table 1: Applying SafeFlow to Control Systems ==@.";
  Fmt.pr "   (paper value / measured value)@.@.";
  Fmt.pr "%-16s %-15s %-13s %-14s %-9s %-8s %-10s %-7s@." "System" "LOC(total)"
    "LOC(core)" "SrcChanges" "Annot" "Errors" "Warnings" "FalseP";
  let reports =
    Safeflow.Fleet.analyze_inputs ~jobs:(Domain.recommended_domain_count ())
      ~render:(fun _ a -> a.Safeflow.Driver.report)
      (List.map (fun row -> find ("systems/" ^ row.p_core_file)) paper_rows)
  in
  let mismatches =
    List.concat
      (List.map2
         (fun row r ->
           let r =
             match r with
             | Ok (r, _, _) -> r
             | Error ((f : Safeflow.Forkmap.failure), _) -> failwith f.Safeflow.Forkmap.message
           in
           let core_loc = List.assoc "loc" r.Safeflow.Report.stats in
           let total_loc =
             List.fold_left
               (fun acc f ->
                 acc + Safeflow.Driver.count_loc (read_file (find ("systems/" ^ f))))
               core_loc row.p_noncore_files
           in
           let changes =
             match row.p_orig_file with
             | None -> "0"
             | Some orig ->
               let d =
                 diff_size
                   (read_file (find ("systems/" ^ orig)))
                   (read_file (find ("systems/" ^ row.p_core_file)))
               in
               Fmt.str "diff %d, 1 func" d
           in
           let annot = r.Safeflow.Report.annotation_lines
           and errors = List.length (Safeflow.Report.errors r)
           and warnings = List.length r.Safeflow.Report.warnings
           and fps = List.length (Safeflow.Report.control_deps r) in
           Fmt.pr "%-16s %-15s %-13s %-14s %-9s %-8s %-10s %-7s@." row.p_name
             (Fmt.str "%s/%d" row.p_loc_total total_loc)
             (Fmt.str "%d/%d" row.p_loc_core core_loc)
             (Fmt.str "%s/%s" row.p_changes changes)
             (Fmt.str "%d/%d" row.p_annot annot)
             (Fmt.str "%d/%d" row.p_errors errors)
             (Fmt.str "%d/%d" row.p_warnings warnings)
             (Fmt.str "%d/%d" row.p_fps fps);
           List.filter_map
             (fun (col, paper, measured) ->
               if paper = measured then None
               else Some (Fmt.str "%s %s: paper %d, measured %d" row.p_name col paper measured))
             [ ("Annot", row.p_annot, annot); ("Errors", row.p_errors, errors);
               ("Warnings", row.p_warnings, warnings); ("FalseP", row.p_fps, fps) ])
         paper_rows (Array.to_list reports))
  in
  Fmt.pr "@.Notes: LOC(total) differs because the authors' lab codebases bundle@.";
  Fmt.pr "years of non-core GUI code we do not have; the analyzed core components@.";
  Fmt.pr "are recreated at the paper's scale.@.";
  match mismatches with
  | [] -> Fmt.pr "The Annot, Errors, Warnings and FalseP columns match the paper.@."
  | ms ->
    List.iter (Fmt.epr "table1 mismatch: %s@.") ms;
    exit 1

(* ==================================================== sim (F1/E1) ======== *)

let sim () =
  Fmt.pr "@.== F1/E1: Simplex architecture closed-loop outcomes ==@.@.";
  let open Simplex in
  let run_table plant_label plant =
    Fmt.pr "--- %s ---@." plant_label;
    Fmt.pr "%-34s %-10s %8s %8s %10s@." "scenario" "outcome" "rejects" "switches" "cost";
    let base = Sim.default_config plant in
    let show name cfg =
      let r = Sim.run cfg in
      let outcome =
        if r.Sim.core_killed then "killed"
        else if r.Sim.crashed then "CRASH"
        else "ok"
      in
      Fmt.pr "%-34s %-10s %8d %8d %10.3f@." name outcome r.Sim.monitor_rejections
        r.Sim.safety_engagements r.Sim.cost
    in
    show "nominal" base;
    show "complex destabilizing" { base with scenario = Sim.Complex_fault Controller.Destabilizing };
    show "complex NaN" { base with scenario = Sim.Complex_fault Controller.Nan_output };
    show "complex stuck 4.5V" { base with scenario = Sim.Complex_fault (Controller.Stuck 4.5) };
    show "rigged feedback (fixed core)" { base with scenario = Sim.Rigged_feedback 300 };
    show "rigged feedback (vulnerable)"
      { base with scenario = Sim.Rigged_feedback 300; variant = Sim.Vulnerable };
    show "kill-pid attack" { base with scenario = Sim.Kill_pid 100 };
    Fmt.pr "@."
  in
  run_table "inverted pendulum" (Plant.inverted_pendulum ());
  run_table "double inverted pendulum" (Plant.double_inverted_pendulum ())

(* ==================================================== driver ============= *)

let () =
  let all = [ ("table1", table1); ("sim", sim) ] in
  match Array.to_list Sys.argv with
  | [ _; which ] when List.mem_assoc which all -> (List.assoc which all) ()
  | _ ->
    Fmt.epr "usage: main.exe (%s)@." (String.concat " | " (List.map fst all));
    exit 2
