(** Diagnostics emitted by the SafeFlow analysis.

    Terminology follows the paper's evaluation (§4):
    - a {e warning} is an unmonitored read of a non-core shared-memory
      value by the core component (reported "without any false positives
      or false negatives");
    - an {e error dependency} is critical data that is {b data}-dependent
      on an unmonitored non-core value;
    - a {e control dependency} is critical data that is only
      {b control}-dependent on such a value — the class the paper found to
      account for all its false positives, requiring manual review of the
      value-flow graph. *)

open Minic

type restriction = P1 | P2 | P3 | A1 | A2

let pp_restriction ppf r =
  Fmt.string ppf (match r with P1 -> "P1" | P2 -> "P2" | P3 -> "P3" | A1 -> "A1" | A2 -> "A2")

type violation = {
  v_rule : restriction;
  v_func : string;
  v_loc : Loc.t;
  v_msg : string;
}

type warning = {
  w_func : string;          (** core-component function performing the read *)
  w_region : string;        (** non-core shared-memory region *)
  w_loc : Loc.t;
  w_context : string list;  (** monitor-assumption context (region names assumed core) *)
}

type dep_kind =
  | Data          (** value flows into the critical computation *)
  | Control_only  (** only the control flow depends on the non-core value *)

let pp_dep_kind ppf = function
  | Data -> Fmt.string ppf "data"
  | Control_only -> Fmt.string ppf "control-only"

(** One step of a structured value-flow witness path.  [p_key] is an
    opaque stable identity of the underlying taint entity (empty for
    synthetic narrative steps such as "reachable from critical pointer");
    [p_parent] names the key of the step the taint came from, forming a
    checkable chain: step [i+1]'s parent is step [i]'s key. *)
type path_step = {
  p_desc : string;         (** printed entity, e.g. ["decision:%12"] *)
  p_why : string option;   (** why taint reached this step; [None] at sources *)
  p_key : string;          (** entity identity; [""] for synthetic steps *)
  p_parent : string option;  (** key of the previous step's entity *)
}

let synthetic_step desc = { p_desc = desc; p_why = None; p_key = ""; p_parent = None }

let path_step_string s =
  match s.p_why with Some why -> Fmt.str "%s (%s)" s.p_desc why | None -> s.p_desc

let path_strings steps = List.map path_step_string steps

type dependency = {
  d_kind : dep_kind;
  d_sink : string;   (** description of the critical datum (assert or sink) *)
  d_func : string;
  d_loc : Loc.t;     (** location of the assert / sink call *)
  d_trace : string list;  (** one value-flow path, source first *)
  d_path : path_step list;
      (** the same path, structured: source first, sink last;
          [d_trace = path_strings d_path] whenever both are populated *)
}

(** Informational note: an audit trail entry that never gates.  Emitted
    under [--verbose] for each A1/A2 obligation the range analysis
    discharged without an Omega query ([I-RANGE-PROVED]). *)
type info = {
  i_code : string;
  i_func : string;
  i_loc : Loc.t;
  i_msg : string;
}

type t = {
  violations : violation list;
  warnings : warning list;
  dependencies : dependency list;
  infos : info list;  (** informational notes; empty unless [--verbose] *)
  regions : (string * int * bool) list;  (** name, size, noncore *)
  annotation_lines : int;  (** number of annotation clauses in the program *)
  stats : (string * int) list;  (** misc counters for the benchmark harness *)
}

let errors t = List.filter (fun d -> d.d_kind = Data) t.dependencies
let control_deps t = List.filter (fun d -> d.d_kind = Control_only) t.dependencies

(* -- Diagnostic codes ----------------------------------------------------------- *)

let code_unmonitored_read = "W-UNMONITORED-READ"
let code_critical_dep = "E-CRITICAL-DEP"
let code_control_dep = "C-CONTROL-DEP"
let code_range_proved = "I-RANGE-PROVED"

let code_of_restriction = function
  | P1 -> "V-P1"
  | P2 -> "V-P2"
  | P3 -> "V-P3"
  | A1 -> "V-A1"
  | A2 -> "V-A2"

let code_of_violation v = code_of_restriction v.v_rule
let code_of_warning (_ : warning) = code_unmonitored_read

let code_of_dependency d =
  match d.d_kind with Data -> code_critical_dep | Control_only -> code_control_dep

let code_of_info (i : info) = i.i_code

type rule = {
  rule_id : string;
  rule_name : string;       (** PascalCase identifier (SARIF [name]) *)
  rule_summary : string;    (** one sentence *)
  rule_help : string;       (** what a reviewer should do about it *)
  rule_level : [ `Error | `Warning | `Note ];
}

let rules =
  [
    { rule_id = code_unmonitored_read;
      rule_name = "UnmonitoredNoncoreRead";
      rule_summary =
        "The core component reads a non-core shared-memory value without a \
         monitor assumption covering the read.";
      rule_help =
        "Wrap the read in a monitoring function (assume(core(...))) or verify \
         that the value cannot compromise critical data.";
      rule_level = `Warning };
    { rule_id = code_critical_dep;
      rule_name = "CriticalDataDependency";
      rule_summary =
        "Critical data is data-dependent on an unmonitored non-core value.";
      rule_help =
        "Follow the witness value-flow path and insert monitoring where the \
         non-core value enters the critical computation.";
      rule_level = `Error };
    { rule_id = code_control_dep;
      rule_name = "ControlOnlyDependency";
      rule_summary =
        "Critical data is only control-dependent on an unmonitored non-core \
         value — the class the paper found to contain all its false positives.";
      rule_help =
        "Review the value-flow graph: dependence through configuration-style \
         branch conditions is usually benign, but must be audited.";
      rule_level = `Note };
    { rule_id = code_of_restriction P1;
      rule_name = "SharedMemoryBounds";
      rule_summary = "A shared-memory access may fall outside its region (restriction P1).";
      rule_help = "Bound the index so the access stays within the declared region size.";
      rule_level = `Error };
    { rule_id = code_of_restriction P2;
      rule_name = "SharedMemoryPointerEscape";
      rule_summary =
        "A shared-memory pointer is stored to memory or aliased in a way that \
         defeats phase-1 tracking (restriction P2).";
      rule_help = "Keep shm pointers in locals, parameters and return values only.";
      rule_level = `Error };
    { rule_id = code_of_restriction P3;
      rule_name = "SharedMemoryWrite";
      rule_summary = "The core component writes a non-core region (restriction P3).";
      rule_help = "Core components must not write regions owned by non-core components.";
      rule_level = `Error };
    { rule_id = code_of_restriction A1;
      rule_name = "MonitorAssumptionBounds";
      rule_summary =
        "A monitor assumption names a byte range outside its region (restriction A1).";
      rule_help = "Fix the assume(core(...)) offset/size so it stays within the region.";
      rule_level = `Error };
    { rule_id = code_of_restriction A2;
      rule_name = "MonitorAssumptionUnresolved";
      rule_summary =
        "A monitor assumption names a pointer that phase 1 cannot resolve to a \
         region (restriction A2).";
      rule_help = "Annotate a pointer whose region is statically known.";
      rule_level = `Error };
    { rule_id = code_range_proved;
      rule_name = "RangeProvedBounds";
      rule_summary =
        "The value-range analysis proved an A1/A2 array-index obligation in \
         bounds without consulting the Omega solver.";
      rule_help =
        "Nothing to fix — an audit-trail note (emitted under --verbose) \
         recording a statically discharged bounds obligation.";
      rule_level = `Note };
  ]

let rule_of_code id =
  match List.find_opt (fun r -> String.equal r.rule_id id) rules with
  | Some r -> r
  | None ->
    { rule_id = id; rule_name = id; rule_summary = id; rule_help = "";
      rule_level = `Warning }

(* -- Canonical finding order ----------------------------------------------------- *)

(* (file, line, col) first so reports read in source order, then the
   diagnostic code and remaining fields for a total order.  Emission
   sites (phase 2/3) and the driver both sort with these, so output is
   byte-identically ordered whatever the visit order. *)

let compare_loc (a : Loc.t) (b : Loc.t) =
  let c = compare a.Loc.file b.Loc.file in
  if c <> 0 then c
  else
    let c = compare a.Loc.line b.Loc.line in
    if c <> 0 then c else compare a.Loc.col b.Loc.col

let compare_violation (a : violation) (b : violation) =
  let c = compare_loc a.v_loc b.v_loc in
  if c <> 0 then c
  else compare (code_of_violation a, a.v_func, a.v_msg) (code_of_violation b, b.v_func, b.v_msg)

let compare_warning (a : warning) (b : warning) =
  let c = compare_loc a.w_loc b.w_loc in
  if c <> 0 then c else compare (a.w_region, a.w_func) (b.w_region, b.w_func)

let compare_dependency (a : dependency) (b : dependency) =
  let c = compare_loc a.d_loc b.d_loc in
  if c <> 0 then c
  else
    compare
      (code_of_dependency a, a.d_sink, a.d_func)
      (code_of_dependency b, b.d_sink, b.d_func)

let compare_info (a : info) (b : info) =
  let c = compare_loc a.i_loc b.i_loc in
  if c <> 0 then c else compare (a.i_code, a.i_func, a.i_msg) (b.i_code, b.i_func, b.i_msg)

let pp_violation ppf v =
  Fmt.pf ppf "[%s] restriction %a violated in %s at %a: %s" (code_of_violation v)
    pp_restriction v.v_rule v.v_func Loc.pp v.v_loc v.v_msg

let pp_warning ppf w =
  Fmt.pf ppf "[%s] warning: unmonitored non-core read of region '%s' in %s at %a"
    (code_of_warning w) w.w_region w.w_func Loc.pp w.w_loc

let pp_info ppf (i : info) =
  Fmt.pf ppf "[%s] note: %s in %s at %a" i.i_code i.i_msg i.i_func Loc.pp i.i_loc

let pp_dependency ppf d =
  Fmt.pf ppf "[%s] %a dependency: %s in %s at %a@,  flow: %a" (code_of_dependency d)
    pp_dep_kind d.d_kind d.d_sink d.d_func Loc.pp d.d_loc
    Fmt.(list ~sep:(any " ->@ ") string)
    d.d_trace

let pp ppf t =
  Fmt.pf ppf "@[<v>== SafeFlow report ==@,";
  Fmt.pf ppf "shared-memory regions:@,";
  List.iter
    (fun (n, sz, nc) ->
      Fmt.pf ppf "  %s: %d bytes%s@," n sz (if nc then " [noncore]" else " [core]"))
    t.regions;
  if t.violations <> [] then begin
    Fmt.pf ppf "restriction violations (%d):@," (List.length t.violations);
    List.iter (fun v -> Fmt.pf ppf "  %a@," pp_violation v) t.violations
  end;
  Fmt.pf ppf "warnings (%d):@," (List.length t.warnings);
  List.iter (fun w -> Fmt.pf ppf "  %a@," pp_warning w) t.warnings;
  let errs = errors t and ctrl = control_deps t in
  Fmt.pf ppf "error dependencies (%d):@," (List.length errs);
  List.iter (fun d -> Fmt.pf ppf "  @[<v>%a@]@," pp_dependency d) errs;
  Fmt.pf ppf "control-only dependencies — candidate false positives (%d):@,"
    (List.length ctrl);
  List.iter (fun d -> Fmt.pf ppf "  @[<v>%a@]@," pp_dependency d) ctrl;
  (* informational notes exist only under --verbose; printing nothing
     when empty keeps default reports byte-identical *)
  if t.infos <> [] then begin
    Fmt.pf ppf "informational (%d):@," (List.length t.infos);
    List.iter (fun i -> Fmt.pf ppf "  %a@," pp_info i) t.infos
  end;
  Fmt.pf ppf "@]"

let to_string t = Fmt.str "%a" pp t

(* -- Witness rendering (the [explain] subcommand) ------------------------------ *)

let pp_witness ppf (d : dependency) =
  Fmt.pf ppf "@[<v>%a dependency: %s@,  in %s at %a@," pp_dep_kind d.d_kind d.d_sink
    d.d_func Loc.pp d.d_loc;
  (match d.d_path with
  | [] -> Fmt.pf ppf "  (no witness path recorded)@,"
  | steps ->
    Fmt.pf ppf "  witness (%d steps, source first):@," (List.length steps);
    List.iteri
      (fun i (s : path_step) ->
        let tag = if i = 0 then "source" else if i = List.length steps - 1 then "sink" else "" in
        Fmt.pf ppf "    %2d. %-34s %s%s@," (i + 1) s.p_desc
          (match s.p_why with Some why -> "<- " ^ why | None -> "")
          (if tag = "" then "" else "  [" ^ tag ^ "]"))
      steps);
  Fmt.pf ppf "@]"

(** Everything a reviewer needs to audit the analysis verdicts: each
    warning with its read site and active monitoring context, then each
    dependency with its full step-by-step witness path. *)
let pp_explain ppf t =
  Fmt.pf ppf "@[<v>== SafeFlow explain ==@,";
  Fmt.pf ppf "unmonitored non-core read sites (%d):@," (List.length t.warnings);
  List.iter
    (fun w ->
      Fmt.pf ppf "  read of region '%s' in %s at %a%s@," w.w_region w.w_func Loc.pp
        w.w_loc
        (match w.w_context with
        | [] -> ""
        | ctx -> Fmt.str "  (context: %s)" (String.concat ", " ctx)))
    t.warnings;
  let errs = errors t and ctrl = control_deps t in
  Fmt.pf ppf "error dependencies (%d):@," (List.length errs);
  List.iter (fun d -> Fmt.pf ppf "  @[<v>%a@]@," pp_witness d) errs;
  Fmt.pf ppf "control-only dependencies (%d):@," (List.length ctrl);
  List.iter (fun d -> Fmt.pf ppf "  @[<v>%a@]@," pp_witness d) ctrl;
  Fmt.pf ppf "@]"
