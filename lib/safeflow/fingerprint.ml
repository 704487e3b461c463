(** Stable finding identities (see the interface for the invariance
    contract).  The digested payload is pure data built exclusively from
    components that survive propagation order, cache state and unrelated
    source edits:

    - the diagnostic code;
    - the enclosing function name;
    - the source span relative to the function's first line (so moving a
      whole function does not move its findings);
    - a finding-specific discriminator: the region for warnings, the
      normalized message for violations, and for dependencies the
      normalized witness digest.  The witness is digested by its {e
      stable endpoints} (kind and sink description) only: interior steps
      and [p_why] strings depend on propagation visit order, which
      phase 3 does not guarantee (see [test_engine_equiv.ml]), and embed
      absolute source locations — including them would break that
      invariance.  The endpoints coincide with phase 3's deduplication
      key, so they identify the dependency exactly. *)

open Minic

type finding =
  | Violation of Report.violation
  | Warning of Report.warning
  | Dependency of Report.dependency
  | Info of Report.info

let code = function
  | Violation v -> Report.code_of_violation v
  | Warning w -> Report.code_of_warning w
  | Dependency d -> Report.code_of_dependency d
  | Info i -> Report.code_of_info i

let loc = function
  | Violation v -> v.Report.v_loc
  | Warning w -> w.Report.w_loc
  | Dependency d -> d.Report.d_loc
  | Info i -> i.Report.i_loc

let func = function
  | Violation v -> v.Report.v_func
  | Warning w -> w.Report.w_func
  | Dependency d -> d.Report.d_func
  | Info i -> i.Report.i_func

let message = function
  | Violation v -> Fmt.str "restriction %a: %s" Report.pp_restriction v.Report.v_rule v.Report.v_msg
  | Warning w -> Fmt.str "unmonitored non-core read of region '%s'" w.Report.w_region
  | Dependency d ->
    Fmt.str "%a dependency: %s" Report.pp_dep_kind d.Report.d_kind d.Report.d_sink
  | Info i -> i.Report.i_msg

type ctx = (string, int) Hashtbl.t  (* function ↦ first source line *)

let ctx_of_program (prog : Ssair.Ir.program) : ctx =
  let t = Hashtbl.create 32 in
  List.iter
    (fun (f : Ssair.Ir.func) ->
      Hashtbl.replace t f.Ssair.Ir.fname f.Ssair.Ir.floc.Loc.line)
    prog.Ssair.Ir.funcs;
  t

(* span of a finding relative to its enclosing function's first line;
   columns are kept absolute (they do not move under reordering) *)
let norm_span (ctx : ctx) (fn : string) (l : Loc.t) : int * int =
  match Hashtbl.find_opt ctx fn with
  | Some first -> (l.Loc.line - first, l.Loc.col)
  | None -> (l.Loc.line, l.Loc.col)

(* normalized witness digest: the stable endpoints of the value-flow
   path.  The sink description ("assert(safe(x))", "argument 0 of kill")
   and the dependency kind are phase 3's dedup key; interior steps
   are visit-order-dependent and excluded by design. *)
let witness_digest (d : Report.dependency) : string =
  Digest_ir.of_value (Fmt.str "%a" Report.pp_dep_kind d.Report.d_kind, d.Report.d_sink)

let compute (ctx : ctx) (f : finding) : string =
  let fn = func f in
  let span = norm_span ctx fn (loc f) in
  let payload =
    match f with
    | Violation v -> ("violation", v.Report.v_msg)
    | Warning w -> ("warning", w.Report.w_region)
    | Dependency d -> ("dependency", d.Report.d_sink ^ "\x00" ^ witness_digest d)
    | Info i -> ("info", i.Report.i_msg)
  in
  Digest_ir.of_value (code f, fn, span, payload)

let of_report (ctx : ctx) (r : Report.t) : (string * finding) list =
  let all =
    List.map (fun v -> Violation v) r.Report.violations
    @ List.map (fun w -> Warning w) r.Report.warnings
    @ List.map (fun d -> Dependency d) r.Report.dependencies
    @ List.map (fun i -> Info i) r.Report.infos
  in
  List.map (fun f -> (compute ctx f, f)) all

let version = "safeflow-fingerprint/1"
