(** Dynamic taint tracking on the IR interpreter.

    Shadow state follows one concrete execution: every byte of memory and
    every SSA value carries a taint bit that is set when the value derives
    from an unmonitored read of a non-core shared-memory region and
    propagated through arithmetic, memory and calls.  Monitoring contexts
    are honored dynamically: inside a function annotated
    [assume(core(p, off, size))] (and its callees), reads of the covered
    byte range are clean — mirroring the static semantics on the executed
    path.

    Purpose: differential validation of the static analysis.  On any
    execution, dynamically observed taint must be a subset of what phase 3
    reports statically — every dynamic source site must be a static
    warning site and every dynamic critical-data violation must be a
    static error dependency.  The property tests in
    [test/test_dyntaint.ml] check exactly this. *)

open Minic
module I = Ssair.Interp

type finding = {
  df_sink : string;   (** e.g. "assert(safe(output))" or "argument 0 of kill" *)
  df_func : string;
  df_loc : Loc.t;
}

type result = {
  violations : finding list;          (** tainted critical data observed *)
  read_sites : (Loc.t * string) list; (** dynamic unmonitored non-core reads *)
  ret : I.rtval;                      (** the program's result *)
}

type tracker = {
  prog : Ssair.Ir.program;
  shm : Shm.t;
  config : Config.t;
  vtaint : (int * Ssair.Ir.vid, unit) Hashtbl.t;   (* (frame id, value id) *)
  ptaint : (int * string, unit) Hashtbl.t;         (* (frame id, param) *)
  shadow : (int, Bytes.t) Hashtbl.t;               (* block id -> byte taints *)
  mutable assumptions : (int * (string * int * int) list) list;
      (* stack of (frame id, [(region, lo, hi)]) *)
  mutable exempt_depth : int;   (* >0 while inside an initializing function *)
  mutable pending_args : bool list list;  (* arg taints for in-flight calls *)
  mutable last_ret_taint : bool;
  mutable violations : (string * string * Loc.t) list;
  read_sites : (Loc.t * string, unit) Hashtbl.t;
}

let shadow_of t blk len =
  match Hashtbl.find_opt t.shadow blk with
  | Some b -> b
  | None ->
    let b = Bytes.make len '\000' in
    Hashtbl.replace t.shadow blk b;
    b

let shadow_any t (p : I.ptr) w =
  match Hashtbl.find_opt t.shadow p.I.pblk with
  | None -> false
  | Some b ->
    let rec go i = i < w && (Bytes.get b (p.I.poff + i) <> '\000' || go (i + 1)) in
    (try go 0 with Invalid_argument _ -> false)

let shadow_set t (p : I.ptr) w v (st : I.state) =
  let len =
    match Hashtbl.find_opt st.I.mem p.I.pblk with
    | Some blk -> Bytes.length blk.I.data
    | None -> p.I.poff + w
  in
  let b = shadow_of t p.I.pblk len in
  for i = 0 to w - 1 do
    if p.I.poff + i < Bytes.length b then
      Bytes.set b (p.I.poff + i) (if v then '\001' else '\000')
  done

let shadow_copy t ~(src : I.ptr) ~(dst : I.ptr) w (st : I.state) =
  for i = 0 to w - 1 do
    let bit = shadow_any t { src with I.poff = src.I.poff + i } 1 in
    shadow_set t { dst with I.poff = dst.I.poff + i } 1 bit st
  done

let value_taint t (frame : I.frame) (v : Ssair.Ir.value) : bool =
  match v with
  | Ssair.Ir.Vreg id -> Hashtbl.mem t.vtaint (frame.I.fid, id)
  | Ssair.Ir.Vparam p -> Hashtbl.mem t.ptaint (frame.I.fid, p)
  | _ -> false

let set_vtaint t (frame : I.frame) id v =
  if v then Hashtbl.replace t.vtaint (frame.I.fid, id) ()
  else Hashtbl.remove t.vtaint (frame.I.fid, id)

(* dynamic location of each region: the shm global holds a pointer *)
let region_of t (st : I.state) (p : I.ptr) : (Shm.region * int) option =
  List.find_map
    (fun (r : Shm.region) ->
      match Hashtbl.find_opt st.I.global_addr r.Shm.r_name with
      | None -> None
      | Some gp -> (
        match
          try Some (I.load_scalar st t.prog.Ssair.Ir.env (Ty.Ptr r.Shm.r_elem) gp)
          with I.Trap _ -> None
        with
        | Some (I.VPtr base)
          when base.I.pblk = p.I.pblk
               && p.I.poff >= base.I.poff
               && p.I.poff < base.I.poff + r.Shm.r_size ->
          Some (r, p.I.poff - base.I.poff)
        | _ -> None))
    t.shm.Shm.regions

let covered t region_name ~lo ~hi =
  List.exists
    (fun (_, assums) ->
      List.exists
        (fun (r, alo, ahi) -> String.equal r region_name && alo <= lo && hi <= ahi)
        assums)
    t.assumptions

(* resolve a function's assume(core(...)) clauses against the live frame *)
let resolve_assumptions t (st : I.state) (frame : I.frame) (f : Ssair.Ir.func) :
    (string * int * int) list =
  let env = t.prog.Ssair.Ir.env in
  let clauses =
    f.Ssair.Ir.fannot
    @ List.filter_map
        (fun (i : Ssair.Ir.instr) ->
          match i.Ssair.Ir.idesc with
          | Ssair.Ir.Annotation { clause; _ } -> Some clause
          | _ -> None)
        (Ssair.Ir.all_instrs f)
  in
  List.filter_map
    (fun clause ->
      match clause with
      | Annot.Assume_core { ptr; off; size } -> (
        let lo = Annot.eval_aexpr env off in
        let hi = lo + Annot.eval_aexpr env size in
        match Shm.region t.shm ptr with
        | Some _ -> Some (ptr, lo, hi)
        | None -> (
          (* parameter pointer: resolve its current value *)
          match Hashtbl.find_opt frame.I.params ptr with
          | Some (I.VPtr p) -> (
            match region_of t st p with
            | Some (r, base) -> Some (r.Shm.r_name, base + lo, base + hi)
            | None -> None)
          | _ -> None))
      | _ -> None)
    clauses

let width_of t ty =
  let env = t.prog.Ssair.Ir.env in
  match Ty.resolve env ty with
  | (Ty.Struct _ | Ty.Array _) as agg -> Ty.sizeof env agg
  | sc -> ( try I.scalar_width env sc with I.Trap _ -> 8)

let is_aggregate t ty =
  match Ty.resolve t.prog.Ssair.Ir.env ty with
  | Ty.Struct _ | Ty.Array _ -> true
  | _ -> false

(* -- hook bodies -------------------------------------------------------------- *)

let on_instr t (st : I.state) (frame : I.frame) (i : Ssair.Ir.instr) =
  let operand_taint vs = List.exists (value_taint t frame) vs in
  match i.Ssair.Ir.idesc with
  | Ssair.Ir.Alloca _ -> ()
  | Ssair.Ir.Load { ptr; lty } -> (
    match I.value st frame ptr with
    | I.VPtr p ->
      let w = width_of t lty in
      let mem_taint = shadow_any t p w in
      let source =
        if t.exempt_depth > 0 then None
        else
          match region_of t st p with
          | Some (r, off) when r.Shm.r_noncore ->
            if covered t r.Shm.r_name ~lo:off ~hi:(off + w) then None
            else Some r.Shm.r_name
          | _ -> None
      in
      (match source with
      | Some region -> Hashtbl.replace t.read_sites (i.Ssair.Ir.iloc, region) ()
      | None -> ());
      let tainted = mem_taint || source <> None || value_taint t frame ptr in
      (* aggregate loads materialize a fresh block: propagate its shadow *)
      if is_aggregate t lty then begin
        match Hashtbl.find_opt frame.I.regs i.Ssair.Ir.iid with
        | Some (I.VPtr tmp) ->
          shadow_copy t ~src:p ~dst:tmp (width_of t lty) st;
          if source <> None then shadow_set t tmp (width_of t lty) true st
        | _ -> ()
      end;
      set_vtaint t frame i.Ssair.Ir.iid tainted
    | _ -> ())
  | Ssair.Ir.Store { ptr; sval; sty } -> (
    match I.value st frame ptr with
    | I.VPtr p ->
      let w = width_of t sty in
      if is_aggregate t sty then begin
        match I.value st frame sval with
        | I.VPtr src -> shadow_copy t ~src ~dst:p w st
        | _ -> ()
      end
      else
        (* strong update: dynamic execution knows the exact cell *)
        shadow_set t p w (value_taint t frame sval) st
    | _ -> ())
  | Ssair.Ir.Binop { lhs; rhs; _ } ->
    set_vtaint t frame i.Ssair.Ir.iid (operand_taint [ lhs; rhs ])
  | Ssair.Ir.Unop { operand; _ } ->
    set_vtaint t frame i.Ssair.Ir.iid (operand_taint [ operand ])
  | Ssair.Ir.Cast { cval; _ } -> set_vtaint t frame i.Ssair.Ir.iid (operand_taint [ cval ])
  | Ssair.Ir.Gep { base; idx; _ } ->
    set_vtaint t frame i.Ssair.Ir.iid (operand_taint [ base; idx ])
  | Ssair.Ir.Annotation { clause = Annot.Assert_safe x; aval = Some v } ->
    if value_taint t frame v then
      t.violations <-
        (Fmt.str "assert(safe(%s))" x, frame.I.func.Ssair.Ir.fname, i.Ssair.Ir.iloc)
        :: t.violations
  | Ssair.Ir.Annotation _ -> ()
  | Ssair.Ir.Call { callee; args; rty } ->
    (* implicit critical sinks (the kill pid) *)
    (match List.assoc_opt callee t.config.Config.critical_sinks with
    | Some indices ->
      List.iter
        (fun k ->
          match List.nth_opt args k with
          | Some arg when value_taint t frame arg ->
            t.violations <-
              ( Fmt.str "argument %d of %s" k callee,
                frame.I.func.Ssair.Ir.fname,
                i.Ssair.Ir.iloc )
              :: t.violations
          | _ -> ())
        indices
    | None -> ());
    (* consume the pending argument-taint record *)
    let arg_taints =
      match t.pending_args with
      | top :: rest ->
        t.pending_args <- rest;
        top
      | [] -> []
    in
    let taint =
      match st.I.find callee with
      | Some _ -> t.last_ret_taint
      | None -> List.exists Fun.id arg_taints (* extern: conservative *)
    in
    if not (Ty.equal rty Ty.Void) then set_vtaint t frame i.Ssair.Ir.iid taint

let on_call t (_st : I.state) (frame : I.frame) (i : Ssair.Ir.instr) =
  match i.Ssair.Ir.idesc with
  | Ssair.Ir.Call { args; _ } ->
    t.pending_args <- List.map (value_taint t frame) args :: t.pending_args
  | _ -> ()

let on_enter t (st : I.state) (_caller : I.frame option) (_args : I.rtval list)
    (frame : I.frame) =
  (* bind parameter taints from the caller's pending record *)
  (match t.pending_args with
  | top :: _ ->
    List.iteri
      (fun k taint ->
        match List.nth_opt frame.I.func.Ssair.Ir.fparams k with
        | Some (pname, _) ->
          if taint then Hashtbl.replace t.ptaint (frame.I.fid, pname) ()
        | None -> ())
      top
  | [] -> ());
  if Shm.is_init_func t.shm frame.I.func.Ssair.Ir.fname then
    t.exempt_depth <- t.exempt_depth + 1;
  let assums = resolve_assumptions t st frame frame.I.func in
  t.assumptions <- (frame.I.fid, assums) :: t.assumptions

let on_exit t (_st : I.state) (frame : I.frame) (ret : I.rtval) =
  (match t.assumptions with
  | (fid, _) :: rest when fid = frame.I.fid -> t.assumptions <- rest
  | _ -> ());
  if Shm.is_init_func t.shm frame.I.func.Ssair.Ir.fname then
    t.exempt_depth <- t.exempt_depth - 1;
  ignore ret;
  (* return-value taint: the Ret operand's taint in this frame *)
  let rt =
    List.exists
      (fun (b : Ssair.Ir.block) ->
        match b.Ssair.Ir.termin with
        | Ssair.Ir.Ret (Some v) -> value_taint t frame v
        | _ -> false)
      frame.I.func.Ssair.Ir.blocks
  in
  t.last_ret_taint <- rt

(* -- entry point ---------------------------------------------------------------- *)

(** Execute [prog] under taint tracking.  [extern_handler] supplies the
    environment; extern results are treated as clean unless their
    arguments were tainted. *)
let run ?(config = Config.default) ?extern_handler ?max_steps
    (prog : Ssair.Ir.program) (shm : Shm.t) : result =
  let st = I.create ?extern_handler ?max_steps prog in
  let t =
    {
      prog;
      shm;
      config;
      vtaint = Hashtbl.create 1024;
      ptaint = Hashtbl.create 64;
      shadow = Hashtbl.create 64;
      assumptions = [];
      exempt_depth = 0;
      pending_args = [];
      last_ret_taint = false;
      violations = [];
      read_sites = Hashtbl.create 32;
    }
  in
  I.set_hooks st ~on_enter:(on_enter t) ~on_exit:(on_exit t) ~on_instr:(on_instr t)
    ~on_call:(on_call t);
  I.init_globals st;
  (* a trapped run (fuel exhaustion on the infinite control loop, an
     injected fault) still yields the taint observed so far *)
  let ret = try I.run_state st ~entry:"main" [] with I.Trap _ -> I.VUndef in
  {
    violations =
      List.rev_map
        (fun (sink, func, loc) -> { df_sink = sink; df_func = func; df_loc = loc })
        t.violations
      |> List.sort_uniq compare;
    read_sites = Hashtbl.fold (fun k () acc -> k :: acc) t.read_sites [] |> List.sort compare;
    ret;
  }
