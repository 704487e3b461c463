(** IR well-formedness verifier, run on every prepared program and by
    tests.

    Checked invariants:
    - block ids are unique, the entry exists and all branch targets exist;
    - instruction/phi ids are unique within a function;
    - every [Vreg] use refers to a defined id;
    - in SSA form, each use is dominated by its definition and each phi
      has exactly one incoming value per CFG predecessor, none repeated.

    The state is a few arrays indexed by block id and by value id, made
    once per program at the largest function's size and cleared after
    each function; operands are visited by top-level functions over that
    state, so checking a valid function allocates next to nothing beyond
    its dominator tree, which only a function with a use outside its
    definition's block needs.  A message is formatted only for a
    violation. *)

type violation = { vfunc : string; vmsg : string }

let pp_violation ppf v = Fmt.pf ppf "[%s] %s" v.vfunc v.vmsg

type scratch = {
  present : bool array;  (** by block id *)
  preds : Ir.bid list array;  (** by block id *)
  def_block : int array;  (** by value id: defining block, -1 = none *)
  def_pos : int array;  (** position there, -1 = a phi *)
}

(* the checking state of one function *)
type fctx = {
  f : Ir.func;
  nb : int;
  nv : int;
  s : scratch;
  mutable errs : violation list;  (** newest first *)
  mutable dup : bool;  (** a block id seen twice *)
  mutable tree : Dom.tree option;  (** computed at the first use outside its def's block *)
  (* the use being checked *)
  mutable use_iid : int;
  mutable use_block : int;
  mutable use_pos : int;
}

let err c fmt = Fmt.kstr (fun m -> c.errs <- { vfunc = c.f.fname; vmsg = m } :: c.errs) fmt

let max_bid (f : Ir.func) = List.fold_left (fun m (b : Ir.block) -> max m b.bbid) f.fentry f.blocks

let max_vid (f : Ir.func) =
  List.fold_left
    (fun m (b : Ir.block) ->
      let m = List.fold_left (fun m (p : Ir.phi) -> max m p.pid) m b.phis in
      List.fold_left (fun m (i : Ir.instr) -> max m i.iid) m b.instrs)
    0 f.blocks

let is_block c t = t >= 0 && t < c.nb && c.s.present.(t)

let defined c id = id >= 0 && id < c.nv && c.s.def_block.(id) >= 0

let dominates_use c id ~use_block ~use_pos =
  defined c id
  &&
  let db = c.s.def_block.(id) in
  if db = use_block then c.s.def_pos.(id) < use_pos
  else
    let t =
      match c.tree with
      | Some t -> t
      | None ->
        let t = Dom.compute c.f in
        c.tree <- Some t;
        t
    in
    Dom.dominates t db use_block

let reg check c (v : Ir.value) = match v with Ir.Vreg id -> check c id | _ -> ()

let rec regs check c = function
  | [] -> ()
  | v :: rest ->
    reg check c v;
    regs check c rest

(* the register operands of an instruction, each through [check] *)
let iter_regs check c (d : Ir.idesc) =
  match d with
  | Alloca _ | Annotation { aval = None; _ } -> ()
  | Annotation { aval = Some v; _ } | Load { ptr = v; _ } | Unop { operand = v; _ }
  | Cast { cval = v; _ } ->
    reg check c v
  | Store { ptr = v; sval = w; _ } | Binop { lhs = v; rhs = w; _ } | Gep { base = v; idx = w; _ } ->
    reg check c v;
    reg check c w
  | Call { args; _ } -> regs check c args

let check_defined c id = if not (defined c id) then err c "instr %%%d: use of undefined %%%d" c.use_iid id

let check_dominated c id =
  if not (dominates_use c id ~use_block:c.use_block ~use_pos:c.use_pos) then
    err c "instr %%%d in b%d: operand %%%d does not dominate use" c.use_iid c.use_block id

let define c id bid pos =
  if id >= 0 then begin
    if c.s.def_block.(id) >= 0 then err c "duplicate id %%%d" id;
    c.s.def_block.(id) <- bid;
    c.s.def_pos.(id) <- pos
  end

let rec define_instrs c bid k = function
  | [] -> ()
  | (i : Ir.instr) :: rest ->
    if Ir.defines i then define c i.iid bid k;
    define_instrs c bid (k + 1) rest

let rec check_instrs check c k = function
  | [] -> ()
  | (i : Ir.instr) :: rest ->
    c.use_iid <- i.iid;
    c.use_pos <- k;
    iter_regs check c i.idesc;
    check_instrs check c (k + 1) rest

(* [g c bid t] for each successor [t] of block [bid], in
   {!Ir.succs_of_term} order (a switch's targets sorted, deduplicated) *)
let iter_succs g c (b : Ir.block) =
  match b.termin with
  | Br t -> g c b.bbid t
  | Cbr (_, t, e) ->
    g c b.bbid t;
    if t <> e then g c b.bbid e
  | Switch _ -> List.iter (g c b.bbid) (Ir.succs_of_term b.termin)
  | Ret _ | Unreachable -> ()

let check_target c bid t = if not (is_block c t) then err c "b%d: branch to unknown b%d" bid t

let add_pred c bid t = if is_block c t then c.s.preds.(t) <- bid :: c.s.preds.(t)

let clear_preds c _ t = if t >= 0 && t < c.nb then c.s.preds.(t) <- []

let rec define_phis c bid = function
  | [] -> ()
  | (p : Ir.phi) :: rest ->
    define c p.pid bid (-1);
    define_phis c bid rest

let rec check_phi_uses c = function
  | [] -> ()
  | (p : Ir.phi) :: rest ->
    List.iter
      (function
        | _, Ir.Vreg id when not (defined c id) -> err c "phi %%%d: use of undefined %%%d" p.pid id
        | _ -> ())
      p.incoming;
    check_phi_uses c rest

(* phi arity: one incoming per predecessor; sorted, not deduplicated,
   so a repeated predecessor is an error *)
let check_phi_arity c (b : Ir.block) =
  if b.phis <> [] then begin
    let ps = List.sort compare c.s.preds.(b.bbid) in
    List.iter
      (fun (p : Ir.phi) ->
        let inc = List.sort compare (List.map fst p.incoming) in
        if inc <> ps then
          err c "phi %%%d in b%d: incoming %a but preds %a" p.pid b.bbid
            Fmt.(Dump.list int) inc
            Fmt.(Dump.list int) ps)
      b.phis
  end

(* phi incoming (bid, v): v must dominate the *end* of bid *)
let rec check_phi_dominance c = function
  | [] -> ()
  | (p : Ir.phi) :: rest ->
    List.iter
      (function
        | inb, Ir.Vreg id when not (dominates_use c id ~use_block:inb ~use_pos:max_int) ->
          err c "phi %%%d: incoming %%%d via b%d does not dominate edge" p.pid id inb
        | _ -> ())
      p.incoming;
    check_phi_dominance c rest

let rec clear_defs c = function
  | [] -> ()
  | (i : Ir.instr) :: rest ->
    if i.iid >= 0 then c.s.def_block.(i.iid) <- -1;
    clear_defs c rest

let rec clear_phi_defs c = function
  | [] -> ()
  | (p : Ir.phi) :: rest ->
    if p.pid >= 0 then c.s.def_block.(p.pid) <- -1;
    clear_phi_defs c rest

let rec each_block g c = function
  | [] -> ()
  | b :: rest ->
    g c b;
    each_block g c rest

let mark_present c (b : Ir.block) =
  if b.bbid >= 0 then begin
    if c.s.present.(b.bbid) then c.dup <- true;
    c.s.present.(b.bbid) <- true
  end

let block_targets c b = iter_succs check_target c b

let block_defs c (b : Ir.block) =
  define_phis c b.bbid b.phis;
  define_instrs c b.bbid 0 b.instrs

let block_uses c (b : Ir.block) =
  check_phi_uses c b.phis;
  check_instrs check_defined c 0 b.instrs;
  match b.termin with
  | Cbr (Ir.Vreg id, _, _) | Switch (Ir.Vreg id, _, _) | Ret (Some (Ir.Vreg id))
    when not (defined c id) ->
    err c "term of b%d: use of undefined %%%d" b.bbid id
  | _ -> ()

let block_preds c b = iter_succs add_pred c b

(* defs dominate uses; a phi precedes every instruction of its block *)
let block_dominance c (b : Ir.block) =
  c.use_block <- b.bbid;
  check_instrs check_dominated c 0 b.instrs;
  check_phi_dominance c b.phis

(* clear what the function set, for the next one *)
let block_clear c (b : Ir.block) =
  if b.bbid >= 0 then begin
    c.s.present.(b.bbid) <- false;
    iter_succs clear_preds c b
  end;
  clear_phi_defs c b.phis;
  clear_defs c b.instrs

let check_in ?(ssa = false) (s : scratch) (f : Ir.func) : violation list =
  let c =
    { f; nb = 1 + max_bid f; nv = 1 + max_vid f; s; errs = []; dup = false; tree = None;
      use_iid = 0; use_block = 0; use_pos = 0 }
  in
  each_block mark_present c f.blocks;
  if c.dup then err c "duplicate block ids";
  if not (is_block c f.fentry) then err c "entry block missing";
  each_block block_targets c f.blocks;
  (* each value id's defining block, and its position there (-1: a phi) *)
  each_block block_defs c f.blocks;
  each_block block_uses c f.blocks;
  if ssa then begin
    each_block block_preds c f.blocks;
    each_block check_phi_arity c f.blocks;
    each_block block_dominance c f.blocks
  end;
  each_block block_clear c f.blocks;
  List.rev c.errs

let scratch ~nb ~nv =
  { present = Array.make nb false; preds = Array.make nb []; def_block = Array.make nv (-1);
    def_pos = Array.make nv (-1) }

let check_func ?ssa (f : Ir.func) : violation list =
  check_in ?ssa (scratch ~nb:(1 + max_bid f) ~nv:(1 + max_vid f)) f

let check_program ?ssa (p : Ir.program) : violation list =
  let nb = List.fold_left (fun m f -> max m (1 + max_bid f)) 1 p.funcs in
  let nv = List.fold_left (fun m f -> max m (1 + max_vid f)) 1 p.funcs in
  let s = scratch ~nb ~nv in
  List.concat_map (check_in ?ssa s) p.funcs
