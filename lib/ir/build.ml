(** Lowering from the typed AST straight to SSA form.

    Expressions evaluate to values and lvalues to addresses; short-circuit
    and ternary operators lower to control flow.  Scalar locals whose
    address is never taken are SSA variables from the start, built on the
    fly as in Braun et al., "Simple and Efficient Construction of Static
    Single Assignment Form" (CC 2013): a read looks up the variable's
    current definition in its block and otherwise recurses into the
    predecessors, placing a phi at a join; a block is sealed once all its
    predecessors are known; phis that turn out trivial are removed to a
    fixpoint.  Every other local keeps a stack slot (alloca, loads,
    stores), which is what the pointer analyses expect.

    Instruction ids are those of the memory form: a promoted alloca, load
    or store takes its id but emits nothing.  Surviving phis are numbered
    after all instructions, in block order.  Code after a [return],
    [break] or [continue] in the same block is dropped, reads and writes
    of promoted locals included, and blocks unreachable from the entry
    are not kept. *)

open Minic

(* A promoted local. *)
type var = { idx : int; vname : string; vty : Ty.t }

type local = Slot of Ir.vid * Ty.t  (** alloca id, slot type *) | Var of var

(* A phi under construction.  Until the function is finished it is
   named by the temporary value [Vreg (-1 - k)]. *)
type cphi = {
  k : int;
  var : var;
  mutable ops : (Ir.bid * Ir.value) list;  (** in predecessor order *)
  mutable users : cphi list;  (** phis with this one as an operand *)
  mutable repl : Ir.value option;  (** the value it stands for once trivial *)
  mutable fval : Ir.value;  (** [Vreg] of the final id, once numbered *)
}

type bstate = {
  mutable blk : Ir.block;  (** [instrs] set when the function is finished *)
  mutable ibuf : Ir.instr array;  (** the instructions emitted so far, [ilen] used *)
  mutable ilen : int;
  mutable preds : Ir.bid list;  (** reachable predecessors, latest first *)
  mutable live : bool;  (** reachable from the entry *)
  mutable sealed : bool;  (** all predecessors known *)
  mutable incomplete : cphi list;  (** phis placed before sealing *)
  mutable bphis : cphi list;  (** latest first *)
}

type builder = {
  env : Ty.env;
  promote : bool;  (** [false]: every local stays in memory *)
  mutable next_id : int;
  mutable blocks : bstate array;  (** by block id, [nblocks] used *)
  mutable nblocks : int;
  mutable nstates : int;  (** [blocks.(0 .. nstates-1)] are distinct, reusable states *)
  mutable cur : bstate;
  mutable dead : bool;  (** current block terminated or unreachable *)
  locals : (string, local) Hashtbl.t;
  global_ty : string -> Ty.t option;  (** a global's type *)
  mutable nvars : int;
  mutable defs : Ir.value array array;
      (** by variable, then block id: the variable's current definition
          in the block, valid where [def_fn] holds [fn] *)
  mutable def_fn : int array array;
  mutable fn : int;  (** serial of the function being lowered *)
  mutable phis : cphi array;  (** by [k], [nphis] used *)
  mutable nphis : int;
  mutable break_targets : Ir.bid list;
  mutable continue_targets : Ir.bid list;
}

let fresh_id b =
  let id = b.next_id in
  b.next_id <- id + 1;
  id

let grow arr n fill = if n < Array.length arr then arr else Array.append arr (Array.make (max 8 n) fill)

let no_instr =
  { Ir.iid = -1; idesc = Ir.Alloca { aname = ""; aty = Ty.Void }; ity = Ty.Void; iloc = Loc.dummy }

(* Block states are reused from function to function: only the IR
   block is new. *)
let new_block b =
  let bid = b.nblocks in
  let blk = { Ir.bbid = bid; phis = []; instrs = []; termin = Ir.Unreachable } in
  if bid < b.nstates then begin
    let s = b.blocks.(bid) in
    s.blk <- blk;
    s.ilen <- 0;
    s.preds <- [];
    s.live <- false;
    s.sealed <- false;
    s.incomplete <- [];
    s.bphis <- []
  end
  else begin
    let s =
      { blk; ibuf = [||]; ilen = 0; preds = []; live = false; sealed = false; incomplete = [];
        bphis = [] }
    in
    b.blocks <- grow b.blocks bid s;
    b.blocks.(bid) <- s;
    b.nstates <- bid + 1
  end;
  b.nblocks <- bid + 1;
  bid

(** Append an instruction to the current block, returning its result id;
    in dead code the id is taken and nothing is emitted. *)
let emit ~loc b ity idesc =
  let iid = fresh_id b in
  if not b.dead then begin
    let s = b.cur in
    if s.ilen = Array.length s.ibuf then s.ibuf <- grow s.ibuf s.ilen no_instr;
    s.ibuf.(s.ilen) <- { Ir.iid; idesc; ity; iloc = loc };
    s.ilen <- s.ilen + 1
  end;
  iid

let emit_v ~loc b ity idesc = Ir.Vreg (emit ~loc b ity idesc)

let add_pred b t =
  let s = b.blocks.(t) in
  s.preds <- b.cur.blk.bbid :: s.preds;
  s.live <- true

let terminate b term =
  if not b.dead then begin
    b.cur.blk.termin <- term;
    (match term with
    | Ir.Br t -> add_pred b t
    | Ir.Cbr (_, t, e) ->
      add_pred b t;
      if t <> e then add_pred b e
    | Ir.Switch _ -> List.iter (add_pred b) (Ir.succs_of_term term)
    | Ir.Ret _ | Ir.Unreachable -> ());
    b.dead <- true
  end

(* -- On-the-fly SSA (Braun et al.) ----------------------------------------- *)

let phi_value p = Ir.Vreg (-1 - p.k)

(* whether [v] names a phi under construction *)
let is_phi = function Ir.Vreg id -> id < 0 | _ -> false

(* the phi [v] names, when [is_phi v] *)
let phi_named b v = match v with Ir.Vreg id -> b.phis.(-1 - id) | _ -> assert false

(** The value [v] stands for, following removed phis. *)
let rec resolve b v =
  if is_phi v then (match (phi_named b v).repl with Some r -> resolve b r | None -> v) else v

(* floats compare by bits, so a phi of 0.0 and -0.0 is not trivial *)
let same_value x y =
  match (x, y) with
  | Ir.Vfloat (a, t), Ir.Vfloat (c, u) ->
    Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float c) && t = u
  | _ -> x = y

let new_phi b s var =
  let p = { k = b.nphis; var; ops = []; users = []; repl = None; fval = Ir.Vundef var.vty } in
  b.phis <- grow b.phis b.nphis p;
  b.phis.(b.nphis) <- p;
  b.nphis <- b.nphis + 1;
  s.bphis <- p :: s.bphis;
  p

let write_var b s var v =
  let bid = s.blk.Ir.bbid in
  if bid >= Array.length b.def_fn.(var.idx) then begin
    b.defs.(var.idx) <- grow b.defs.(var.idx) (bid + 1) (Ir.Vundef Ty.Void);
    b.def_fn.(var.idx) <- grow b.def_fn.(var.idx) (bid + 1) (-1)
  end;
  b.defs.(var.idx).(bid) <- v;
  b.def_fn.(var.idx).(bid) <- b.fn

let has_def b s var =
  let bid = s.blk.Ir.bbid and fns = b.def_fn.(var.idx) in
  bid < Array.length fns && fns.(bid) = b.fn

let rec read_var b s var =
  if has_def b s var then resolve b b.defs.(var.idx).(s.blk.Ir.bbid)
  else
    let v =
      if not s.sealed then begin
        let p = new_phi b s var in
        s.incomplete <- p :: s.incomplete;
        phi_value p
      end
      else
        match s.preds with
        | [] -> Ir.Vundef var.vty
        | [ p ] -> read_var b b.blocks.(p) var
        | _ ->
          let p = new_phi b s var in
          (* the phi is the definition while its operands are read, which
             breaks cycles through loops *)
          write_var b s var (phi_value p);
          add_operands b s p
    in
    write_var b s var v;
    v

and add_operands b s p =
  List.iter
    (fun pred ->
      let v = read_var b b.blocks.(pred) p.var in
      if is_phi v then begin
        let q = phi_named b v in
        q.users <- p :: q.users
      end;
      p.ops <- (pred, v) :: p.ops)
    s.preds;
  remove_trivial b p

(** A phi whose operands are all one value or itself stands for that value
    (undef if none); removing it may make its phi users trivial in turn. *)
and remove_trivial b p =
  let self = phi_value p in
  let rec same acc = function
    | [] -> Some acc
    | (_, v) :: rest -> (
      let v = resolve b v in
      if same_value v self then same acc rest
      else
        match acc with
        | None -> same (Some v) rest
        | Some a -> if same_value a v then same acc rest else None)
  in
  match same None p.ops with
  | None -> self
  | Some v ->
    let v = Option.value v ~default:(Ir.Vundef p.var.vty) in
    p.repl <- Some v;
    if is_phi v then begin
      let q = phi_named b v in
      q.users <- List.rev_append p.users q.users
    end;
    List.iter (fun u -> if u != p && u.repl = None then ignore (remove_trivial b u)) p.users;
    resolve b v

let seal b s =
  if not s.sealed then begin
    let pending = s.incomplete in
    s.incomplete <- [];
    if pending <> [] then List.iter (fun p -> ignore (add_operands b s p)) (List.rev pending);
    s.sealed <- true
  end

let switch_to ?(seal_now = true) b bid =
  let s = b.blocks.(bid) in
  b.cur <- s;
  b.dead <- not s.live;
  if seal_now then seal b s

(* promoted locals: dead code takes the ids but neither reads nor writes *)
let read_local b var =
  ignore (fresh_id b);
  if b.dead then Ir.Vundef var.vty else read_var b b.cur var

let write_local b var v =
  ignore (fresh_id b);
  if not b.dead then write_var b b.cur var v

(** A fresh local, promoted when [promote] allows and [ty] is scalar.  A
    slot's alloca is emitted here. *)
let declare ?(loc = Loc.dummy) ?(promote = true) b name ty =
  let l =
    if promote && b.promote && Ty.is_scalar ty then begin
      ignore (fresh_id b);
      let idx = b.nvars in
      b.nvars <- idx + 1;
      if idx = Array.length b.defs then begin
        b.defs <- grow b.defs idx [||];
        b.def_fn <- grow b.def_fn idx [||]
      end;
      Var { idx; vname = name; vty = ty }
    end
    else Slot (emit ~loc b (Ty.Ptr ty) (Ir.Alloca { aname = name; aty = ty }), ty)
  in
  Hashtbl.replace b.locals name l;
  l

(* -- Types of values ----------------------------------------------------- *)

let bool_of v b ty loc =
  (* normalize a scalar to 0/1 int by comparing against zero *)
  let zero =
    match Ty.resolve b.env ty with
    | Ty.Float | Ty.Double -> Ir.Vfloat (0.0, ty)
    | Ty.Ptr _ -> Ir.Vint (0L, Ty.Long)
    | _ -> Ir.Vint (0L, ty)
  in
  emit_v ~loc b Ty.Int (Ir.Binop { op = Ast.Ne; bty = Ty.Int; lhs = v; rhs = zero })

(* -- Expression lowering -------------------------------------------------- *)

(** [*&e] is [e] as an lvalue. *)
let rec strip (e : Tast.texpr) =
  match e.tdesc with Tast.Tderef { tdesc = Tast.Taddr lv; _ } -> strip lv | _ -> e

(** The promoted local an lvalue names, or [no_var]. *)
let no_var = { idx = -1; vname = ""; vty = Ty.Void }

let promoted b e =
  match (strip e).tdesc with
  | Tast.Tlocal x -> (
    match Hashtbl.find b.locals x with Var v -> v | Slot _ -> no_var | exception Not_found -> no_var)
  | _ -> no_var

(** Lower an lvalue expression to its address (a value of pointer type). *)
let rec lower_addr b (e : Tast.texpr) : Ir.value =
  let e = strip e in
  let loc = e.tloc in
  match e.tdesc with
  | Tast.Tlocal x -> (
    match Hashtbl.find b.locals x with
    | Slot (slot, _) -> Ir.Vreg slot
    | Var _ -> invalid_arg ("Build: address of promoted local " ^ x))
  | Tast.Tglobal g -> Ir.Vglobal g
  | Tast.Tderef p -> lower_value b p
  | Tast.Tindex (base, idx) ->
    let idx_v = lower_value b idx in
    let elem_ty = e.tty in
    let base_v =
      match Ty.resolve b.env base.tty with
      | Ty.Array _ -> lower_addr b base
      | _ -> lower_value b base
    in
    emit_v ~loc b (Ty.Ptr elem_ty) (Ir.Gep { base = base_v; kind = Ir.Gindex elem_ty; idx = idx_v })
  | Tast.Tfield (s, fname) ->
    let sname =
      match Ty.resolve b.env s.tty with
      | Ty.Struct n -> n
      | t -> Loc.error loc "field access on %a" Ty.pp t
    in
    let base_v = lower_addr b s in
    emit_v ~loc b (Ty.Ptr e.tty)
      (Ir.Gep { base = base_v; kind = Ir.Gfield (sname, fname); idx = Ir.Vint (0L, Ty.Int) })
  | _ -> Loc.error loc "not an lvalue"

(** Lower an expression to a value. *)
and lower_value b (e : Tast.texpr) : Ir.value =
  let loc = e.tloc in
  match e.tdesc with
  | Tast.Tint n -> Ir.Vint (n, e.tty)
  | Tast.Tfloat x -> Ir.Vfloat (x, e.tty)
  | Tast.Tstr s -> Ir.Vstr s
  | Tast.Tlocal _ | Tast.Tglobal _ | Tast.Tderef _ | Tast.Tindex _ | Tast.Tfield _ -> (
    let var = promoted b e in
    if var != no_var then read_local b var
    else
      let addr = lower_addr b e in
      emit_v ~loc b e.tty (Ir.Load { ptr = addr; lty = e.tty }))
  | Tast.Taddr lv -> lower_addr b lv
  | Tast.Tdecay arr ->
    let addr = lower_addr b arr in
    let elem_ty = match e.tty with Ty.Ptr t -> t | _ -> Ty.Void in
    emit_v ~loc b e.tty
      (Ir.Gep { base = addr; kind = Ir.Gindex elem_ty; idx = Ir.Vint (0L, Ty.Int) })
  | Tast.Tunop (op, a) ->
    let v = lower_value b a in
    emit_v ~loc b e.tty (Ir.Unop { uop = op; uty = e.tty; operand = v })
  | Tast.Tbinop (Ast.Land, a, bexp) -> lower_shortcircuit b ~is_and:true a bexp loc
  | Tast.Tbinop (Ast.Lor, a, bexp) -> lower_shortcircuit b ~is_and:false a bexp loc
  | Tast.Tbinop (op, a, bexp) -> (
    let va = lower_value b a in
    let vb = lower_value b bexp in
    (* pointer arithmetic becomes gep *)
    match (op, Ty.resolve b.env a.tty, Ty.resolve b.env bexp.tty) with
    | Ast.Add, Ty.Ptr elt, ti when Ty.is_integer ti ->
      emit_v ~loc b e.tty (Ir.Gep { base = va; kind = Ir.Gindex elt; idx = vb })
    | Ast.Sub, Ty.Ptr elt, ti when Ty.is_integer ti ->
      let neg = emit_v ~loc b ti (Ir.Unop { uop = Ast.Neg; uty = ti; operand = vb }) in
      emit_v ~loc b e.tty (Ir.Gep { base = va; kind = Ir.Gindex elt; idx = neg })
    | _ -> emit_v ~loc b e.tty (Ir.Binop { op; bty = e.tty; lhs = va; rhs = vb }))
  | Tast.Tassign (lhs, rhs) ->
    let v = lower_value b rhs in
    store ~loc b lhs v;
    v
  | Tast.Tcall (fn, args) ->
    let vs = List.map (lower_value b) args in
    emit_v ~loc b e.tty (Ir.Call { callee = fn; args = vs; rty = e.tty })
  | Tast.Tcast (ty, a) ->
    let v = lower_value b a in
    emit_v ~loc b ty (Ir.Cast { from_ty = a.tty; to_ty = ty; cval = v })
  | Tast.Tcond (c, x, y) ->
    (* the two arms meet in a temporary *)
    let tmp = declare ~loc b "$cond" e.tty in
    let cv = lower_value b c in
    let cb = bool_of cv b c.tty loc in
    let then_b = new_block b in
    let else_b = new_block b in
    let join_b = new_block b in
    terminate b (Ir.Cbr (cb, then_b, else_b));
    switch_to b then_b;
    set ~loc b tmp (lower_value b x);
    terminate b (Ir.Br join_b);
    switch_to b else_b;
    set ~loc b tmp (lower_value b y);
    terminate b (Ir.Br join_b);
    switch_to b join_b;
    get ~loc b tmp

and lower_shortcircuit b ~is_and lhs rhs loc =
  let tmp = declare ~loc b "$sc" Ty.Int in
  let va = lower_value b lhs in
  let ba = bool_of va b lhs.Tast.tty loc in
  set ~loc b tmp ba;
  let rhs_b = new_block b in
  let join_b = new_block b in
  if is_and then terminate b (Ir.Cbr (ba, rhs_b, join_b))
  else terminate b (Ir.Cbr (ba, join_b, rhs_b));
  switch_to b rhs_b;
  let vb = lower_value b rhs in
  set ~loc b tmp (bool_of vb b rhs.Tast.tty loc);
  terminate b (Ir.Br join_b);
  switch_to b join_b;
  get ~loc b tmp

(** Store [v] to the lvalue [lhs]. *)
and store ~loc b lhs v =
  let var = promoted b lhs in
  if var != no_var then write_local b var v
  else
    let addr = lower_addr b lhs in
    ignore (emit ~loc b Ty.Void (Ir.Store { ptr = addr; sval = v; sty = lhs.Tast.tty }))

and set ~loc b l v =
  match l with
  | Var var -> write_local b var v
  | Slot (slot, ty) ->
    ignore (emit ~loc b Ty.Void (Ir.Store { ptr = Ir.Vreg slot; sval = v; sty = ty }))

and get ~loc b = function
  | Var var -> read_local b var
  | Slot (slot, ty) -> emit_v ~loc b ty (Ir.Load { ptr = Ir.Vreg slot; lty = ty })

(* -- Statement lowering ---------------------------------------------------- *)

let with_targets b ~break ?continue f =
  let saved = (b.break_targets, b.continue_targets) in
  b.break_targets <- break :: b.break_targets;
  Option.iter (fun c -> b.continue_targets <- c :: b.continue_targets) continue;
  f ();
  b.break_targets <- fst saved;
  b.continue_targets <- snd saved

(* a branch condition as a 0/1 int *)
let cond b loc (c : Tast.texpr) = bool_of (lower_value b c) b c.Tast.tty loc

let rec lower_stmts b stmts = List.iter (lower_stmt b) stmts

and lower_stmt b (s : Tast.tstmt) =
  let loc = s.tsloc in
  match s.tsdesc with
  | Tast.TSexpr e -> ignore (lower_value b e)
  | Tast.TSdecl (_, _, None) -> ()
  | Tast.TSdecl (x, ty, Some init) -> (
    let v = lower_value b init in
    match Hashtbl.find b.locals x with
    | Var var -> write_local b var v
    | Slot (slot, _) ->
      ignore (emit ~loc b Ty.Void (Ir.Store { ptr = Ir.Vreg slot; sval = v; sty = ty })))
  | Tast.TSif (c, t, e) ->
    let cb = cond b loc c in
    let then_b = new_block b in
    let else_b = new_block b in
    let join_b = new_block b in
    terminate b (Ir.Cbr (cb, then_b, else_b));
    switch_to b then_b;
    lower_stmts b t;
    terminate b (Ir.Br join_b);
    switch_to b else_b;
    lower_stmts b e;
    terminate b (Ir.Br join_b);
    switch_to b join_b
  | Tast.TSwhile (c, body) ->
    let head = new_block b in
    let body_b = new_block b in
    let exit_b = new_block b in
    terminate b (Ir.Br head);
    switch_to ~seal_now:false b head;
    terminate b (Ir.Cbr (cond b loc c, body_b, exit_b));
    with_targets b ~break:exit_b ~continue:head (fun () ->
        switch_to b body_b;
        lower_stmts b body;
        terminate b (Ir.Br head));
    seal b b.blocks.(head);
    switch_to b exit_b
  | Tast.TSdo (body, c) ->
    let body_b = new_block b in
    let cond_b = new_block b in
    let exit_b = new_block b in
    terminate b (Ir.Br body_b);
    with_targets b ~break:exit_b ~continue:cond_b (fun () ->
        switch_to ~seal_now:false b body_b;
        lower_stmts b body;
        terminate b (Ir.Br cond_b);
        switch_to b cond_b;
        terminate b (Ir.Cbr (cond b loc c, body_b, exit_b)));
    seal b b.blocks.(body_b);
    switch_to b exit_b
  | Tast.TSfor (init, c, step, body) ->
    Option.iter (lower_stmt b) init;
    let head = new_block b in
    let body_b = new_block b in
    let step_b = new_block b in
    let exit_b = new_block b in
    terminate b (Ir.Br head);
    switch_to ~seal_now:false b head;
    (match c with
    | Some c -> terminate b (Ir.Cbr (cond b loc c, body_b, exit_b))
    | None -> terminate b (Ir.Br body_b));
    with_targets b ~break:exit_b ~continue:step_b (fun () ->
        switch_to b body_b;
        lower_stmts b body;
        terminate b (Ir.Br step_b));
    switch_to b step_b;
    Option.iter (lower_stmt b) step;
    terminate b (Ir.Br head);
    seal b b.blocks.(head);
    switch_to b exit_b
  | Tast.TSswitch (e, cases) ->
    let v = lower_value b e in
    let exit_b = new_block b in
    (* one block per case; fallthrough chains to the next case block *)
    let case_blocks = List.map (fun c -> (c, new_block b)) cases in
    let default_bid =
      match List.find_opt (fun (c, _) -> c.Tast.tcval = None) case_blocks with
      | Some (_, bid) -> bid
      | None -> exit_b
    in
    let table =
      List.filter_map
        (fun (c, bid) -> Option.map (fun v -> (v, bid)) c.Tast.tcval)
        case_blocks
    in
    terminate b (Ir.Switch (v, table, default_bid));
    with_targets b ~break:exit_b (fun () ->
        let rec emit_cases = function
          | [] -> ()
          | (c, bid) :: rest ->
            switch_to b bid;
            lower_stmts b c.Tast.tcbody;
            let next = match rest with (_, nb) :: _ -> nb | [] -> exit_b in
            terminate b (Ir.Br next);
            emit_cases rest
        in
        emit_cases case_blocks);
    switch_to b exit_b
  | Tast.TSreturn None -> terminate b (Ir.Ret None)
  | Tast.TSreturn (Some e) ->
    let v = lower_value b e in
    terminate b (Ir.Ret (Some v))
  | Tast.TSbreak -> (
    match b.break_targets with
    | t :: _ -> terminate b (Ir.Br t)
    | [] -> Loc.error loc "break outside loop")
  | Tast.TScontinue -> (
    match b.continue_targets with
    | t :: _ -> terminate b (Ir.Br t)
    | [] -> Loc.error loc "continue outside loop")
  | Tast.TSblock body -> lower_stmts b body
  | Tast.TSannot clauses ->
    List.iter
      (fun c ->
        (* assert(safe(x)) reads x here so the taint analysis sees the
           value live at this program point: a local's current value, or
           a load of a global (the typechecker rejects any other name) *)
        let aval =
          match c with
          | Annot.Assert_safe x -> (
            match Hashtbl.find_opt b.locals x with
            | Some l -> Some (get ~loc b l)
            | None ->
              Option.map
                (fun ty -> emit_v ~loc b ty (Ir.Load { ptr = Ir.Vglobal x; lty = ty }))
                (b.global_ty x))
          | _ -> None
        in
        ignore (emit ~loc b Ty.Void (Ir.Annotation { clause = c; aval })))
      clauses

(* -- Address-taken locals ---------------------------------------------------- *)

(** Locals whose address is taken anywhere in [body] (unreachable code
    included); they stay in memory. *)
let address_taken body =
  let rec expr acc (e : Tast.texpr) =
    match e.tdesc with
    | Tast.Tint _ | Tast.Tfloat _ | Tast.Tstr _ | Tast.Tlocal _ | Tast.Tglobal _ -> acc
    | Tast.Tderef { tdesc = Tast.Taddr lv; _ } -> expr acc lv
    | Tast.Taddr lv -> (
      let acc = expr acc lv in
      match (strip lv).tdesc with Tast.Tlocal x -> x :: acc | _ -> acc)
    | Tast.Tunop (_, a) | Tast.Tderef a | Tast.Tfield (a, _) | Tast.Tcast (_, a)
    | Tast.Tdecay a ->
      expr acc a
    | Tast.Tbinop (_, a, c) | Tast.Tassign (a, c) | Tast.Tindex (a, c) -> expr (expr acc a) c
    | Tast.Tcall (_, args) -> List.fold_left expr acc args
    | Tast.Tcond (a, c, d) -> expr (expr (expr acc a) c) d
  and stmt acc (s : Tast.tstmt) =
    match s.tsdesc with
    | Tast.TSexpr e | Tast.TSdecl (_, _, Some e) | Tast.TSreturn (Some e) -> expr acc e
    | Tast.TSdecl (_, _, None) | Tast.TSreturn None | Tast.TSbreak | Tast.TScontinue
    | Tast.TSannot _ ->
      acc
    | Tast.TSif (c, t, e) -> stmts (stmts (expr acc c) t) e
    | Tast.TSwhile (c, body) | Tast.TSdo (body, c) -> stmts (expr acc c) body
    | Tast.TSfor (init, c, step, body) ->
      let opt f acc = Option.fold ~none:acc ~some:(f acc) in
      stmts (opt stmt (opt expr (opt stmt acc init) c) step) body
    | Tast.TSswitch (e, cases) ->
      List.fold_left (fun acc c -> stmts acc c.Tast.tcbody) (expr acc e) cases
    | Tast.TSblock body -> stmts acc body
  and stmts acc l = List.fold_left stmt acc l in
  stmts [] body

(* -- Functions and programs ------------------------------------------------ *)

let fix b v =
  let v = resolve b v in
  if is_phi v then (phi_named b v).fval else v

(* the instructions of [s] in order, each with its operands through
   [fix] when there is one *)
let instr_list ?fix s =
  let acc = ref [] in
  for k = s.ilen - 1 downto 0 do
    let i = s.ibuf.(k) in
    (match fix with Some fix -> i.Ir.idesc <- Ir.map_operands fix i.Ir.idesc | None -> ());
    acc := i :: !acc
  done;
  !acc

let final_phi fix p =
  match (p.repl, p.fval) with
  | None, Ir.Vreg pid ->
    Some
      { Ir.pid; pty = p.var.vty; pname = p.var.vname;
        incoming = List.map (fun (bid, v) -> (bid, fix v)) p.ops }
  | _ -> None

let finish_func b : Ir.block list =
  (* number the surviving phis in block order first: an operand may
     name a phi of a later block *)
  for bid = 0 to b.nblocks - 1 do
    let s = b.blocks.(bid) in
    if s.live && s.bphis <> [] then
      List.iter
        (fun p -> if p.repl = None then p.fval <- Ir.Vreg (fresh_id b))
        (List.rev s.bphis)
  done;
  let fix = fix b in
  let blocks = ref [] in
  for bid = b.nblocks - 1 downto 0 do
    let s = b.blocks.(bid) in
    if s.live then begin
      let blk = s.blk in
      if b.nphis = 0 then blk.instrs <- instr_list s
      else begin
        blk.instrs <- instr_list ~fix s;
        blk.termin <- Ir.map_term_operands fix blk.termin
      end;
      if s.bphis <> [] then blk.phis <- List.filter_map (final_phi fix) (List.rev s.bphis);
      blocks := blk :: !blocks
    end
  done;
  !blocks

let lower_func b (tf : Tast.tfunc) : Ir.func =
  b.next_id <- 0;
  b.fn <- b.fn + 1;
  b.nblocks <- 0;
  b.nvars <- 0;
  b.nphis <- 0;
  Hashtbl.reset b.locals;
  let entry = new_block b in
  b.blocks.(entry).live <- true;
  switch_to b entry;
  let taken = address_taken tf.tf_body in
  let declare name ty = declare ~promote:(not (List.mem name taken)) b name ty in
  (* parameter and local slots *)
  List.iter
    (fun (name, ty) -> set ~loc:Loc.dummy b (declare name ty) (Ir.Vparam name))
    tf.tf_params;
  List.iter (fun (name, ty) -> ignore (declare name ty)) tf.tf_locals;
  (* function-level annotations become pseudo-instructions at entry *)
  List.iter
    (fun c -> ignore (emit ~loc:Loc.dummy b Ty.Void (Ir.Annotation { clause = c; aval = None })))
    tf.tf_annot;
  lower_stmts b tf.tf_body;
  (* implicit return *)
  (match tf.tf_ret with
  | Ty.Void -> terminate b (Ir.Ret None)
  | ty -> terminate b (Ir.Ret (Some (Ir.Vundef ty))));
  {
    Ir.fname = tf.tf_name;
    fret = tf.tf_ret;
    fparams = tf.tf_params;
    blocks = finish_func b;
    fentry = entry;
    fannot = tf.tf_annot;
    floc = tf.tf_loc;
  }

let builder ~promote env global_ty =
  let dummy_blk =
    { blk = { Ir.bbid = -1; phis = []; instrs = []; termin = Ir.Unreachable };
      ibuf = [||]; ilen = 0; preds = []; live = false; sealed = true; incomplete = []; bphis = [] }
  in
  {
    env;
    promote;
    next_id = 0;
    blocks = [||];
    nblocks = 0;
    nstates = 0;
    cur = dummy_blk;
    dead = true;
    locals = Hashtbl.create 16;
    global_ty;
    nvars = 0;
    defs = [||];
    def_fn = [||];
    fn = 0;
    phis = [||];
    nphis = 0;
    break_targets = [];
    continue_targets = [];
  }

(** A lowering of single functions sharing one builder: the type
    environment and the globals' types are the program's. *)
let func_lowering env ~globals = lower_func (builder ~promote:true env globals)

(** The program of typed declarations [prog] (its functions ignored)
    and lowered functions [funcs]. *)
let program (prog : Tast.program) funcs : Ir.program =
  { Ir.env = prog.p_env;
    globals = List.map (fun g -> (g.Tast.tg_name, g.Tast.tg_ty, g.Tast.tg_init)) prog.p_globals;
    externs = prog.p_externs;
    funcs }

let lower_with ~promote (prog : Tast.program) : Ir.program =
  let globals = Hashtbl.create 16 in
  List.iter (fun g -> Hashtbl.replace globals g.Tast.tg_name g.Tast.tg_ty) prog.p_globals;
  let b = builder ~promote prog.p_env (Hashtbl.find_opt globals) in
  program prog (List.map (lower_func b) prog.p_funcs)

(** Lower a typed program to SSA form. *)
let lower prog = lower_with ~promote:true prog

(** Lower with every local in memory (the input of the mem2reg oracle). *)
let lower_memory prog = lower_with ~promote:false prog
