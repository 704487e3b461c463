(** Phase 1 (paper §3.3): interprocedural identification of pointers to
    shared memory.

    Shared-memory pointers originate at loads of the globals bound by the
    initializing function's [shmvar] post-conditions; they then flow
    through casts, address arithmetic (geps), phis, arguments and return
    values.  Restriction P2 guarantees they never flow through other
    memory, which is what makes this phase precise.

    Facts are sets of (region, byte-offset) pairs, offsets collapsing to
    [Top] under non-constant indexing (an array in shared memory is
    treated as a single unit, §3.1).  They are propagated by a sparse
    def-use worklist over the program index: the seeds are the loads of
    shared-memory pointer globals, and a value is revisited only when a
    fact it reads grows — through an SSA use, a parameter of a call it
    makes, or the return of a function it calls.  The fixpoint is the
    one the paper's bottom-up + top-down passes over call-graph SCCs
    reach. *)

open Minic
module Ir = Ssair.Ir
module Index = Ssair.Index
module Offset = Pointsto.Offset

module Rtgt = struct
  type t = { region : string; off : Offset.t }

  let compare = compare

  let pp ppf t = Fmt.pf ppf "%s%a" t.region Offset.pp t.off
end

module Rset = Set.Make (Rtgt)

type t = {
  index : Index.t;
  facts : Rset.t array array;
      (** by function index, then value id; [[||]] for a function none
          of whose values has a fact *)
  param_facts : Rset.t array array;
      (** by function index, then parameter position; [[||]] for none *)
  ret_facts : Rset.t array;  (** by function index *)
  shm : Shm.t;
  exempt : bool array;
      (** by function index: reachable from an initializing function, so
          restrictions and warnings are suspended there *)
  config : Config.t;
  mutable visits : int;  (** transfers evaluated: seeds, then worklist pops *)
}

let get a i = if i >= 0 && i < Array.length a then Array.unsafe_get a i else Rset.empty

(** Shared-memory targets of value [v] in function [fx]. *)
let targets t fx (v : Ir.value) : Rset.t =
  match v with
  | Ir.Vreg id -> get t.facts.(fx) id
  | Ir.Vparam p ->
    let a = t.param_facts.(fx) in
    if Array.length a = 0 then Rset.empty else get a (Index.param_pos (Index.func t.index fx) p)
  | _ -> Rset.empty

(** Shared-memory targets of parameter [p] of function [fx]. *)
let param_targets t fx p = targets t fx (Ir.Vparam p)

let ret_targets t fx = t.ret_facts.(fx)

(** Shared-memory targets of value [v] in function [f], found by name:
    empty unless [v] is a pointer into shared memory. *)
let shm_targets t (f : Ir.func) (v : Ir.value) : Rset.t =
  let fx = Index.find t.index f.Ir.fname in
  if fx < 0 then Rset.empty else targets t fx v

let exempt_fx t fx = t.exempt.(fx)

let is_exempt t fname =
  let fx = Index.find t.index fname in
  fx >= 0 && t.exempt.(fx)

(** Every exempt (initializing) function, sorted — the functions whose
    phase-2 obligations are suspended and appear in the audit ledger as
    "assumed". *)
let exempt_functions t =
  let acc = ref [] in
  Array.iteri (fun fx e -> if e then acc := (Index.func t.index fx).Ir.fname :: !acc) t.exempt;
  List.sort String.compare !acc

let coarsen t s =
  if t.config.Config.field_sensitive then s
  else Rset.map (fun x -> { x with Rtgt.off = Offset.Top }) s

(* [a.(i) <- a.(i) ∪ s]; whether it grew *)
let union_into a i s =
  let old = a.(i) in
  if Rset.subset s old then false
  else begin
    a.(i) <- Rset.union old s;
    true
  end

(* -- The sparse engine -------------------------------------------------- *)

type site = No_site | Sinstr of Ir.instr | Sphi of Ir.phi

(* A function's def-use view, built the first time one of its values or
   parameters gains a fact.  Slots are value ids, then parameter
   positions at [bound + k]; a user is the id of an instruction or phi
   reading the slot whose transfer can derive a fact from it, or -1 for
   the function's returns. *)
type view = {
  sites : site array;  (** by value id: the instruction or phi defining it *)
  use_off : int array;  (** users of slot [s] are [use_dst.(use_off.(s) .. use_off.(s+1) - 1)] *)
  use_dst : int array;
  rets : Ir.value list;  (** the values the function returns *)
  queued : Bytes.t;  (** by value id, then one byte for the returns: pending on the worklist *)
}

let no_view = { sites = [||]; use_off = [||]; use_dst = [||]; rets = []; queued = Bytes.empty }

let build_view (f : Ir.func) bound : view =
  let sites = Array.make bound No_site in
  let nslots = bound + List.length f.Ir.fparams in
  let use_off = Array.make (nslots + 1) 0 in
  let rets = ref [] in
  let slot (v : Ir.value) =
    match v with
    | Ir.Vreg id -> id
    | Ir.Vparam p ->
      let k = Index.param_pos f p in
      if k < 0 then -1 else bound + k
    | _ -> -1
  in
  (* one pass counts the uses of each slot, a second files them *)
  let each_use g =
    List.iter
      (fun (b : Ir.block) ->
        List.iter
          (fun (p : Ir.phi) -> List.iter (fun (_, v) -> g (slot v) p.Ir.pid) p.Ir.incoming)
          b.Ir.phis;
        List.iter
          (fun (i : Ir.instr) ->
            match i.Ir.idesc with
            | Ir.Gep _ | Ir.Cast _ | Ir.Binop _ | Ir.Call _ ->
              Ir.iter_operands (fun v -> g (slot v) i.Ir.iid) i.Ir.idesc
            | Ir.Load _ | Ir.Store _ | Ir.Alloca _ | Ir.Unop _ | Ir.Annotation _ ->
              (* their transfer derives no fact from an operand *)
              ())
          b.Ir.instrs;
        match b.Ir.termin with Ir.Ret (Some v) -> g (slot v) (-1) | _ -> ())
      f.Ir.blocks
  in
  each_use (fun s _ -> if s >= 0 then use_off.(s + 1) <- use_off.(s + 1) + 1);
  for s = 1 to nslots do
    use_off.(s) <- use_off.(s) + use_off.(s - 1)
  done;
  let use_dst = Array.make use_off.(nslots) 0 in
  let fill = Array.sub use_off 0 nslots in
  each_use (fun s u ->
      if s >= 0 then begin
        use_dst.(fill.(s)) <- u;
        fill.(s) <- fill.(s) + 1
      end);
  List.iter
    (fun (b : Ir.block) ->
      List.iter (fun (p : Ir.phi) -> sites.(p.Ir.pid) <- Sphi p) b.Ir.phis;
      List.iter (fun (i : Ir.instr) -> sites.(i.Ir.iid) <- Sinstr i) b.Ir.instrs;
      match b.Ir.termin with Ir.Ret (Some v) -> rets := v :: !rets | _ -> ())
    f.Ir.blocks;
  { sites; use_off; use_dst; rets = List.rev !rets; queued = Bytes.make (bound + 1) '\000' }

type engine = {
  p1 : t;
  views : view array;  (** by function index; [no_view] until needed *)
  callers : (int * Ir.vid) list array;
      (** by function index: the non-exempt call sites (caller, call id) *)
  mutable pending : int list;  (** [(fx lsl 32) lor (user + 1)] *)
}

let view e fx =
  let v = e.views.(fx) in
  if v != no_view then v
  else begin
    let v = build_view (Index.func e.p1.index fx) (Index.bound e.p1.index fx) in
    e.views.(fx) <- v;
    v
  end

(* the [queued] byte of user [u] *)
let qslot v u = if u < 0 then Bytes.length v.queued - 1 else u

let push e fx u =
  let v = view e fx in
  let q = qslot v u in
  if Bytes.unsafe_get v.queued q = '\000' then begin
    Bytes.unsafe_set v.queued q '\001';
    e.pending <- ((fx lsl 32) lor (u + 1)) :: e.pending
  end

let push_users e fx slot =
  let v = view e fx in
  for j = v.use_off.(slot) to v.use_off.(slot + 1) - 1 do
    push e fx v.use_dst.(j)
  done

let facts_of t fx =
  let a = t.facts.(fx) in
  if Array.length a > 0 then a
  else begin
    let a = Array.make (Index.bound t.index fx) Rset.empty in
    t.facts.(fx) <- a;
    a
  end

(* the fact of value [vid] of [fx] grows by [s] *)
let set e fx vid s =
  let t = e.p1 in
  if not (Rset.is_empty s) && union_into (facts_of t fx) vid (coarsen t s) then
    push_users e fx vid

let set_param e gx k s =
  let t = e.p1 in
  if not (Rset.is_empty s) then begin
    let a =
      let a = t.param_facts.(gx) in
      if Array.length a > 0 then a
      else begin
        let a = Array.make (List.length (Index.func t.index gx).Ir.fparams) Rset.empty in
        t.param_facts.(gx) <- a;
        a
      end
    in
    if union_into a k (coarsen t s) && not t.exempt.(gx) then
      push_users e gx (Index.bound t.index gx + k)
  end

let set_ret e fx s =
  let t = e.p1 in
  if (not (Rset.is_empty s)) && union_into t.ret_facts fx (coarsen t s) then
    List.iter (fun (cfx, iid) -> push e cfx iid) e.callers.(fx)

let transfer e fx (i : Ir.instr) =
  let t = e.p1 in
  match i.Ir.idesc with
  | Ir.Load { ptr = Ir.Vglobal g; _ } -> (
    (* reading a shm-pointer global yields a pointer to its region *)
    match Shm.region t.shm g with
    | Some r -> set e fx i.Ir.iid (Rset.singleton { Rtgt.region = r.Shm.r_name; off = Offset.Byte 0 })
    | None -> ())
  | Ir.Gep { base; kind; idx } ->
    let base_s = targets t fx base in
    if not (Rset.is_empty base_s) then begin
      let env = t.index.Index.prog.Ir.env in
      let delta =
        match kind with
        | Ir.Gfield (sname, fname) -> (
          match Ty.field_offset env sname fname with
          | Some off -> Offset.Byte off
          | None -> Offset.Top)
        | Ir.Gindex elt -> (
          match idx with
          | Ir.Vint (n, _) -> Offset.Byte (Int64.to_int n * Ty.sizeof env elt)
          | _ -> Offset.Top)
      in
      set e fx i.Ir.iid (Rset.map (fun x -> { x with Rtgt.off = Offset.add x.Rtgt.off delta }) base_s)
    end
  | Ir.Cast { cval; _ } -> set e fx i.Ir.iid (targets t fx cval)
  | Ir.Binop { lhs; rhs; _ } ->
    (* pointer arithmetic lowers to geps; comparisons produce ints.  The
       conservative union is only relevant for exotic code. *)
    set e fx i.Ir.iid (targets t fx lhs);
    set e fx i.Ir.iid (targets t fx rhs)
  | Ir.Call { args; _ } ->
    let gx = Index.callee t.index fx i.Ir.iid in
    if gx >= 0 then begin
      let nparams = List.length (Index.func t.index gx).Ir.fparams in
      List.iteri (fun k arg -> if k < nparams then set_param e gx k (targets t fx arg)) args;
      set e fx i.Ir.iid t.ret_facts.(gx)
    end
  | Ir.Load _ | Ir.Alloca _ | Ir.Store _ | Ir.Unop _ | Ir.Annotation _ -> ()

(* re-evaluate user [u] of function [fx] *)
let visit e fx u =
  let t = e.p1 in
  t.visits <- t.visits + 1;
  let v = e.views.(fx) in
  if u < 0 then List.iter (fun r -> set_ret e fx (targets t fx r)) v.rets
  else
    match v.sites.(u) with
    | Sphi p -> List.iter (fun (_, w) -> set e fx u (targets t fx w)) p.Ir.incoming
    | Sinstr i -> transfer e fx i
    | No_site -> ()

(* functions reachable from initializing functions *)
let mark_exempt (index : Index.t) (shm : Shm.t) =
  let exempt = Array.make (Index.length index) false in
  let rec mark fx =
    if not exempt.(fx) then begin
      exempt.(fx) <- true;
      Array.iter (fun gx -> if gx >= 0 then mark gx) index.Index.call_callees.(fx)
    end
  in
  List.iter
    (fun name ->
      let fx = Index.find index name in
      if fx >= 0 then mark fx)
    shm.Shm.init_funcs;
  exempt

let c_visits = Telemetry.counter "phase1.visits"

(** Run phase 1 over the whole program. *)
let run ?(config = Config.default) (index : Index.t) (shm : Shm.t) : t =
  let n = Index.length index in
  let exempt = mark_exempt index shm in
  let t =
    { index; facts = Array.make n [||]; param_facts = Array.make n [||];
      ret_facts = Array.make n Rset.empty; shm; exempt; config; visits = 0 }
  in
  let callers = Array.make n [] in
  for fx = n - 1 downto 0 do
    if not exempt.(fx) then
      Array.iteri
        (fun k gx -> if gx >= 0 then callers.(gx) <- (fx, index.Index.call_iids.(fx).(k)) :: callers.(gx))
        index.Index.call_callees.(fx)
  done;
  let e = { p1 = t; views = Array.make n no_view; callers; pending = [] } in
  (* seeds: the loads of shared-memory pointer globals *)
  Array.iteri
    (fun fx (f : Ir.func) ->
      if not exempt.(fx) then
        List.iter
          (fun (b : Ir.block) ->
            List.iter
              (fun (i : Ir.instr) ->
                match i.Ir.idesc with
                | Ir.Load { ptr = Ir.Vglobal g; _ } when Shm.region shm g <> None ->
                  t.visits <- t.visits + 1;
                  transfer e fx i
                | _ -> ())
              b.Ir.instrs)
          f.Ir.blocks)
    index.Index.funcs;
  let rec drain () =
    match e.pending with
    | [] -> ()
    | code :: rest ->
      e.pending <- rest;
      let fx = code lsr 32 and u = (code land 0xFFFFFFFF) - 1 in
      let v = e.views.(fx) in
      Bytes.unsafe_set v.queued (qslot v u) '\000';
      visit e fx u;
      drain ()
  in
  drain ();
  Telemetry.add c_visits t.visits;
  t
