(** Phase 1 (paper §3.3): interprocedural identification of pointers to
    shared memory.

    Shared-memory pointers originate at loads of the globals bound by the
    initializing function's [shmvar] post-conditions; they then flow
    through casts, address arithmetic (geps), phis, arguments and return
    values.  Restriction P2 guarantees they never flow through other
    memory, which is what makes this phase precise.

    Facts are sets of (region, byte-offset) pairs, offsets collapsing to
    [Top] under non-constant indexing (an array in shared memory is
    treated as a single unit, §3.1).  Interprocedural propagation merges
    facts over call edges to a fixpoint, equivalent to the paper's
    bottom-up + top-down passes over call-graph SCCs. *)

open Minic
module Offset = Pointsto.Offset

module Rtgt = struct
  type t = { region : string; off : Offset.t }

  let compare = compare

  let pp ppf t = Fmt.pf ppf "%s%a" t.region Offset.pp t.off
end

module Rset = Set.Make (Rtgt)

type t = {
  facts : (string * Ssair.Ir.vid, Rset.t) Hashtbl.t;
  param_facts : (string * string, Rset.t) Hashtbl.t;
  ret_facts : (string, Rset.t) Hashtbl.t;
  shm : Shm.t;
  exempt : (string, unit) Hashtbl.t;
      (** functions reachable from an initializing function: restrictions
          and warnings are suspended there *)
  config : Config.t;
  mutable iterations : int;
}

let fact_get t k = Option.value ~default:Rset.empty (Hashtbl.find_opt t.facts k)
let param_get t k = Option.value ~default:Rset.empty (Hashtbl.find_opt t.param_facts k)
let ret_get t k = Option.value ~default:Rset.empty (Hashtbl.find_opt t.ret_facts k)

let add tbl k s =
  let old = Option.value ~default:Rset.empty (Hashtbl.find_opt tbl k) in
  let merged = Rset.union old s in
  if Rset.cardinal merged > Rset.cardinal old then begin
    Hashtbl.replace tbl k merged;
    true
  end
  else false

(** Shared-memory targets of an IR value in function [f]. *)
let value_shm t (f : Ssair.Ir.func) (v : Ssair.Ir.value) : Rset.t =
  match v with
  | Ssair.Ir.Vreg id -> fact_get t (f.fname, id)
  | Ssair.Ir.Vparam p -> param_get t (f.fname, p)
  | _ -> Rset.empty

let is_exempt t fname = Hashtbl.mem t.exempt fname

(** Every exempt (initializing) function, sorted — the functions whose
    phase-2 obligations are suspended and appear in the audit ledger as
    "assumed". *)
let exempt_functions t =
  List.sort String.compare (Hashtbl.fold (fun k () acc -> k :: acc) t.exempt [])

let coarsen t s =
  if t.config.Config.field_sensitive then s
  else Rset.map (fun x -> { x with Rtgt.off = Offset.Top }) s

let transfer t (prog : Ssair.Ir.program) find (f : Ssair.Ir.func) (i : Ssair.Ir.instr) : bool =
  let changed = ref false in
  let self s = if add t.facts (f.fname, i.Ssair.Ir.iid) (coarsen t s) then changed := true in
  (match i.Ssair.Ir.idesc with
  | Ssair.Ir.Load { ptr = Ssair.Ir.Vglobal g; _ } -> (
    (* reading a shm-pointer global yields a pointer to its region *)
    match Shm.region t.shm g with
    | Some r -> self (Rset.singleton { Rtgt.region = r.Shm.r_name; off = Offset.Byte 0 })
    | None -> ())
  | Ssair.Ir.Load _ -> ()
  | Ssair.Ir.Gep { base; kind; idx } ->
    let base_s = value_shm t f base in
    if not (Rset.is_empty base_s) then begin
      let env = prog.Ssair.Ir.env in
      let delta =
        match kind with
        | Ssair.Ir.Gfield (sname, fname) -> (
          match Ty.field_offset env sname fname with
          | Some off -> Offset.Byte off
          | None -> Offset.Top)
        | Ssair.Ir.Gindex elt -> (
          match idx with
          | Ssair.Ir.Vint (n, _) -> Offset.Byte (Int64.to_int n * Ty.sizeof env elt)
          | _ -> Offset.Top)
      in
      self (Rset.map (fun x -> { x with Rtgt.off = Offset.add x.Rtgt.off delta }) base_s)
    end
  | Ssair.Ir.Cast { cval; _ } -> self (value_shm t f cval)
  | Ssair.Ir.Binop { lhs; rhs; _ } ->
    (* pointer arithmetic lowers to geps; comparisons produce ints.  The
       conservative union is only relevant for exotic code. *)
    self (value_shm t f lhs);
    self (value_shm t f rhs)
  | Ssair.Ir.Call { callee; args; _ } -> (
    match find callee with
    | Some g ->
      List.iteri
        (fun k arg ->
          match List.nth_opt g.Ssair.Ir.fparams k with
          | Some (pname, _) ->
            let s = coarsen t (value_shm t f arg) in
            if add t.param_facts (g.Ssair.Ir.fname, pname) s then changed := true
          | None -> ())
        args;
      self (ret_get t g.Ssair.Ir.fname)
    | None -> ())
  | Ssair.Ir.Alloca _ | Ssair.Ir.Store _ | Ssair.Ir.Unop _ | Ssair.Ir.Annotation _ -> ());
  !changed

let transfer_phis t (f : Ssair.Ir.func) (b : Ssair.Ir.block) : bool =
  List.fold_left
    (fun changed (p : Ssair.Ir.phi) ->
      List.fold_left
        (fun ch (_, v) ->
          add t.facts (f.fname, p.Ssair.Ir.pid) (coarsen t (value_shm t f v)) || ch)
        changed p.Ssair.Ir.incoming)
    false b.Ssair.Ir.phis

let transfer_ret t (f : Ssair.Ir.func) (b : Ssair.Ir.block) : bool =
  match b.Ssair.Ir.termin with
  | Ssair.Ir.Ret (Some v) -> add t.ret_facts f.fname (coarsen t (value_shm t f v))
  | _ -> false

(** Run phase 1 over the whole program. *)
let run ?(config = Config.default) (prog : Ssair.Ir.program) (shm : Shm.t) : t =
  let t =
    {
      facts = Hashtbl.create 256;
      param_facts = Hashtbl.create 32;
      ret_facts = Hashtbl.create 32;
      shm;
      exempt = Hashtbl.create 8;
      config;
      iterations = 0;
    }
  in
  let find = Ssair.Ir.func_index prog in
  (* exempt set: functions reachable from initializing functions *)
  let callees fname =
    match find fname with
    | None -> []
    | Some f ->
      List.filter_map
        (fun i ->
          match i.Ssair.Ir.idesc with
          | Ssair.Ir.Call { callee; _ } when find callee <> None -> Some callee
          | _ -> None)
        (Ssair.Ir.all_instrs f)
  in
  let rec mark_exempt fn =
    if not (Hashtbl.mem t.exempt fn) then begin
      Hashtbl.replace t.exempt fn ();
      List.iter mark_exempt (callees fn)
    end
  in
  List.iter mark_exempt shm.Shm.init_funcs;
  let changed = ref true in
  while !changed do
    changed := false;
    t.iterations <- t.iterations + 1;
    List.iter
      (fun (f : Ssair.Ir.func) ->
        if not (is_exempt t f.fname) then
          List.iter
            (fun b ->
              if transfer_phis t f b then changed := true;
              List.iter (fun i -> if transfer t prog find f i then changed := true) b.Ssair.Ir.instrs;
              if transfer_ret t f b then changed := true)
            f.Ssair.Ir.blocks)
      prog.Ssair.Ir.funcs
  done;
  t

(** Is this address value a pointer into shared memory? *)
let shm_targets = value_shm
