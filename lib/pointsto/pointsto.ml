(** Whole-program points-to analysis over the IR.

    The paper uses Data Structure Analysis (DSA) as its alias analysis.
    We provide the same service interface — which abstract memory objects
    can each pointer value reference, and what does each object's memory
    point to — with an inclusion-based (Andersen-style) analysis that is
    field-sensitive on pointer *targets* (byte offsets tracked through
    geps, collapsing to [Top] when indices are not constant) and
    field-insensitive on the *heap* (one points-to set per object).  This
    is more conservative than DSA in heap precision and more precise in
    direction (inclusion vs. unification); the ablation benchmark B3
    quantifies the effect on false positives.

    Context-insensitive: one points-to set per SSA value across all call
    sites; the SafeFlow phase-3 dependency analysis adds the context-
    sensitive treatment on top (per the paper, the value-flow phase is the
    context-sensitive one). *)

open Minic

module Node = struct
  type t =
    | Nglobal of string
    | Nalloca of string * int  (** function, alloca instruction id *)
    | Nshm of string           (** shared-memory region, named by its shmvar pointer *)
    | Nextern of string        (** opaque memory returned by an extern function *)
    | Nstr of string

  let compare = compare

  let pp ppf = function
    | Nglobal g -> Fmt.pf ppf "glob:%s" g
    | Nalloca (f, id) -> Fmt.pf ppf "stack:%s.%%%d" f id
    | Nshm r -> Fmt.pf ppf "shm:%s" r
    | Nextern f -> Fmt.pf ppf "ext:%s" f
    | Nstr s -> Fmt.pf ppf "str:%S" s
end

module Offset = struct
  type t = Byte of int | Top

  let add a b = match (a, b) with Byte x, Byte y -> Byte (x + y) | _ -> Top

  let pp ppf = function Byte n -> Fmt.pf ppf "+%d" n | Top -> Fmt.string ppf "+T"
end

module Target = struct
  type t = { node : Node.t; off : Offset.t }

  let compare = compare

  let pp ppf t = Fmt.pf ppf "%a%a" Node.pp t.node Offset.pp t.off
end

module Tset = Set.Make (Target)

type key =
  | Kreg of string * Ssair.Ir.vid    (** function, value id *)
  | Kparam of string * string  (** function, parameter name *)
  | Kret of string             (** function return value *)

type t = {
  index : Ssair.Index.t;
  regs : Tset.t array array;
      (** by function index, then value id; [[||]] for a function none
          of whose values points anywhere *)
  params : Tset.t array array;  (** by function index, then parameter position *)
  rets : Tset.t array;  (** by function index *)
  heap : (Node.t, Tset.t) Hashtbl.t;
}

let get a i = if i >= 0 && i < Array.length a then Array.unsafe_get a i else Tset.empty

let param_pts t fx p = get t.params.(fx) (Ssair.Index.param_pos t.index.Ssair.Index.funcs.(fx) p)

let pts_get t = function
  | Kreg (fname, vid) ->
    let fx = Ssair.Index.find t.index fname in
    if fx < 0 then Tset.empty else get t.regs.(fx) vid
  | Kparam (fname, p) ->
    let fx = Ssair.Index.find t.index fname in
    if fx < 0 then Tset.empty else param_pts t fx p
  | Kret fname ->
    let fx = Ssair.Index.find t.index fname in
    if fx < 0 then Tset.empty else t.rets.(fx)

let reg_facts t fx = t.regs.(fx)

let heap_get t n = Option.value ~default:Tset.empty (Hashtbl.find_opt t.heap n)

(* [a.(i) <- a.(i) ∪ s]; whether it grew *)
let union_into a i s =
  let old = a.(i) in
  if Tset.subset s old then false
  else begin
    a.(i) <- Tset.union old s;
    true
  end

(* the array of [tbl.(fx)], made [len] long when still empty *)
let slots tbl fx len =
  let a = tbl.(fx) in
  if Array.length a > 0 then a
  else begin
    let a = Array.make len Tset.empty in
    tbl.(fx) <- a;
    a
  end

let reg_add t fx vid s =
  (not (Tset.is_empty s))
  && union_into (slots t.regs fx (Ssair.Index.bound t.index fx)) vid s

let param_add t gx k s =
  (not (Tset.is_empty s))
  && union_into (slots t.params gx (List.length t.index.Ssair.Index.funcs.(gx).Ssair.Ir.fparams)) k s

let heap_add t n s =
  let old = heap_get t n in
  if Tset.subset s old then false
  else begin
    Hashtbl.replace t.heap n (Tset.union old s);
    true
  end

let is_pointer env ty = match Ty.resolve env ty with Ty.Ptr _ -> true | _ -> false

(** Points-to set of an IR value within function [fx]. *)
let value_pts t fx (v : Ssair.Ir.value) : Tset.t =
  match v with
  | Ssair.Ir.Vreg id -> get t.regs.(fx) id
  | Ssair.Ir.Vparam p -> param_pts t fx p
  | Ssair.Ir.Vglobal g ->
    Tset.singleton { Target.node = Node.Nglobal g; off = Offset.Byte 0 }
  | Ssair.Ir.Vstr s -> Tset.singleton { Target.node = Node.Nstr s; off = Offset.Byte 0 }
  | Ssair.Ir.Vint _ | Ssair.Ir.Vfloat _ | Ssair.Ir.Vundef _ -> Tset.empty

(** One propagation pass over an instruction of function [fx]; returns
    true on any change.  [env] is the program's type environment. *)
let transfer t env fx (f : Ssair.Ir.func) (i : Ssair.Ir.instr) : bool =
  let changed = ref false in
  let self s = if reg_add t fx i.Ssair.Ir.iid s then changed := true in
  (match i.Ssair.Ir.idesc with
  | Ssair.Ir.Alloca _ ->
    self (Tset.singleton
            { Target.node = Node.Nalloca (f.fname, i.Ssair.Ir.iid); off = Offset.Byte 0 })
  | Ssair.Ir.Load { ptr; lty } ->
    if is_pointer env lty then
      (* read the heap cells of every object the pointer may reference *)
      Tset.iter (fun tgt -> self (heap_get t tgt.Target.node)) (value_pts t fx ptr)
  | Ssair.Ir.Store { ptr; sval; sty } ->
    if is_pointer env sty then
      let sv = value_pts t fx sval in
      Tset.iter
        (fun tgt -> if heap_add t tgt.Target.node sv then changed := true)
        (value_pts t fx ptr)
  | Ssair.Ir.Gep { base; kind; idx } ->
    let base_pts = value_pts t fx base in
    if not (Tset.is_empty base_pts) then begin
      let delta =
        match kind with
        | Ssair.Ir.Gfield (sname, fname) -> (
          match Ty.field_offset env sname fname with
          | Some off -> Offset.Byte off
          | None -> Offset.Top)
        | Ssair.Ir.Gindex elt -> (
          match idx with
          | Ssair.Ir.Vint (0L, _) -> Offset.Byte 0
          | Ssair.Ir.Vint (n, _) -> Offset.Byte (Int64.to_int n * Ty.sizeof env elt)
          | _ -> Offset.Top)
      in
      self (Tset.map (fun tgt -> { tgt with Target.off = Offset.add tgt.Target.off delta }) base_pts)
    end
  | Ssair.Ir.Cast { to_ty; cval; _ } ->
    if is_pointer env to_ty then self (value_pts t fx cval)
  | Ssair.Ir.Binop { lhs; rhs; _ } ->
    (* pointer comparisons produce ints; pointer arithmetic is gep-only.
       Still, conservatively flow operand targets into the result when it
       is pointer-typed (does not occur in lowered code). *)
    if is_pointer env i.Ssair.Ir.ity then begin
      self (value_pts t fx lhs);
      self (value_pts t fx rhs)
    end
  | Ssair.Ir.Unop _ | Ssair.Ir.Annotation _ -> ()
  | Ssair.Ir.Call { callee; args; rty } ->
    let gx = Ssair.Index.callee t.index fx i.Ssair.Ir.iid in
    if gx >= 0 then begin
      (* bind arguments to parameters *)
      let g = t.index.Ssair.Index.funcs.(gx) in
      List.iteri
        (fun k arg ->
          match List.nth_opt g.Ssair.Ir.fparams k with
          | Some (_, pty) ->
            if is_pointer env pty && param_add t gx k (value_pts t fx arg) then changed := true
          | None -> ())
        args;
      if is_pointer env rty then self t.rets.(gx)
    end
    else begin
      (* extern: pointer arguments escape into an opaque region; a pointer
         result may alias that region *)
      let ext = Node.Nextern callee in
      List.iter
        (fun arg ->
          let s = value_pts t fx arg in
          if not (Tset.is_empty s) then
            if heap_add t ext s then changed := true)
        args;
      if is_pointer env rty then self (Tset.singleton { Target.node = ext; off = Offset.Top })
    end);
  !changed

let transfer_term t env fx (f : Ssair.Ir.func) (b : Ssair.Ir.block) : bool =
  match b.Ssair.Ir.termin with
  | Ssair.Ir.Ret (Some v) ->
    is_pointer env f.Ssair.Ir.fret && union_into t.rets fx (value_pts t fx v)
  | _ -> false

let transfer_phis t env fx (b : Ssair.Ir.block) : bool =
  List.fold_left
    (fun changed (p : Ssair.Ir.phi) ->
      if is_pointer env p.Ssair.Ir.pty then
        List.fold_left
          (fun ch (_, v) -> reg_add t fx p.Ssair.Ir.pid (value_pts t fx v) || ch)
          changed p.Ssair.Ir.incoming
      else changed)
    false b.Ssair.Ir.phis

(** Run the analysis to fixpoint. *)
let analyze (index : Ssair.Index.t) : t =
  let n = Ssair.Index.length index in
  let t =
    { index; regs = Array.make n [||]; params = Array.make n [||]; rets = Array.make n Tset.empty;
      heap = Hashtbl.create 64 }
  in
  let env = index.Ssair.Index.prog.Ssair.Ir.env in
  let changed = ref true in
  while !changed do
    changed := false;
    Array.iteri
      (fun fx (f : Ssair.Ir.func) ->
        List.iter
          (fun b ->
            if transfer_phis t env fx b then changed := true;
            List.iter (fun i -> if transfer t env fx f i then changed := true) b.Ssair.Ir.instrs;
            if transfer_term t env fx f b then changed := true)
          f.Ssair.Ir.blocks)
      index.Ssair.Index.funcs
  done;
  t

(** All memory objects a value may point to. *)
let points_to t (f : Ssair.Ir.func) (v : Ssair.Ir.value) : Tset.t =
  match v with
  | Ssair.Ir.Vreg _ | Ssair.Ir.Vparam _ ->
    let fx = Ssair.Index.find t.index f.Ssair.Ir.fname in
    if fx < 0 then Tset.empty else value_pts t fx v
  | _ -> value_pts t 0 v

let points_to_fx = value_pts

(** Objects transitively reachable from a target set through the heap. *)
let reachable t (roots : Tset.t) : Tset.t =
  let seen = ref Tset.empty in
  let rec go tgt =
    if not (Tset.mem tgt !seen) then begin
      seen := Tset.add tgt !seen;
      Tset.iter go (heap_get t tgt.Target.node)
    end
  in
  Tset.iter go roots;
  !seen
