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
  pts : (key, Tset.t) Hashtbl.t;
  heap : (Node.t, Tset.t) Hashtbl.t;
}

let pts_get t k = Option.value ~default:Tset.empty (Hashtbl.find_opt t.pts k)

let fold_pts f t acc = Hashtbl.fold f t.pts acc

let fold_heap f t acc = Hashtbl.fold f t.heap acc
let heap_get t n = Option.value ~default:Tset.empty (Hashtbl.find_opt t.heap n)

(* returns true if the set grew *)
let pts_add t k s =
  let old = pts_get t k in
  let merged = Tset.union old s in
  if Tset.cardinal merged > Tset.cardinal old then begin
    Hashtbl.replace t.pts k merged;
    true
  end
  else false

let heap_add t n s =
  let old = heap_get t n in
  let merged = Tset.union old s in
  if Tset.cardinal merged > Tset.cardinal old then begin
    Hashtbl.replace t.heap n merged;
    true
  end
  else false

let is_pointer env ty = match Ty.resolve env ty with Ty.Ptr _ -> true | _ -> false

(** Points-to set of an IR value within function [f]. *)
let value_pts t (f : Ssair.Ir.func) (v : Ssair.Ir.value) : Tset.t =
  match v with
  | Ssair.Ir.Vreg id -> pts_get t (Kreg (f.fname, id))
  | Ssair.Ir.Vparam p -> pts_get t (Kparam (f.fname, p))
  | Ssair.Ir.Vglobal g ->
    Tset.singleton { Target.node = Node.Nglobal g; off = Offset.Byte 0 }
  | Ssair.Ir.Vstr s -> Tset.singleton { Target.node = Node.Nstr s; off = Offset.Byte 0 }
  | Ssair.Ir.Vint _ | Ssair.Ir.Vfloat _ | Ssair.Ir.Vundef _ -> Tset.empty

(** One propagation pass over an instruction; returns true on any change.
    [env] is the program's type environment. *)
let transfer t env find (f : Ssair.Ir.func) (i : Ssair.Ir.instr) : bool =
  let changed = ref false in
  let ( <+ ) k s = if pts_add t k s then changed := true in
  let self = Kreg (f.fname, i.Ssair.Ir.iid) in
  (match i.Ssair.Ir.idesc with
  | Ssair.Ir.Alloca _ ->
    self <+ Tset.singleton
              { Target.node = Node.Nalloca (f.fname, i.Ssair.Ir.iid); off = Offset.Byte 0 }
  | Ssair.Ir.Load { ptr; lty } ->
    if is_pointer env lty then
      (* read the heap cells of every object the pointer may reference *)
      Tset.iter
        (fun tgt -> self <+ heap_get t tgt.Target.node)
        (value_pts t f ptr)
  | Ssair.Ir.Store { ptr; sval; sty } ->
    if is_pointer env sty then
      let sv = value_pts t f sval in
      Tset.iter
        (fun tgt -> if heap_add t tgt.Target.node sv then changed := true)
        (value_pts t f ptr)
  | Ssair.Ir.Gep { base; kind; idx } ->
    let base_pts = value_pts t f base in
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
    self <+ Tset.map
              (fun tgt -> { tgt with Target.off = Offset.add tgt.Target.off delta })
              base_pts
  | Ssair.Ir.Cast { to_ty; cval; _ } ->
    if is_pointer env to_ty then self <+ value_pts t f cval
  | Ssair.Ir.Binop { lhs; rhs; _ } ->
    (* pointer comparisons produce ints; pointer arithmetic is gep-only.
       Still, conservatively flow operand targets into the result when it
       is pointer-typed (does not occur in lowered code). *)
    if is_pointer env i.Ssair.Ir.ity then begin
      self <+ value_pts t f lhs;
      self <+ value_pts t f rhs
    end
  | Ssair.Ir.Unop _ | Ssair.Ir.Annotation _ -> ()
  | Ssair.Ir.Call { callee; args; rty } -> (
    match find callee with
    | Some g ->
      (* bind arguments to parameters *)
      List.iteri
        (fun k arg ->
          match List.nth_opt g.Ssair.Ir.fparams k with
          | Some (pname, pty) ->
            if is_pointer env pty then Kparam (g.Ssair.Ir.fname, pname) <+ value_pts t f arg
          | None -> ())
        args;
      if is_pointer env rty then self <+ pts_get t (Kret g.Ssair.Ir.fname)
    | None ->
      (* extern: pointer arguments escape into an opaque region; a pointer
         result may alias that region *)
      let ext = Node.Nextern callee in
      List.iter
        (fun arg ->
          let s = value_pts t f arg in
          if not (Tset.is_empty s) then
            if heap_add t ext s then changed := true)
        args;
      if is_pointer env rty then
        self <+ Tset.singleton { Target.node = ext; off = Offset.Top }));
  !changed

let transfer_term t env (f : Ssair.Ir.func) (b : Ssair.Ir.block) : bool =
  match b.Ssair.Ir.termin with
  | Ssair.Ir.Ret (Some v) ->
    if is_pointer env f.Ssair.Ir.fret then pts_add t (Kret f.Ssair.Ir.fname) (value_pts t f v)
    else false
  | _ -> false

let transfer_phis t env (f : Ssair.Ir.func) (b : Ssair.Ir.block) : bool =
  List.fold_left
    (fun changed (p : Ssair.Ir.phi) ->
      if is_pointer env p.Ssair.Ir.pty then
        List.fold_left
          (fun ch (_, v) -> pts_add t (Kreg (f.fname, p.Ssair.Ir.pid)) (value_pts t f v) || ch)
          changed p.Ssair.Ir.incoming
      else changed)
    false b.Ssair.Ir.phis

(** Run the analysis to fixpoint. *)
let analyze (prog : Ssair.Ir.program) : t =
  let t = { pts = Hashtbl.create 256; heap = Hashtbl.create 64 } in
  let env = prog.Ssair.Ir.env and find = Ssair.Ir.func_index prog in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun f ->
        List.iter
          (fun b ->
            if transfer_phis t env f b then changed := true;
            List.iter (fun i -> if transfer t env find f i then changed := true) b.Ssair.Ir.instrs;
            if transfer_term t env f b then changed := true)
          f.Ssair.Ir.blocks)
      prog.Ssair.Ir.funcs
  done;
  t

(** All memory objects a value may point to. *)
let points_to t (f : Ssair.Ir.func) (v : Ssair.Ir.value) : Tset.t = value_pts t f v

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

(** May two values alias (point to a common object)? *)
let may_alias t (f : Ssair.Ir.func) a b =
  let na = Tset.map (fun x -> { x with Target.off = Offset.Top }) (points_to t f a) in
  let nb = Tset.map (fun x -> { x with Target.off = Offset.Top }) (points_to t f b) in
  not (Tset.is_empty (Tset.inter na nb))

let pp_target_set ppf s =
  Fmt.pf ppf "{%a}" Fmt.(list ~sep:comma Target.pp) (Tset.elements s)
