(** Classic scalar optimizations over the SSA IR: constant folding,
    branch folding, phi simplification, dead-instruction elimination and
    straight-line block merging.

    The passes preserve both execution semantics (checked differentially
    against the interpreter) and the SafeFlow analysis results (warnings
    and dependencies are computed on source locations that survive
    optimization — annotations and their operands are always kept).

    [run] applies the passes to a fixpoint and returns the total number
    of rewrites. *)

open Minic

(* -- constant evaluation ----------------------------------------------------- *)

let is_truthy = function
  | Ir.Vint (n, _) -> Some (not (Int64.equal n 0L))
  | Ir.Vfloat (f, _) -> Some (f <> 0.0)
  | _ -> None

let eval_const_binop op bty (a : Ir.value) (b : Ir.value) : Ir.value option =
  let open Ast in
  let bool v = Some (Ir.Vint ((if v then 1L else 0L), Ty.Int)) in
  match (a, b) with
  | Ir.Vint (x, _), Ir.Vint (y, _) -> (
    let wrap v =
      (* match the interpreter's width semantics *)
      match bty with
      | Ty.Char ->
        let m = Int64.to_int (Int64.logand v 0xffL) in
        Some (Ir.Vint (Int64.of_int (if m land 0x80 <> 0 then m - 256 else m), bty))
      | Ty.Int -> Some (Ir.Vint (Int64.of_int32 (Int64.to_int32 v), bty))
      | _ -> Some (Ir.Vint (v, bty))
    in
    match op with
    | Add -> wrap (Int64.add x y)
    | Sub -> wrap (Int64.sub x y)
    | Mul -> wrap (Int64.mul x y)
    | Div -> if Int64.equal y 0L then None else wrap (Int64.div x y)
    | Mod -> if Int64.equal y 0L then None else wrap (Int64.rem x y)
    | Shl -> wrap (Int64.shift_left x (Int64.to_int y land 63))
    | Shr -> wrap (Int64.shift_right x (Int64.to_int y land 63))
    | Band -> wrap (Int64.logand x y)
    | Bor -> wrap (Int64.logor x y)
    | Bxor -> wrap (Int64.logxor x y)
    | Eq -> bool (Int64.equal x y)
    | Ne -> bool (not (Int64.equal x y))
    | Lt -> bool (Int64.compare x y < 0)
    | Le -> bool (Int64.compare x y <= 0)
    | Gt -> bool (Int64.compare x y > 0)
    | Ge -> bool (Int64.compare x y >= 0)
    | Land -> bool ((not (Int64.equal x 0L)) && not (Int64.equal y 0L))
    | Lor -> bool ((not (Int64.equal x 0L)) || not (Int64.equal y 0L)))
  | Ir.Vfloat (x, _), Ir.Vfloat (y, _) -> (
    (* fold only total float operations; keep arithmetic exact *)
    match op with
    | Eq -> bool (x = y)
    | Ne -> bool (x <> y)
    | Lt -> bool (x < y)
    | Le -> bool (x <= y)
    | Gt -> bool (x > y)
    | Ge -> bool (x >= y)
    | Add -> Some (Ir.Vfloat (x +. y, bty))
    | Sub -> Some (Ir.Vfloat (x -. y, bty))
    | Mul -> Some (Ir.Vfloat (x *. y, bty))
    | _ -> None)
  | _ -> None

let eval_const_unop uop uty (a : Ir.value) : Ir.value option =
  match (uop, a) with
  | Ast.Neg, Ir.Vint (n, _) -> Some (Ir.Vint (Int64.neg n, uty))
  | Ast.Neg, Ir.Vfloat (f, _) -> Some (Ir.Vfloat (-.f, uty))
  | Ast.Lnot, v -> (
    match is_truthy v with
    | Some b -> Some (Ir.Vint ((if b then 0L else 1L), Ty.Int))
    | None -> None)
  | Ast.Bnot, Ir.Vint (n, _) -> Some (Ir.Vint (Int64.lognot n, uty))
  | _ -> None

(* -- passes ------------------------------------------------------------------- *)

(** Fold constant instructions and trivial phis; returns replacement
    count.  Replacements are applied through a substitution map so later
    uses see the folded value. *)
let fold_constants (f : Ir.func) : int =
  let changes = ref 0 in
  let repl : (Ir.vid, Ir.value) Hashtbl.t = Hashtbl.create 16 in
  let rec subst v =
    match v with
    | Ir.Vreg id -> (
      match Hashtbl.find_opt repl id with Some v' -> subst v' | None -> v)
    | _ -> v
  in
  (* pass A: collect foldable definitions without removing anything, so
     uses in earlier blocks (loop phis) can still be rewritten later *)
  let grew = ref true in
  while !grew do
    grew := false;
    let add id v =
      if not (Hashtbl.mem repl id) then begin
        Hashtbl.replace repl id v;
        incr changes;
        grew := true
      end
    in
    List.iter
      (fun (b : Ir.block) ->
        List.iter
          (fun (p : Ir.phi) ->
            if not (Hashtbl.mem repl p.Ir.pid) then
              match List.map (fun (_, v) -> subst v) p.Ir.incoming with
              | first :: rest
                when List.for_all (fun v -> v = first) rest
                     && (match first with Ir.Vreg id -> id <> p.Ir.pid | _ -> true) ->
                add p.Ir.pid first
              | _ -> ())
          b.Ir.phis;
        List.iter
          (fun (i : Ir.instr) ->
            if Ir.defines i && not (Hashtbl.mem repl i.Ir.iid) then
              match i.Ir.idesc with
              | Ir.Binop { op; bty; lhs; rhs } -> (
                match eval_const_binop op bty (subst lhs) (subst rhs) with
                | Some v -> add i.Ir.iid v
                | None -> ())
              | Ir.Unop { uop; uty; operand } -> (
                match eval_const_unop uop uty (subst operand) with
                | Some v -> add i.Ir.iid v
                | None -> ())
              | Ir.Cast { to_ty; cval; _ } when Ty.is_integer to_ty -> (
                match subst cval with
                | Ir.Vint (n, _) -> add i.Ir.iid (Ir.Vint (n, to_ty))
                | _ -> ())
              | _ -> ())
          b.Ir.instrs)
      f.Ir.blocks
  done;
  (* a terminator of [b] folded to [Br keep]: the phis of every other
     former successor lose their operand from [b] *)
  let fold_to (b : Ir.block) keep =
    incr changes;
    List.iter
      (fun s ->
        if s <> keep then
          Option.iter
            (fun (sb : Ir.block) ->
              List.iter
                (fun (p : Ir.phi) ->
                  p.Ir.incoming <- List.filter (fun (bid, _) -> bid <> b.Ir.bbid) p.Ir.incoming)
                sb.Ir.phis)
            (Ir.block_opt f s))
      (Ir.succs_of_term b.Ir.termin);
    Ir.Br keep
  in
  (* pass B: rewrite every operand, drop replaced definitions, fold
     terminators *)
  List.iter
    (fun (b : Ir.block) ->
      b.Ir.phis <- List.filter (fun (p : Ir.phi) -> not (Hashtbl.mem repl p.Ir.pid)) b.Ir.phis;
      List.iter
        (fun (p : Ir.phi) ->
          p.Ir.incoming <- List.map (fun (bid, v) -> (bid, subst v)) p.Ir.incoming)
        b.Ir.phis;
      b.Ir.instrs <-
        List.filter
          (fun (i : Ir.instr) ->
            if Ir.defines i && Hashtbl.mem repl i.Ir.iid then false
            else begin
              i.Ir.idesc <- Ir.map_operands subst i.Ir.idesc;
              true
            end)
          b.Ir.instrs;
      b.Ir.termin <- Ir.map_term_operands subst b.Ir.termin;
      b.Ir.termin <-
        (match b.Ir.termin with
        | Ir.Cbr (v, t, e) -> (
          match is_truthy v with
          | Some true -> fold_to b t
          | Some false -> fold_to b e
          | None -> b.Ir.termin)
        | Ir.Switch (Ir.Vint (n, _), cases, d) ->
          fold_to b (match List.assoc_opt n cases with Some t -> t | None -> d)
        | t -> t))
    f.Ir.blocks;
  !changes

(** Remove pure instructions whose results are never used. *)
let eliminate_dead (f : Ir.func) : int =
  let uses = Ir.use_table f in
  let changes = ref 0 in
  List.iter
    (fun (b : Ir.block) ->
      b.Ir.instrs <-
        List.filter
          (fun (i : Ir.instr) ->
            let pure =
              match i.Ir.idesc with
              | Ir.Binop _ | Ir.Unop _ | Ir.Cast _ | Ir.Gep _ | Ir.Load _ -> true
              | Ir.Alloca _ | Ir.Store _ | Ir.Call _ | Ir.Annotation _ -> false
            in
            if pure && Ir.defines i && not (Hashtbl.mem uses i.Ir.iid) then begin
              incr changes;
              false
            end
            else true)
          b.Ir.instrs)
    f.Ir.blocks;
  !changes

(** Merge a block into its unique predecessor when that predecessor
    branches unconditionally to it (and it has no phis). *)
let merge_blocks (f : Ir.func) : int =
  let changes = ref 0 in
  let continue = ref true in
  while !continue do
    continue := false;
    let preds = Ir.predecessors f in
    let merged =
      List.find_map
        (fun (b : Ir.block) ->
          if b.Ir.bbid = f.Ir.fentry then None
          else
            match Hashtbl.find_opt preds b.Ir.bbid with
            | Some [ p ] when b.Ir.phis = [] -> (
              match Ir.block_opt f p with
              | Some pb when pb.Ir.termin = Ir.Br b.Ir.bbid -> Some (pb, b)
              | _ -> None)
            | _ -> None)
        f.Ir.blocks
    in
    match merged with
    | Some (pb, b) ->
      pb.Ir.instrs <- pb.Ir.instrs @ b.Ir.instrs;
      pb.Ir.termin <- b.Ir.termin;
      (* successors' phis referring to b now come from pb *)
      List.iter
        (fun (s : Ir.block) ->
          List.iter
            (fun (p : Ir.phi) ->
              p.Ir.incoming <-
                List.map
                  (fun (bid, v) -> ((if bid = b.Ir.bbid then pb.Ir.bbid else bid), v))
                  p.Ir.incoming)
            s.Ir.phis)
        f.Ir.blocks;
      f.Ir.blocks <- List.filter (fun x -> x.Ir.bbid <> b.Ir.bbid) f.Ir.blocks;
      incr changes;
      continue := true
    | None -> ()
  done;
  !changes

(** Drop blocks made unreachable by branch folding, fixing up phis. *)
let prune_unreachable (f : Ir.func) : int =
  let reachable = Ir.reverse_postorder f in
  let keep = Hashtbl.create 16 in
  List.iter (fun bid -> Hashtbl.replace keep bid ()) reachable;
  let removed = List.length f.Ir.blocks - Hashtbl.length keep in
  if removed > 0 then begin
    f.Ir.blocks <- List.filter (fun b -> Hashtbl.mem keep b.Ir.bbid) f.Ir.blocks;
    List.iter
      (fun (b : Ir.block) ->
        List.iter
          (fun (p : Ir.phi) ->
            p.Ir.incoming <-
              List.filter (fun (bid, _) -> Hashtbl.mem keep bid) p.Ir.incoming)
          b.Ir.phis)
      f.Ir.blocks
  end;
  removed

let run_func (f : Ir.func) : int =
  let total = ref 0 in
  let continue = ref true in
  while !continue do
    let n =
      fold_constants f + prune_unreachable f + eliminate_dead f + merge_blocks f
    in
    total := !total + n;
    continue := n > 0
  done;
  !total

(** Optimize every function; returns the total number of rewrites. *)
let run (p : Ir.program) : int =
  List.fold_left (fun acc f -> acc + run_func f) 0 p.Ir.funcs
