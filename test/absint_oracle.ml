(* The hash-table value-range engine, kept as the test oracle for the
   dense engine in lib/absint: the same interval transfer functions and
   branch refinements over per-function hash tables keyed by SSA id or
   parameter name, the full widening/narrowing schedule for every
   function (loop-free or not), and the interprocedural passes over
   [Dataflow.Scc] on function names.  It shares only the interval
   domain with the library.  test_absint compares the two per function:
   summary views, decided branches and the range of every SSA value at
   every block. *)

open Minic

module Itv = struct
  include Absint.Itv

  (* bound helpers the library keeps private *)
  let bcmp a b =
    match (a, b) with
    | MInf, MInf | PInf, PInf -> 0
    | MInf, _ -> -1
    | _, MInf -> 1
    | PInf, _ -> 1
    | _, PInf -> -1
    | Fin x, Fin y -> compare x y

  let bmin a b = if bcmp a b <= 0 then a else b
  let bmax a b = if bcmp a b >= 0 then a else b
  let norm lo hi = if bcmp lo hi > 0 then Bot else Iv (lo, hi)

  let badd ~inf a b =
    match (a, b) with
    | MInf, PInf | PInf, MInf -> inf
    | MInf, _ | _, MInf -> MInf
    | PInf, _ | _, PInf -> PInf
    | Fin x, Fin y ->
      let s = x + y in
      if x >= 0 = (y >= 0) && s >= 0 <> (x >= 0) then if x >= 0 then PInf else MInf
      else Fin s
end

(* -- Summaries ----------------------------------------------------------- *)

type key = Kvid of Ssair.Ir.vid | Kparam of string

type dead = Absint.dead = Dead_then | Dead_else

type func_summary = {
  s_env : (key * Itv.t) list;          (* sorted by key *)
  s_params : (string * Itv.t) list;    (* declaration order *)
  s_ret : Itv.t;
  s_ret_raw : Itv.t;  (* pre-promotion join over reachable rets (Bot if none) *)
  s_dead : (Ssair.Ir.bid * dead) list; (* sorted by block id *)
  s_iters : int;
  s_widen : int;
}

type t = {
  prog : Ssair.Ir.program;
  summaries : (string, func_summary) Hashtbl.t;
}

(* -- Per-function fixpoint ----------------------------------------------- *)

module Ir = Ssair.Ir

type fctx = {
  func : Ir.func;
  defs : (Ir.vid, Ir.def_site) Hashtbl.t;
  preds : (Ir.bid, Ir.bid list) Hashtbl.t;
  env : (key, Itv.t) Hashtbl.t;
  params : (string * Itv.t) list;
  ret_of : string -> Itv.t;  (* callee return summary (Top for externs) *)
  reach : (Ir.bid, unit) Hashtbl.t;
  mutable iters : int;
  mutable widens : int;
}

let lookup ctx k = Option.value ~default:Itv.Bot (Hashtbl.find_opt ctx.env k)

let int_roundtrips n = Int64.of_int (Int64.to_int n) = n

let itv_of_int64 n =
  if int_roundtrips n then Itv.const (Int64.to_int n)
  else if Int64.compare n 0L > 0 then Itv.Iv (Itv.Fin max_int, Itv.PInf)
  else Itv.Iv (Itv.MInf, Itv.Fin min_int)

let eval_value ctx = function
  | Ir.Vint (n, _) -> itv_of_int64 n
  | Ir.Vreg id -> lookup ctx (Kvid id)
  | Ir.Vparam p ->
    (match List.assoc_opt p ctx.params with Some i -> i | None -> Itv.top)
  | Ir.Vfloat _ | Ir.Vglobal _ | Ir.Vstr _ | Ir.Vundef _ -> Itv.top

let key_of_value = function
  | Ir.Vreg id -> Some (Kvid id)
  | Ir.Vparam p -> Some (Kparam p)
  | _ -> None

(* interval of [a op b] for a comparison: decided comparisons collapse to
   [0,0]/[1,1], otherwise [0,1] *)
let eval_cmp op a b =
  let open Itv in
  if is_bot a || is_bot b then Bot
  else
    let al, ah, bl, bh =
      match (a, b) with
      | Iv (al, ah), Iv (bl, bh) -> (al, ah, bl, bh)
      | _ -> assert false
    in
    let always, never =
      match op with
      | Ast.Lt -> (bcmp ah bl < 0, bcmp al bh >= 0)
      | Ast.Le -> (bcmp ah bl <= 0, bcmp al bh > 0)
      | Ast.Gt -> (bcmp al bh > 0, bcmp ah bl <= 0)
      | Ast.Ge -> (bcmp al bh >= 0, bcmp ah bl < 0)
      | Ast.Eq -> (al = ah && bl = bh && al = bl && al <> MInf && al <> PInf,
                   is_bot (meet a b))
      | Ast.Ne -> (is_bot (meet a b),
                   al = ah && bl = bh && al = bl && al <> MInf && al <> PInf)
      | _ -> (false, false)
    in
    if always then const 1 else if never then const 0 else range 0 1

(* x mod y under OCaml/C truncated-division semantics: the result's sign
   follows the dividend, magnitude is below |y| *)
let eval_rem a b =
  let open Itv in
  if is_bot a || is_bot b then Bot
  else
    match finite_hi (join b (neg b)) with
    | Some m when m >= 1 ->
      let hi = m - 1 in
      (match finite_lo a with
      | Some l when l >= 0 -> range 0 hi
      | _ -> range (-hi) hi)
    | _ -> top

let eval_div a b =
  let open Itv in
  if is_bot a || is_bot b then Bot
  else
    match (finite_lo b, finite_hi b) with
    | Some bl, Some bh when bl = bh && bl <> 0 ->
      let k = bl in
      (match (a, excludes_zero b) with
      | Iv (l, h), _ ->
        let bdiv = function
          | MInf -> if k > 0 then MInf else PInf
          | PInf -> if k > 0 then PInf else MInf
          | Fin x -> Fin (x / k)
        in
        let c1 = bdiv l and c2 = bdiv h in
        Iv (bmin c1 c2, bmax c1 c2)
      | Bot, _ -> Bot)
    | _ -> (
      (* |a / b| <= |a| whenever the division executes *)
      match (finite_lo a, finite_hi a) with
      | Some l, Some h ->
        let m = max (abs l) (abs h) in
        range (-m) m
      | _ -> top)

let next_pow2_mask n =
  let rec go m = if m >= n && m > 0 then m else go ((m * 2) + 1) in
  go 1

let eval_bitop op a b =
  let open Itv in
  if is_bot a || is_bot b then Bot
  else
    match (finite_lo a, finite_hi a, finite_lo b, finite_hi b) with
    | Some al, Some ah, Some bl, Some bh when al >= 0 && bl >= 0 -> (
      match op with
      | Ast.Band -> range 0 (min ah bh)
      | Ast.Bor | Ast.Bxor -> range 0 (next_pow2_mask (max ah bh))
      | _ -> top)
    | _ -> top

let eval_shift op a b =
  let open Itv in
  if is_bot a || is_bot b then Bot
  else
    match (op, finite_lo b, finite_hi b) with
    | Ast.Shl, Some k, Some k' when k = k' && k >= 0 && k < 62 ->
      mul a (const (1 lsl k))
    | Ast.Shr, Some k, _ when k >= 0 -> (
      match (finite_lo a, finite_hi a) with
      | Some l, Some h when l >= 0 -> range 0 (h asr k)
      | _ -> top)
    | _ -> top

let eval_binop op a b =
  match op with
  | Ast.Add -> Itv.add a b
  | Ast.Sub -> Itv.sub a b
  | Ast.Mul -> Itv.mul a b
  | Ast.Div -> eval_div a b
  | Ast.Mod -> eval_rem a b
  | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge | Ast.Eq | Ast.Ne -> eval_cmp op a b
  | Ast.Land | Ast.Lor ->
    if Itv.is_bot a || Itv.is_bot b then Itv.Bot else Itv.range 0 1
  | Ast.Band | Ast.Bor | Ast.Bxor -> eval_bitop op a b
  | Ast.Shl | Ast.Shr -> eval_shift op a b

(* truncating casts: pass the value through when it already fits, else
   fall back to the target's representable range (covers both signedness
   interpretations of the stored bits) *)
let eval_cast env_ty to_ty v =
  let open Itv in
  match Ty.resolve env_ty to_ty with
  | Ty.Char -> if within v ~lo:(-128) ~hi:127 then v else range (-128) 255
  | Ty.Int ->
    if within v ~lo:(-0x4000_0000 * 2) ~hi:0x7fff_ffff then v
    else range (-0x4000_0000 * 2) 0xffff_ffff
  | Ty.Long -> v
  | _ -> top

(* -- Branch-condition refinement ----------------------------------------- *)

let negate_cmp = function
  | Ast.Lt -> Ast.Ge
  | Ast.Le -> Ast.Gt
  | Ast.Gt -> Ast.Le
  | Ast.Ge -> Ast.Lt
  | Ast.Eq -> Ast.Ne
  | Ast.Ne -> Ast.Eq
  | op -> op

let flip_cmp = function
  | Ast.Lt -> Ast.Gt
  | Ast.Le -> Ast.Ge
  | Ast.Gt -> Ast.Lt
  | Ast.Ge -> Ast.Le
  | op -> op

(* interval to meet into [a] given that [a op b] holds *)
let refine_cmp op b =
  let open Itv in
  match op with
  | Ast.Lt -> Iv (MInf, badd ~inf:PInf (match b with Bot -> PInf | Iv (_, h) -> h) (Fin (-1)))
  | Ast.Le -> Iv (MInf, (match b with Bot -> PInf | Iv (_, h) -> h))
  | Ast.Gt -> Iv (badd ~inf:MInf (match b with Bot -> MInf | Iv (l, _) -> l) (Fin 1), PInf)
  | Ast.Ge -> Iv ((match b with Bot -> MInf | Iv (l, _) -> l), PInf)
  | Ast.Eq -> b
  | _ -> top

(* endpoint trim for [a != k] with singleton k *)
let refine_ne a b =
  let open Itv in
  match (a, b) with
  | Iv (l, h), Iv (Fin k, Fin k') when k = k' ->
    if l = Fin k then norm (Fin (k + 1)) h
    else if h = Fin k then norm l (Fin (k - 1))
    else a
  | _ -> a

(* refinements implied by boolean [v] holding with [pol]arity, as a list
   of (key, interval-to-meet).  Mirrors Phase 2's cond_constraints,
   including the short-circuit phi shapes lowered from && and ||. *)
let rec refine_cond ctx v pol depth : (key * Itv.t) list =
  if depth > 8 then []
  else
    match v with
    | Ir.Vreg id -> (
      let self =
        if pol then
          (* truthy: non-convex in general; usable when the sign is known *)
          let cur = lookup ctx (Kvid id) in
          if Itv.leq cur (Itv.Iv (Itv.Fin 0, Itv.PInf)) then
            [ (Kvid id, Itv.Iv (Itv.Fin 1, Itv.PInf)) ]
          else []
        else [ (Kvid id, Itv.const 0) ]
      in
      match Hashtbl.find_opt ctx.defs id with
      | Some (Ir.Def_instr ({ idesc = Ir.Binop { op; lhs; rhs; _ }; _ }, _)) -> (
        match (op, lhs, rhs) with
        | Ast.Ne, x, Ir.Vint (0L, _) -> self @ refine_cond ctx x pol (depth + 1)
        | Ast.Eq, x, Ir.Vint (0L, _) -> self @ refine_cond ctx x (not pol) (depth + 1)
        | (Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge | Ast.Eq | Ast.Ne), _, _ ->
          let op = if pol then op else negate_cmp op in
          let li = eval_value ctx lhs and ri = eval_value ctx rhs in
          let refine_side side_v other_itv op =
            match key_of_value side_v with
            | None -> []
            | Some k ->
              let cur = eval_value ctx side_v in
              let r =
                if op = Ast.Ne then refine_ne cur other_itv
                else Itv.meet cur (refine_cmp op other_itv)
              in
              [ (k, r) ]
          in
          self @ refine_side lhs ri op @ refine_side rhs li (flip_cmp op)
        | _ -> self)
      | Some (Ir.Def_instr ({ idesc = Ir.Unop { uop = Ast.Lnot; operand; _ }; _ }, _)) ->
        self @ refine_cond ctx operand (not pol) (depth + 1)
      | Some (Ir.Def_phi (p, pblk)) -> (
        (* short-circuit shapes (see Phase2.cond_constraints) *)
        match p.Ir.incoming with
        | [ (b1, v1); (b2, v2) ] -> (
          let classify (ba, va) (br, vr) =
            match ((Ir.block ctx.func ba).Ir.termin, va) with
            | Ir.Cbr (Ir.Vreg c, tb, eb), Ir.Vreg vc when vc = c && tb <> eb ->
              if eb = pblk && tb = br then Some (`And, c, vr)
              else if tb = pblk && eb = br then Some (`Or, c, vr)
              else None
            | _ -> None
          in
          let shape =
            match classify (b1, v1) (b2, v2) with
            | Some s -> Some s
            | None -> classify (b2, v2) (b1, v1)
          in
          match shape with
          | Some (`And, c, vr) when pol ->
            self
            @ refine_cond ctx (Ir.Vreg c) true (depth + 1)
            @ refine_cond ctx vr true (depth + 1)
          | Some (`Or, c, vr) when not pol ->
            self
            @ refine_cond ctx (Ir.Vreg c) false (depth + 1)
            @ refine_cond ctx vr false (depth + 1)
          | _ -> self)
        | _ -> self)
      | _ -> self)
    | Ir.Vparam p ->
      if pol then []
      else [ (Kparam p, Itv.const 0) ]
    | _ -> []

(* -- CFG fixpoint -------------------------------------------------------- *)

let edge_feasible ctx pred_blk succ =
  match pred_blk.Ir.termin with
  | Ir.Cbr (c, tb, eb) when tb <> eb ->
    let cv = eval_value ctx c in
    if Itv.is_bot cv then false
    else if succ = tb then not (Itv.is_zero cv)
    else if succ = eb then not (Itv.excludes_zero cv)
    else true
  | _ -> true

(* Conditions that decide control ever reaching the end of [blk]: climb
   the chain of single-predecessor blocks (the lowering's empty branch
   arms forward straight to the join, so the deciding [Cbr] usually sits
   one or more blocks above the phi's direct predecessor).  Each
   single-predecessor step means the edge into the block dominates it,
   so its branch refinement is valid.  Depth-capped: a self-looping
   single-predecessor block would otherwise climb forever. *)
let chain_refinements ctx blk =
  let rec climb current n acc =
    if n = 0 then acc
    else
      match Hashtbl.find_opt ctx.preds current with
      | Some [ p ] -> (
        match Ir.block_opt ctx.func p with
        | Some pp ->
          let acc =
            match pp.Ir.termin with
            | Ir.Cbr (c, tb, eb) when tb <> eb && (current = tb || current = eb) ->
              refine_cond ctx c (current = tb) 0 @ acc
            | _ -> acc
          in
          climb p (n - 1) acc
        | None -> acc)
      | _ -> acc
  in
  climb blk 8 []

let eval_phi ctx b (p : Ir.phi) =
  List.fold_left
    (fun acc (pred, v) ->
      match Ir.block_opt ctx.func pred with
      | None -> acc
      | Some pb ->
        if not (Hashtbl.mem ctx.reach pred) then acc
        else if not (edge_feasible ctx pb b.Ir.bbid) then acc
        else
          let base = eval_value ctx v in
          let refs =
            (match pb.Ir.termin with
            | Ir.Cbr (c, tb, eb) when tb <> eb ->
              refine_cond ctx c (b.Ir.bbid = tb) 0
            | _ -> [])
            @ chain_refinements ctx pred
          in
          let refined =
            match key_of_value v with
            | None -> base
            | Some k ->
              List.fold_left
                (fun acc' (k', itv) -> if k' = k then Itv.meet acc' itv else acc')
                base refs
          in
          Itv.join acc refined)
    Itv.Bot p.Ir.incoming

let eval_instr ctx env_ty (i : Ir.instr) =
  match i.Ir.idesc with
  | Ir.Binop { op; lhs; rhs; _ } ->
    eval_binop op (eval_value ctx lhs) (eval_value ctx rhs)
  | Ir.Unop { uop = Ast.Neg; operand; _ } -> Itv.neg (eval_value ctx operand)
  | Ir.Unop { uop = Ast.Lnot; operand; _ } ->
    let v = eval_value ctx operand in
    if Itv.is_bot v then Itv.Bot
    else if Itv.is_zero v then Itv.const 1
    else if Itv.excludes_zero v then Itv.const 0
    else Itv.range 0 1
  | Ir.Unop { uop = Ast.Bnot; _ } -> Itv.top
  | Ir.Cast { to_ty; cval; from_ty } ->
    if Ty.is_integer (Ty.resolve env_ty from_ty) || Ty.is_pointer (Ty.resolve env_ty from_ty)
    then eval_cast env_ty to_ty (eval_value ctx cval)
    else Itv.top
  | Ir.Call { callee; _ } -> ctx.ret_of callee
  | Ir.Load _ | Ir.Alloca _ | Ir.Gep _ | Ir.Store _ | Ir.Annotation _ -> Itv.top

let widen_delay = 3
let max_ascending = 100

let run_function ~(prog : Ir.program) ~params ~ret_of (f : Ir.func) : func_summary =
  let ctx =
    {
      func = f;
      defs = Ir.def_table f;
      preds = Ir.predecessors f;
      env = Hashtbl.create 64;
      params;
      ret_of;
      reach = Hashtbl.create 16;
      iters = 0;
      widens = 0;
    }
  in
  let rpo = Ir.reverse_postorder f in
  let blocks = List.filter_map (Ir.block_opt f) rpo in
  Hashtbl.replace ctx.reach f.Ir.fentry ();
  let set k v changed =
    let old = lookup ctx k in
    if not (Itv.equal old v) then begin
      Hashtbl.replace ctx.env k v;
      changed := true
    end
  in
  let pass ~widening ~narrowing =
    let changed = ref false in
    List.iter
      (fun b ->
        if Hashtbl.mem ctx.reach b.Ir.bbid then begin
          List.iter
            (fun p ->
              let nv = eval_phi ctx b p in
              let old = lookup ctx (Kvid p.Ir.pid) in
              let nv =
                if narrowing then Itv.narrow old nv
                else if widening && not (Itv.leq nv old) then begin
                  let w = Itv.widen old (Itv.join old nv) in
                  if not (Itv.equal w old) then ctx.widens <- ctx.widens + 1;
                  w
                end
                else Itv.join old nv
              in
              set (Kvid p.Ir.pid) nv changed)
            b.Ir.phis;
          List.iter
            (fun i ->
              if Ir.defines i then
                set (Kvid i.Ir.iid) (eval_instr ctx prog.Ir.env i) changed)
            b.Ir.instrs;
          List.iter
            (fun s ->
              if edge_feasible ctx b s && not (Hashtbl.mem ctx.reach s) then begin
                Hashtbl.replace ctx.reach s ();
                changed := true
              end)
            (Ir.succs_of_term b.Ir.termin)
        end)
      blocks;
    ctx.iters <- ctx.iters + 1;
    !changed
  in
  (* ascending chain with delayed widening at phis *)
  let rec ascend n =
    if n < max_ascending && pass ~widening:(n >= widen_delay) ~narrowing:false then
      ascend (n + 1)
  in
  ascend 0;
  (* two descending (narrowing) passes recover precision lost to widening *)
  ignore (pass ~widening:false ~narrowing:true);
  ignore (pass ~widening:false ~narrowing:true);
  (* return range: join over reachable ret blocks *)
  let ret =
    List.fold_left
      (fun acc b ->
        if not (Hashtbl.mem ctx.reach b.Ir.bbid) then acc
        else
          match b.Ir.termin with
          | Ir.Ret (Some v) -> Itv.join acc (eval_value ctx v)
          | _ -> acc)
      Itv.Bot blocks
  in
  let ret_raw = ret in
  let ret = if Itv.is_bot ret then Itv.top else ret in
  (* decided two-way branches in reachable blocks *)
  let dead =
    List.filter_map
      (fun b ->
        if not (Hashtbl.mem ctx.reach b.Ir.bbid) then None
        else
          match b.Ir.termin with
          | Ir.Cbr (c, tb, eb) when tb <> eb ->
            let cv = eval_value ctx c in
            if Itv.is_zero cv then Some (b.Ir.bbid, Dead_then)
            else if Itv.excludes_zero cv then Some (b.Ir.bbid, Dead_else)
            else None
          | _ -> None)
      blocks
    |> List.sort compare
  in
  let env_list =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) ctx.env [] |> List.sort compare
  in
  {
    s_env = env_list;
    s_params = params;
    s_ret = ret;
    s_ret_raw = ret_raw;
    s_dead = dead;
    s_iters = ctx.iters;
    s_widen = ctx.widens;
  }

(* -- Interprocedural driver ---------------------------------------------- *)

let env_table s =
  let env = Hashtbl.create (List.length s.s_env) in
  List.iter (fun (k, v) -> Hashtbl.replace env k v) s.s_env;
  env

let analyze (prog : Ir.program) : t =
  let find = Ir.func_index prog in
  let defined n = Option.get (find n) in
  (* call graph over defined functions, plus call-site counts: entry
     points (never called) keep ⊤ parameters *)
  let callees = Hashtbl.create 16 in
  let ncallers = Hashtbl.create 16 in
  let scc =
        List.iter
          (fun f ->
            let cs =
              List.filter_map
                (fun (i : Ir.instr) ->
                  match i.Ir.idesc with
                  | Ir.Call { callee; _ } when find callee <> None -> Some callee
                  | _ -> None)
                (Ir.all_instrs f)
              |> List.sort_uniq compare
            in
            Hashtbl.replace callees f.Ir.fname cs;
            List.iter
              (fun c ->
                Hashtbl.replace ncallers c
                  (1 + Option.value ~default:0 (Hashtbl.find_opt ncallers c)))
              cs)
          prog.Ir.funcs;
        let succs n = Option.value ~default:[] (Hashtbl.find_opt callees n) in
        Dataflow.Scc.compute (List.map (fun f -> f.Ir.fname) prog.Ir.funcs) succs
  in
  let succs n = Option.value ~default:[] (Hashtbl.find_opt callees n) in
  let rets = Hashtbl.create 16 in
  let ret_of callee =
    match Hashtbl.find_opt rets callee with Some i -> i | None -> Itv.top
  in
  let analyze_one f ~params = run_function ~prog ~params ~ret_of f in
  let top_params f = List.map (fun (p, _) -> (p, Itv.top)) f.Ir.fparams in
  (* pass 1, bottom-up: return summaries under unconstrained parameters *)
  List.iter
    (List.iter (fun n ->
         let f = defined n in
         let s = analyze_one f ~params:(top_params f) in
         Hashtbl.replace rets n s.s_ret))
    (Dataflow.Scc.reverse_topological scc);
  (* pass 2, top-down: join call-site argument ranges into parameters *)
  let summaries = Hashtbl.create 16 in
  let arg_join : (string, Itv.t array) Hashtbl.t = Hashtbl.create 16 in
  let record_call caller_env (i : Ir.instr) =
    match i.Ir.idesc with
    | Ir.Call { callee; args; _ } when find callee <> None ->
      let g = defined callee in
      let nparams = List.length g.Ir.fparams in
      let acc =
        match Hashtbl.find_opt arg_join callee with
        | Some a -> a
        | None ->
          let a = Array.make nparams Itv.Bot in
          Hashtbl.replace arg_join callee a;
          a
      in
      List.iteri
        (fun j a ->
          if j < nparams then
            let itv =
              match a with
              | Ir.Vint (n, _) -> itv_of_int64 n
              | Ir.Vreg id ->
                Option.value ~default:Itv.top (Hashtbl.find_opt caller_env (Kvid id))
              | Ir.Vparam _ | Ir.Vfloat _ | Ir.Vglobal _ | Ir.Vstr _ | Ir.Vundef _ ->
                Itv.top
            in
            acc.(j) <- Itv.join acc.(j) itv)
        args
    | _ -> ()
  in
  (* a Vparam argument's range depends on the caller's own parameters; use
     ⊤ above for simplicity — still sound, rarely binding in practice *)
  List.iter
    (List.iter (fun n ->
         let f = defined n in
         let params =
               if Dataflow.Scc.in_cycle scc succs n || not (Hashtbl.mem ncallers n) then
                 top_params f
               else
                 match Hashtbl.find_opt arg_join n with
                 | None -> top_params f
                 | Some a ->
                   List.mapi
                     (fun j (p, _) ->
                       let itv = if j < Array.length a then a.(j) else Itv.top in
                       (* a callee listed in ncallers has >= 1 recorded site,
                          but guard against Bot from unreachable call sites *)
                       (p, if Itv.is_bot itv then Itv.top else itv))
                     f.Ir.fparams
         in
         let s = analyze_one f ~params in
         Hashtbl.replace summaries n s;
         let env = env_table s in
         List.iter (record_call env) (Ir.all_instrs f)))
    (Dataflow.Scc.topological scc);
  { prog; summaries }

(* -- Accessors ----------------------------------------------------------- *)

let iterations t =
  Hashtbl.fold (fun _ s acc -> acc + s.s_iters) t.summaries 0

let dead_branch t ~fname ~bid =
  match Hashtbl.find_opt t.summaries fname with
  | None -> None
  | Some s -> List.assoc_opt bid s.s_dead

(* -- Query context (dominator-refined ranges at a program point) --------- *)

type qctx = {
  q_t : t;
  q_func : Ir.func;
  q_defs : (Ir.vid, Ir.def_site) Hashtbl.t;
  q_dom : Ssair.Dom.tree;
  q_preds : (Ir.bid, Ir.bid list) Hashtbl.t;
  q_env : (key, Itv.t) Hashtbl.t;
  q_params : (string * Itv.t) list;
}

let query_ctx t (f : Ir.func) =
  let env, params =
    match Hashtbl.find_opt t.summaries f.Ir.fname with
    | Some s -> (env_table s, s.s_params)
    | None -> (Hashtbl.create 0, [])
  in
  {
    q_t = t;
    q_func = f;
    q_defs = Ir.def_table f;
    q_dom = Ssair.Dom.compute f;
    q_preds = Ir.predecessors f;
    q_env = env;
    q_params = params;
  }

let qctx_as_fctx q =
  {
    func = q.q_func;
    defs = q.q_defs;
    preds = q.q_preds;
    env = q.q_env;
    params = q.q_params;
    ret_of = (fun _ -> Itv.top);
    reach = Hashtbl.create 0;
    iters = 0;
    widens = 0;
  }

(* branch refinements from conditions dominating [bid]; mirrors Phase 2's
   dominating_constraints (edge dominance via single-predecessor test) *)
let dominating_refinements q bid =
  let ctx = qctx_as_fctx q in
  let single_pred blk from =
    match Hashtbl.find_opt q.q_preds blk with Some [ p ] -> p = from | _ -> false
  in
  let rec climb child acc =
    match Ssair.Dom.idom q.q_dom child with
    | None -> acc
    | Some parent when parent = child -> acc
    | Some parent ->
      let acc =
        match (Ir.block q.q_func parent).Ir.termin with
        | Ir.Cbr (c, tb, eb) when tb <> eb -> (
          let polarity =
            if child = tb && single_pred child parent then Some true
            else if child = eb && single_pred child parent then Some false
            else None
          in
          match polarity with
          | None -> acc
          | Some pol -> refine_cond ctx c pol 0 @ acc)
        | _ -> acc
      in
      climb parent acc
  in
  climb bid []

let range_of_key q ~at k =
  let base =
    match k with
    | Kvid id -> Option.value ~default:Itv.Bot (Hashtbl.find_opt q.q_env (Kvid id))
    | Kparam p ->
      (match List.assoc_opt p q.q_params with Some i -> i | None -> Itv.top)
  in
  List.fold_left
    (fun acc (k', itv) -> if k' = k then Itv.meet acc itv else acc)
    base (dominating_refinements q at)

let range_of_value q ~at v =
  match v with
  | Ir.Vint (n, _) -> itv_of_int64 n
  | Ir.Vreg id -> range_of_key q ~at (Kvid id)
  | Ir.Vparam p -> range_of_key q ~at (Kparam p)
  | Ir.Vfloat _ | Ir.Vglobal _ | Ir.Vstr _ | Ir.Vundef _ -> Itv.top

(* -- Summary views (certificate emission) -------------------------------- *)

let summary_views t =
  Hashtbl.fold
    (fun name s acc ->
      let env =
        List.filter_map
          (function Kvid id, v -> Some (id, v) | Kparam _, _ -> None)
          s.s_env
      in
      {
        Absint.sv_func = name;
        sv_params = s.s_params;
        sv_ret = s.s_ret;
        sv_ret_raw = s.s_ret_raw;
        sv_env = env;
      }
      :: acc)
    t.summaries []
  |> List.sort (fun (a : Absint.summary_view) b -> compare a.sv_func b.sv_func)
