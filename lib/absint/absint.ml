(* Interprocedural value-range abstract interpretation over the SSA IR.
   See absint.mli for the contract. *)

open Minic

(* -- Interval domain ---------------------------------------------------- *)

module Itv = struct
  type bound = MInf | Fin of int | PInf

  type t = Bot | Iv of bound * bound

  let top = Iv (MInf, PInf)
  let bot = Bot

  (* bound comparison: MInf < Fin _ < PInf *)
  let bcmp a b =
    match (a, b) with
    | MInf, MInf | PInf, PInf -> 0
    | MInf, _ -> -1
    | _, MInf -> 1
    | PInf, _ -> 1
    | _, PInf -> -1
    | Fin x, Fin y -> if x < y then -1 else if x > y then 1 else 0

  let beq a b =
    match (a, b) with
    | MInf, MInf | PInf, PInf -> true
    | Fin x, Fin y -> x = y
    | _ -> false

  let bmin a b = if bcmp a b <= 0 then a else b
  let bmax a b = if bcmp a b >= 0 then a else b

  let norm lo hi = if bcmp lo hi > 0 then Bot else Iv (lo, hi)

  let const n =
    let b = Fin n in
    Iv (b, b)

  let range lo hi = norm (Fin lo) (Fin hi)

  let is_bot = function Bot -> true | Iv _ -> false

  let equal a b =
    match (a, b) with
    | Bot, Bot -> true
    | Iv (l1, h1), Iv (l2, h2) -> beq l1 l2 && beq h1 h2
    | _ -> false

  let leq a b =
    match (a, b) with
    | Bot, _ -> true
    | _, Bot -> false
    | Iv (l1, h1), Iv (l2, h2) -> bcmp l2 l1 <= 0 && bcmp h1 h2 <= 0

  (* [join] and [meet] return an argument itself when it is the result,
     so a fixpoint that has settled allocates nothing for them *)
  let join a b =
    match (a, b) with
    | Bot, x | x, Bot -> x
    | Iv (l1, h1), Iv (l2, h2) ->
      let lo = bmin l1 l2 and hi = bmax h1 h2 in
      if lo == l1 && hi == h1 then a else if lo == l2 && hi == h2 then b else Iv (lo, hi)

  let meet a b =
    match (a, b) with
    | Bot, _ | _, Bot -> Bot
    | Iv (l1, h1), Iv (l2, h2) ->
      let lo = bmax l1 l2 and hi = bmin h1 h2 in
      if lo == l1 && hi == h1 then a
      else if lo == l2 && hi == h2 then b
      else norm lo hi

  (* [widen old next]: a bound that moved since [old] jumps to infinity *)
  let widen a b =
    match (a, b) with
    | Bot, x | x, Bot -> x
    | Iv (l1, h1), Iv (l2, h2) ->
      let lo = if bcmp l2 l1 < 0 then MInf else l1 in
      let hi = if bcmp h2 h1 > 0 then PInf else h1 in
      Iv (lo, hi)

  (* [narrow old next]: refine only the infinite bounds of [old] *)
  let narrow a b =
    match (a, b) with
    | Bot, _ -> Bot
    | _, Bot -> Bot
    | Iv (l1, h1), Iv (l2, h2) ->
      let lo = match l1 with MInf -> l2 | _ -> l1 in
      let hi = match h1 with PInf -> h2 | _ -> h1 in
      norm lo hi

  (* saturating bound arithmetic; on mixed infinities the caller picks the
     conservative direction *)
  let badd ~inf a b =
    match (a, b) with
    | MInf, PInf | PInf, MInf -> inf
    | MInf, _ | _, MInf -> MInf
    | PInf, _ | _, PInf -> PInf
    | Fin x, Fin y ->
      let s = x + y in
      if x >= 0 = (y >= 0) && s >= 0 <> (x >= 0) then if x >= 0 then PInf else MInf
      else Fin s

  let bneg = function
    | MInf -> PInf
    | PInf -> MInf
    | Fin x -> if x = min_int then PInf else Fin (-x)

  let bmul a b =
    match (a, b) with
    | Fin 0, _ | _, Fin 0 -> Fin 0
    | MInf, MInf | PInf, PInf -> PInf
    | (MInf | PInf), (MInf | PInf) -> MInf
    | ((MInf | PInf) as i), Fin x | Fin x, ((MInf | PInf) as i) ->
      if x > 0 then i else bneg i
    | Fin x, Fin y ->
      let p = x * y in
      if (x = -1 && y = min_int) || (y = -1 && x = min_int) || p / y <> x then
        if x > 0 = (y > 0) then PInf else MInf
      else Fin p

  let add a b =
    match (a, b) with
    | Bot, _ | _, Bot -> Bot
    | Iv (l1, h1), Iv (l2, h2) -> Iv (badd ~inf:MInf l1 l2, badd ~inf:PInf h1 h2)

  let neg = function Bot -> Bot | Iv (l, h) -> Iv (bneg h, bneg l)

  let sub a b = add a (neg b)

  let mul a b =
    match (a, b) with
    | Bot, _ | _, Bot -> Bot
    | Iv (l1, h1), Iv (l2, h2) ->
      let p1 = bmul l1 l2 and p2 = bmul l1 h2 and p3 = bmul h1 l2 and p4 = bmul h1 h2 in
      Iv (bmin (bmin p1 p2) (bmin p3 p4), bmax (bmax p1 p2) (bmax p3 p4))

  let contains t n =
    match t with
    | Bot -> false
    | Iv (l, h) -> bcmp l (Fin n) <= 0 && bcmp (Fin n) h <= 0

  let is_zero = function Iv (Fin 0, Fin 0) -> true | _ -> false

  let excludes_zero t = (not (is_bot t)) && not (contains t 0)

  let within t ~lo ~hi =
    match t with
    | Bot -> true
    | Iv (l, h) -> bcmp (Fin lo) l <= 0 && bcmp h (Fin hi) <= 0

  let finite_lo = function Iv (Fin l, _) -> Some l | _ -> None
  let finite_hi = function Iv (_, Fin h) -> Some h | _ -> None

  let pp_bound ppf = function
    | MInf -> Fmt.string ppf "-oo"
    | PInf -> Fmt.string ppf "+oo"
    | Fin n -> Fmt.int ppf n

  let pp ppf = function
    | Bot -> Fmt.string ppf "_|_"
    | Iv (MInf, PInf) -> Fmt.string ppf "T"
    | Iv (l, h) when beq l h -> Fmt.pf ppf "[%a]" pp_bound l
    | Iv (l, h) -> Fmt.pf ppf "[%a,%a]" pp_bound l pp_bound h
end

(* -- Summaries ----------------------------------------------------------- *)

type dead = Dead_then | Dead_else

type func_summary = {
  s_env : (Ssair.Ir.vid * Itv.t) list; (* sorted by SSA id *)
  s_params : (string * Itv.t) list;    (* declaration order *)
  s_ret : Itv.t;
  s_ret_raw : Itv.t;  (* pre-promotion join over reachable rets (Bot if none) *)
  s_dead : (Ssair.Ir.bid * dead) list; (* sorted by block id *)
  s_iters : int;
  s_widen : int;
}

type t = {
  index : Ssair.Index.t;
  summaries : func_summary option array;  (* by function index *)
}

(* -- Dense per-function context ------------------------------------------ *)

module Ir = Ssair.Ir

type def = No_def | Dinstr of Ir.instr | Dphi of Ir.phi * Ir.bid

(* Everything one function's fixpoint (or one query context) reads, as
   arrays: blocks and predecessor facts by block id, definitions and the
   environment by SSA id.  Built once per fixpoint and dropped with it. *)
type fctx = {
  func : Ir.func;
  blocks : Ir.block option array;  (* by block id; first definition wins *)
  single_pred : int array;  (* by block id: the only predecessor, or -1 *)
  mutable defs : def array;  (* by SSA id; built on the first lookup *)
  env : Itv.t array;  (* by SSA id; meaningful only where [present] *)
  present : Bytes.t;  (* an absent value is Bot *)
  pnames : string array;  (* the formal parameters, in declaration order *)
  params : Itv.t array;  (* their ranges *)
  ret_of : Ir.vid -> Itv.t;  (* by call instruction: callee return summary (Top for externs) *)
  reach : Bytes.t;  (* by block id *)
  mutable changed : bool;
  mutable iters : int;
  mutable widens : int;
}

let bit_get b i = Bytes.unsafe_get b i <> '\000'
let bit_set b i = Bytes.unsafe_set b i '\001'

(* [f] over the distinct successors of a terminator, in
   [Ir.succs_of_term] order, without building the list for a branch *)
let iter_succs f (t : Ir.term) =
  match t with
  | Ir.Br b -> f b
  | Ir.Cbr (_, tb, eb) ->
    f tb;
    if tb <> eb then f eb
  | Ir.Switch _ -> List.iter f (Ir.succs_of_term t)
  | Ir.Ret _ | Ir.Unreachable -> ()

let make_fctx (f : Ir.func) ~params ~ret_of =
  let max_bid = ref f.Ir.fentry and max_vid = ref (-1) in
  List.iter
    (fun (b : Ir.block) ->
      max_bid := max !max_bid b.Ir.bbid;
      iter_succs (fun s -> max_bid := max !max_bid s) b.Ir.termin;
      List.iter (fun (p : Ir.phi) -> max_vid := max !max_vid p.Ir.pid) b.Ir.phis;
      List.iter
        (fun (i : Ir.instr) -> if Ir.defines i then max_vid := max !max_vid i.Ir.iid)
        b.Ir.instrs)
    f.Ir.blocks;
  let nb = !max_bid + 1 and nv = !max_vid + 1 in
  let blocks = Array.make nb None in
  (* predecessor counts, then the sole predecessor where there is one *)
  let npreds = Array.make nb 0 and single_pred = Array.make nb (-1) in
  List.iter
    (fun (b : Ir.block) ->
      let bid = b.Ir.bbid in
      (match blocks.(bid) with None -> blocks.(bid) <- Some b | Some _ -> ());
      iter_succs
        (fun s ->
          npreds.(s) <- npreds.(s) + 1;
          single_pred.(s) <- (if npreds.(s) = 1 then bid else -1))
        b.Ir.termin)
    f.Ir.blocks;
  {
    func = f;
    blocks;
    single_pred;
    defs = [||];
    env = Array.make nv Itv.Bot;
    present = Bytes.make nv '\000';
    pnames = Array.of_list (List.map fst f.Ir.fparams);
    params;
    ret_of;
    reach = Bytes.make nb '\000';
    changed = false;
    iters = 0;
    widens = 0;
  }

let lookup ctx id =
  if id >= 0 && id < Array.length ctx.env && bit_get ctx.present id then ctx.env.(id)
  else Itv.Bot

(* definition sites are read only by branch refinement, which many
   functions never reach *)
let def_of ctx id =
  if Array.length ctx.defs = 0 && Array.length ctx.env > 0 then begin
    let defs = Array.make (Array.length ctx.env) No_def in
    List.iter
      (fun (b : Ir.block) ->
        List.iter (fun (p : Ir.phi) -> defs.(p.Ir.pid) <- Dphi (p, b.Ir.bbid)) b.Ir.phis;
        List.iter
          (fun (i : Ir.instr) -> if Ir.defines i then defs.(i.Ir.iid) <- Dinstr i)
          b.Ir.instrs)
      ctx.func.Ir.blocks;
    ctx.defs <- defs
  end;
  if id >= 0 && id < Array.length ctx.defs then ctx.defs.(id) else No_def

let block_of ctx bid =
  if bid >= 0 && bid < Array.length ctx.blocks then ctx.blocks.(bid) else None

(* position of the first formal parameter named [p], or -1 *)
let param_index ctx p =
  let n = Array.length ctx.pnames in
  let rec go j = if j = n then -1 else if String.equal ctx.pnames.(j) p then j else go (j + 1) in
  go 0

let int_roundtrips n = Int64.equal (Int64.of_int (Int64.to_int n)) n

(* the intervals of small constants, shared rather than rebuilt at every
   evaluation.  The table stays below the minor heap's largest block: a
   larger one goes to the major heap at start-up, and a short run then
   pays for major collections it would never otherwise do. *)
let small_min = -16
let small_consts = Array.init 240 (fun k -> Itv.const (k + small_min))

let itv_of_int n =
  let k = n - small_min in
  if k >= 0 && k < Array.length small_consts then small_consts.(k) else Itv.const n

let itv_of_int64 n =
  if int_roundtrips n then itv_of_int (Int64.to_int n)
  else if Int64.compare n 0L > 0 then Itv.Iv (Itv.Fin max_int, Itv.PInf)
  else Itv.Iv (Itv.MInf, Itv.Fin min_int)

let eval_value ctx = function
  | Ir.Vint (n, _) -> itv_of_int64 n
  | Ir.Vreg id -> lookup ctx id
  | Ir.Vparam p ->
    let j = param_index ctx p in
    if j >= 0 then ctx.params.(j) else Itv.top
  | Ir.Vfloat _ | Ir.Vglobal _ | Ir.Vstr _ | Ir.Vundef _ -> Itv.top

(* A refinement target as an int: an SSA id, or [-1 - j] for the j-th
   parameter; [no_key] for values no refinement can name. *)
let no_key = min_int

let key_of_value ctx = function
  | Ir.Vreg id -> id
  | Ir.Vparam p ->
    let j = param_index ctx p in
    if j >= 0 then -1 - j else no_key
  | _ -> no_key

let bool_range = Itv.range 0 1

(* interval of [a op b] for a comparison: decided comparisons collapse to
   [0,0]/[1,1], otherwise [0,1] *)
let eval_cmp op a b =
  let open Itv in
  match (a, b) with
  | Bot, _ | _, Bot -> Bot
  | Iv (al, ah), Iv (bl, bh) ->
    let same_point () = beq al ah && beq bl bh && beq al bl && (match al with Fin _ -> true | _ -> false) in
    let always, never =
      match op with
      | Ast.Lt -> (bcmp ah bl < 0, bcmp al bh >= 0)
      | Ast.Le -> (bcmp ah bl <= 0, bcmp al bh > 0)
      | Ast.Gt -> (bcmp al bh > 0, bcmp ah bl <= 0)
      | Ast.Ge -> (bcmp al bh >= 0, bcmp ah bl < 0)
      | Ast.Eq -> (same_point (), is_bot (meet a b))
      | Ast.Ne -> (is_bot (meet a b), same_point ())
      | _ -> (false, false)
    in
    if always then itv_of_int 1 else if never then itv_of_int 0 else bool_range

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
    match b with
    | Iv (Fin k, Fin k') when k = k' && k <> 0 -> (
      match a with
      | Iv (l, h) ->
        let bdiv = function
          | MInf -> if k > 0 then MInf else PInf
          | PInf -> if k > 0 then PInf else MInf
          | Fin x -> Fin (x / k)
        in
        let c1 = bdiv l and c2 = bdiv h in
        Iv (bmin c1 c2, bmax c1 c2)
      | Bot -> Bot)
    | _ -> (
      (* |a / b| <= |a| whenever the division executes *)
      match a with
      | Iv (Fin l, Fin h) ->
        let m = max (abs l) (abs h) in
        range (-m) m
      | _ -> top)

let next_pow2_mask n =
  let rec go m = if m >= n && m > 0 then m else go ((m * 2) + 1) in
  go 1

let eval_bitop op a b =
  let open Itv in
  match (a, b) with
  | Bot, _ | _, Bot -> Bot
  | Iv (Fin al, Fin ah), Iv (Fin bl, Fin bh) when al >= 0 && bl >= 0 -> (
    match op with
    | Ast.Band -> range 0 (min ah bh)
    | Ast.Bor | Ast.Bxor -> range 0 (next_pow2_mask (max ah bh))
    | _ -> top)
  | _ -> top

let eval_shift op a b =
  let open Itv in
  if is_bot a || is_bot b then Bot
  else
    match (op, b) with
    | Ast.Shl, Iv (Fin k, Fin k') when k = k' && k >= 0 && k < 62 -> mul a (const (1 lsl k))
    | Ast.Shr, Iv (Fin k, _) when k >= 0 -> (
      match a with
      | Iv (Fin l, Fin h) when l >= 0 -> range 0 (h asr k)
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
  | Ast.Land | Ast.Lor -> if Itv.is_bot a || Itv.is_bot b then Itv.Bot else bool_range
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
    if beq l (Fin k) then norm (Fin (k + 1)) h
    else if beq h (Fin k) then norm l (Fin (k - 1))
    else a
  | _ -> a

let nonneg = Itv.Iv (Itv.Fin 0, Itv.PInf)
let positive = Itv.Iv (Itv.Fin 1, Itv.PInf)
let zero = itv_of_int 0

(* [acc] met with every refinement of [key] implied by boolean [v]
   holding with [pol]arity.  Mirrors Phase 2's cond_constraints,
   including the short-circuit phi shapes lowered from && and ||.  Meet
   is associative and commutative, so the refinements of one key can be
   folded in any order. *)
let rec refine ctx key v pol depth acc =
  if depth > 8 then acc
  else
    match v with
    | Ir.Vreg id -> (
      let acc =
        if id <> key then acc
        else if pol then
          (* truthy: non-convex in general; usable when the sign is known *)
          if Itv.leq (lookup ctx id) nonneg then Itv.meet acc positive else acc
        else Itv.meet acc zero
      in
      match def_of ctx id with
      | Dinstr { idesc = Ir.Binop { op; lhs; rhs; _ }; _ } -> (
        match (op, lhs, rhs) with
        | Ast.Ne, x, Ir.Vint (0L, _) -> refine ctx key x pol (depth + 1) acc
        | Ast.Eq, x, Ir.Vint (0L, _) -> refine ctx key x (not pol) (depth + 1) acc
        | (Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge | Ast.Eq | Ast.Ne), _, _ ->
          let op = if pol then op else negate_cmp op in
          let side side_v other op acc =
            if key_of_value ctx side_v <> key then acc
            else
              let cur = eval_value ctx side_v and other_itv = eval_value ctx other in
              let r =
                match op with
                | Ast.Ne -> refine_ne cur other_itv
                | _ -> Itv.meet cur (refine_cmp op other_itv)
              in
              Itv.meet acc r
          in
          side rhs lhs (flip_cmp op) (side lhs rhs op acc)
        | _ -> acc)
      | Dinstr { idesc = Ir.Unop { uop = Ast.Lnot; operand; _ }; _ } ->
        refine ctx key operand (not pol) (depth + 1) acc
      | Dphi ({ Ir.incoming = [ (b1, v1); (b2, v2) ]; _ }, pblk) -> (
        (* short-circuit shapes (see Phase2.cond_constraints) *)
        let classify ba va br vr =
          match (block_of ctx ba, va) with
          | Some { Ir.termin = Ir.Cbr (Ir.Vreg c, tb, eb); _ }, Ir.Vreg vc when vc = c && tb <> eb ->
            if eb = pblk && tb = br then Some (`And, c, vr)
            else if tb = pblk && eb = br then Some (`Or, c, vr)
            else None
          | _ -> None
        in
        let shape =
          match classify b1 v1 b2 v2 with
          | Some s -> Some s
          | None -> classify b2 v2 b1 v1
        in
        match shape with
        | Some (`And, c, vr) when pol ->
          refine ctx key vr true (depth + 1) (refine ctx key (Ir.Vreg c) true (depth + 1) acc)
        | Some (`Or, c, vr) when not pol ->
          refine ctx key vr false (depth + 1) (refine ctx key (Ir.Vreg c) false (depth + 1) acc)
        | _ -> acc)
      | _ -> acc)
    | Ir.Vparam _ ->
      if pol || key_of_value ctx v <> key then acc else Itv.meet acc zero
    | _ -> acc

(* -- CFG fixpoint -------------------------------------------------------- *)

let edge_feasible ctx (pred_blk : Ir.block) succ =
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
let chain_refine ctx key blk acc =
  let rec climb current n acc =
    if n = 0 then acc
    else
      let p = ctx.single_pred.(current) in
      if p < 0 then acc
      else
        match ctx.blocks.(p) with
        | None -> acc
        | Some pp ->
          let acc =
            match pp.Ir.termin with
            | Ir.Cbr (c, tb, eb) when tb <> eb && (current = tb || current = eb) ->
              refine ctx key c (current = tb) 0 acc
            | _ -> acc
          in
          climb p (n - 1) acc
  in
  climb blk 8 acc

(* the join over the feasible incoming edges of a phi in block [bid],
   each value refined by the branches deciding its edge *)
let rec eval_incoming ctx bid acc = function
  | [] -> acc
  | (pred, v) :: rest ->
    let acc =
      match block_of ctx pred with
      | Some pb when bit_get ctx.reach pred && edge_feasible ctx pb bid ->
        let base = eval_value ctx v in
        let key = key_of_value ctx v in
        let refined =
          if key = no_key then base
          else
            let edge =
              match pb.Ir.termin with
              | Ir.Cbr (c, tb, eb) when tb <> eb -> refine ctx key c (bid = tb) 0 base
              | _ -> base
            in
            chain_refine ctx key pred edge
        in
        Itv.join acc refined
      | _ -> acc
    in
    eval_incoming ctx bid acc rest

let eval_instr ctx env_ty (i : Ir.instr) =
  match i.Ir.idesc with
  | Ir.Binop { op; lhs; rhs; _ } ->
    eval_binop op (eval_value ctx lhs) (eval_value ctx rhs)
  | Ir.Unop { uop = Ast.Neg; operand; _ } -> Itv.neg (eval_value ctx operand)
  | Ir.Unop { uop = Ast.Lnot; operand; _ } ->
    let v = eval_value ctx operand in
    if Itv.is_bot v then Itv.Bot
    else if Itv.is_zero v then itv_of_int 1
    else if Itv.excludes_zero v then itv_of_int 0
    else bool_range
  | Ir.Unop { uop = Ast.Bnot; _ } -> Itv.top
  | Ir.Cast { to_ty; cval; from_ty } ->
    let from = Ty.resolve env_ty from_ty in
    if Ty.is_integer from || Ty.is_pointer from then eval_cast env_ty to_ty (eval_value ctx cval)
    else Itv.top
  | Ir.Call _ -> ctx.ret_of i.Ir.iid
  | Ir.Load _ | Ir.Alloca _ | Ir.Gep _ | Ir.Store _ | Ir.Annotation _ -> Itv.top

(* the reachable blocks in reverse postorder, and whether any edge
   between them retreats (goes to a block not later in the order): a
   function without one has no loop, so one pass in this order is its
   fixpoint *)
let rpo_blocks ctx =
  let nb = Array.length ctx.blocks in
  let order = Array.make nb (-1) in
  let post = ref [] in
  let rec dfs bid =
    order.(bid) <- 0;
    (match ctx.blocks.(bid) with
    | Some b -> iter_succs (fun s -> if order.(s) < 0 then dfs s) b.Ir.termin
    | None -> ());
    match ctx.blocks.(bid) with Some b -> post := b :: !post | None -> ()
  in
  dfs ctx.func.Ir.fentry;
  let blocks = Array.of_list !post in
  Array.fill order 0 nb (-1);
  Array.iteri (fun k (b : Ir.block) -> order.(b.Ir.bbid) <- k) blocks;
  let retreats = ref false in
  Array.iter
    (fun (b : Ir.block) ->
      let k = order.(b.Ir.bbid) in
      iter_succs (fun s -> if order.(s) >= 0 && order.(s) <= k then retreats := true) b.Ir.termin)
    blocks;
  (blocks, !retreats)

(* store [v] as the range of [id]; absence already means Bot *)
let set ctx id v =
  if bit_get ctx.present id then begin
    if not (Itv.equal ctx.env.(id) v) then begin
      ctx.env.(id) <- v;
      ctx.changed <- true
    end
  end
  else if not (Itv.is_bot v) then begin
    ctx.env.(id) <- v;
    bit_set ctx.present id;
    ctx.changed <- true
  end

let rec update_phis ctx ~widening ~narrowing bid = function
  | [] -> ()
  | (p : Ir.phi) :: rest ->
    let nv = eval_incoming ctx bid Itv.Bot p.Ir.incoming in
    let old = lookup ctx p.Ir.pid in
    let nv =
      if narrowing then Itv.narrow old nv
      else if widening && not (Itv.leq nv old) then begin
        let w = Itv.widen old (Itv.join old nv) in
        if not (Itv.equal w old) then ctx.widens <- ctx.widens + 1;
        w
      end
      else Itv.join old nv
    in
    set ctx p.Ir.pid nv;
    update_phis ctx ~widening ~narrowing bid rest

let rec update_instrs ctx env_ty = function
  | [] -> ()
  | (i : Ir.instr) :: rest ->
    if Ir.defines i then set ctx i.Ir.iid (eval_instr ctx env_ty i);
    update_instrs ctx env_ty rest

let reach_succ ctx (b : Ir.block) s =
  if (not (bit_get ctx.reach s)) && edge_feasible ctx b s then begin
    bit_set ctx.reach s;
    ctx.changed <- true
  end

(* one visit of a block in a pass: its phis, its instructions in order,
   then the successors its branch can take *)
let visit ctx env_ty ~widening ~narrowing (b : Ir.block) =
  if bit_get ctx.reach b.Ir.bbid then begin
    update_phis ctx ~widening ~narrowing b.Ir.bbid b.Ir.phis;
    update_instrs ctx env_ty b.Ir.instrs;
    match b.Ir.termin with
    | Ir.Br s -> reach_succ ctx b s
    | Ir.Cbr (_, tb, eb) ->
      reach_succ ctx b tb;
      if tb <> eb then reach_succ ctx b eb
    | Ir.Switch _ -> List.iter (reach_succ ctx b) (Ir.succs_of_term b.Ir.termin)
    | Ir.Ret _ | Ir.Unreachable -> ()
  end

let widen_delay = 3
let max_ascending = 100

let run_function ~(prog : Ir.program) ~params ~ret_of (f : Ir.func) : func_summary =
  let ctx = make_fctx f ~params:(Array.of_list (List.map snd params)) ~ret_of in
  let blocks, has_loop = rpo_blocks ctx in
  bit_set ctx.reach f.Ir.fentry;
  let env_ty = prog.Ir.env in
  let pass ~widening ~narrowing =
    ctx.changed <- false;
    for k = 0 to Array.length blocks - 1 do
      visit ctx env_ty ~widening ~narrowing blocks.(k)
    done;
    ctx.iters <- ctx.iters + 1;
    ctx.changed
  in
  if not has_loop then
    (* every block follows all its predecessors: the first pass reads
       only final values, so it is the fixpoint *)
    ignore (pass ~widening:false ~narrowing:false)
  else begin
    (* ascending chain with delayed widening at phis *)
    let rec ascend n =
      if n < max_ascending && pass ~widening:(n >= widen_delay) ~narrowing:false then
        ascend (n + 1)
    in
    ascend 0;
    (* two descending (narrowing) passes recover precision lost to widening *)
    ignore (pass ~widening:false ~narrowing:true);
    ignore (pass ~widening:false ~narrowing:true)
  end;
  (* return range and decided two-way branches, over reachable blocks *)
  let ret = ref Itv.Bot and dead = ref [] in
  Array.iter
    (fun (b : Ir.block) ->
      if bit_get ctx.reach b.Ir.bbid then
        match b.Ir.termin with
        | Ir.Ret (Some v) -> ret := Itv.join !ret (eval_value ctx v)
        | Ir.Cbr (c, tb, eb) when tb <> eb ->
          let cv = eval_value ctx c in
          if Itv.is_zero cv then dead := (b.Ir.bbid, Dead_then) :: !dead
          else if Itv.excludes_zero cv then dead := (b.Ir.bbid, Dead_else) :: !dead
        | _ -> ())
    blocks;
  let env = ref [] in
  for id = Array.length ctx.env - 1 downto 0 do
    if bit_get ctx.present id then env := (id, ctx.env.(id)) :: !env
  done;
  {
    s_env = !env;
    s_params = params;
    s_ret = (if Itv.is_bot !ret then Itv.top else !ret);
    s_ret_raw = !ret;
    s_dead = List.sort (fun (a, _) (b, _) -> Int.compare a b) !dead;
    s_iters = ctx.iters;
    s_widen = ctx.widens;
  }

(* -- Interprocedural driver ---------------------------------------------- *)

type span_probe = { span : 'a. string -> (unit -> 'a) -> 'a }

let no_span = { span = (fun _ f -> f ()) }

let analyze ?on_fixpoint ?(span = no_span) (index : Ssair.Index.t) : t =
  let prog = index.Ssair.Index.prog and funcs = index.Ssair.Index.funcs in
  let n = Array.length funcs in
  (* call graph over defined functions: distinct callees sorted by name,
     call sites, and call-site counts (entry points, never called, keep
     ⊤ parameters) *)
  let callees = Array.make n [||] and calls = Array.make n [] in
  let ncallers = Array.make n 0 and cyclic = Array.make n false in
  let comps =
    span.span "absint.bookkeeping" (fun () ->
        let nodes = ref [] in
        Array.iteri
          (fun i (f : Ir.func) ->
            if Ssair.Index.find index f.Ir.fname = i then begin
              nodes := i :: !nodes;
              let names = ref [] in
              List.iter
                (fun (b : Ir.block) ->
                  List.iter
                    (fun (ins : Ir.instr) ->
                      match ins.Ir.idesc with
                      | Ir.Call { callee; args; _ } ->
                        let j = Ssair.Index.callee index i ins.Ir.iid in
                        if j >= 0 then begin
                          names := callee :: !names;
                          calls.(i) <- (j, args) :: calls.(i)
                        end
                      | _ -> ())
                    b.Ir.instrs)
                f.Ir.blocks;
              let cs = Array.of_list (List.sort_uniq String.compare !names) in
              callees.(i) <- Array.map (Ssair.Index.find index) cs;
              Array.iter (fun c -> ncallers.(c) <- ncallers.(c) + 1) callees.(i)
            end)
          funcs;
        let succs i = Array.to_list callees.(i) in
        let scc = Dataflow.Scc.compute (List.rev !nodes) succs in
        List.iter (fun i -> cyclic.(i) <- Dataflow.Scc.in_cycle scc succs i) !nodes;
        Dataflow.Scc.reverse_topological scc)
  in
  let on_fixpoint =
    match on_fixpoint with
    | Some h -> h
    | None -> fun ~fname:_ ~params:_ ~callee_rets:_ compute -> compute ()
  in
  let rets = Array.make n Itv.top in
  (* the return range of the callee of call [iid] of function [i] *)
  let ret_of i iid =
    let j = Ssair.Index.callee index i iid in
    if j >= 0 then rets.(j) else Itv.top
  in
  (* each function's last fixpoint with the parameter and callee-return
     ranges it was computed from.  The fixpoint is a pure function of
     those and the program, so pass 2 reuses a pass-1 result whose
     ranges are unchanged *)
  let last = Array.make n None in
  let same_params a b = List.for_all2 (fun (_, x) (_, y) -> Itv.equal x y) a b in
  let analyze_one i ~params =
    let f = funcs.(i) in
    let callee_rets = Array.map (fun c -> rets.(c)) callees.(i) in
    match last.(i) with
    | Some (params', callee_rets', s)
      when same_params params' params && Array.for_all2 Itv.equal callee_rets' callee_rets ->
      s
    | _ ->
      let s =
        on_fixpoint ~fname:f.Ir.fname ~params ~callee_rets (fun () ->
            run_function ~prog ~params ~ret_of:(ret_of i) f)
      in
      last.(i) <- Some (params, callee_rets, s);
      s
  in
  let top_params i = List.map (fun (p, _) -> (p, Itv.top)) funcs.(i).Ir.fparams in
  (* pass 1, bottom-up: return summaries under unconstrained parameters *)
  span.span "absint.bookkeeping" (fun () ->
      List.iter
        (List.iter (fun i -> rets.(i) <- (analyze_one i ~params:(top_params i)).s_ret))
        comps);
  (* pass 2, top-down: join call-site argument ranges into parameters *)
  let summaries = Array.make n None in
  let arg_join = Array.make n None in
  let record_calls i (s : func_summary) =
    (* the caller's ranges by SSA id, only while its call sites are
       recorded; an id the fixpoint never stored reads as ⊤ here *)
    let env =
      lazy
        (let size = List.fold_left (fun m (id, _) -> max m (id + 1)) 0 s.s_env in
         let a = Array.make size Itv.top in
         List.iter (fun (id, v) -> a.(id) <- v) s.s_env;
         a)
    in
    List.iter
      (fun (j, args) ->
        let nparams = List.length funcs.(j).Ir.fparams in
        let acc =
          match arg_join.(j) with
          | Some a -> a
          | None ->
            let a = Array.make nparams Itv.Bot in
            arg_join.(j) <- Some a;
            a
        in
        List.iteri
          (fun k a ->
            if k < nparams then
              let itv =
                match a with
                | Ir.Vint (n, _) -> itv_of_int64 n
                | Ir.Vreg id ->
                  let env = Lazy.force env in
                  if id >= 0 && id < Array.length env then env.(id) else Itv.top
                (* a Vparam argument's range depends on the caller's own
                   parameters; ⊤ is still sound and rarely binding *)
                | Ir.Vparam _ | Ir.Vfloat _ | Ir.Vglobal _ | Ir.Vstr _ | Ir.Vundef _ -> Itv.top
              in
              acc.(k) <- Itv.join acc.(k) itv)
          args)
      calls.(i)
  in
  span.span "absint.bookkeeping" (fun () ->
      List.iter
        (List.iter (fun i ->
             let params =
               match arg_join.(i) with
               | Some a when (not cyclic.(i)) && ncallers.(i) > 0 ->
                 List.mapi
                   (fun k (p, _) ->
                     let itv = if k < Array.length a then a.(k) else Itv.top in
                     (* a callee with callers has >= 1 recorded site, but
                        guard against Bot from unreachable call sites *)
                     (p, if Itv.is_bot itv then Itv.top else itv))
                   funcs.(i).Ir.fparams
               | _ -> top_params i
             in
             let s = analyze_one i ~params in
             summaries.(i) <- Some s;
             record_calls i s))
        (List.rev comps));
  { index; summaries }

(* -- Accessors ----------------------------------------------------------- *)

let summaries t = t.summaries

let of_summaries (index : Ssair.Index.t) summaries =
  if Array.length summaries <> Array.length index.Ssair.Index.funcs then
    invalid_arg "Absint.of_summaries: one summary slot per indexed function expected";
  { index; summaries }

let summary t fname =
  let i = Ssair.Index.find t.index fname in
  if i >= 0 then t.summaries.(i) else None

let fold_summaries_i f t init =
  let acc = ref init in
  Array.iteri (fun i s -> match s with Some s -> acc := f i s !acc | None -> ()) t.summaries;
  !acc

let fold_summaries f t init = fold_summaries_i (fun _ s acc -> f s acc) t init

let iterations t = fold_summaries (fun s acc -> acc + s.s_iters) t 0

let widenings t = fold_summaries (fun s acc -> acc + s.s_widen) t 0

let dead_branch t ~fname ~bid =
  match summary t fname with
  | None -> None
  | Some s -> List.assoc_opt bid s.s_dead

let decided_branches t ~fname =
  match summary t fname with None -> [] | Some s -> List.map fst s.s_dead

(* -- Query context (dominator-refined ranges at a program point) --------- *)

type qctx = { q_ctx : fctx; q_dom : Ssair.Dom.tree }

let query_ctx t (f : Ir.func) =
  let s = summary t f.Ir.fname in
  let params =
    Array.of_list
      (List.map
         (fun (p, _) ->
           match s with
           | Some s -> Option.value ~default:Itv.top (List.assoc_opt p s.s_params)
           | None -> Itv.top)
         f.Ir.fparams)
  in
  let ctx = make_fctx f ~params ~ret_of:(fun _ -> Itv.top) in
  Option.iter
    (fun s ->
      List.iter
        (function
          | id, v when id < Array.length ctx.env ->
            ctx.env.(id) <- v;
            bit_set ctx.present id
          | _ -> ())
        s.s_env)
    s;
  { q_ctx = ctx; q_dom = Ssair.Dom.compute f }

(* [base] met with the branch refinements of [key] from conditions
   dominating [bid]; mirrors Phase 2's dominating_constraints (edge
   dominance via single-predecessor test) *)
let dominating_refine q bid key base =
  let ctx = q.q_ctx in
  let rec climb child acc =
    match Ssair.Dom.idom q.q_dom child with
    | None -> acc
    | Some parent when parent = child -> acc
    | Some parent ->
      let acc =
        match block_of ctx parent with
        | Some { Ir.termin = Ir.Cbr (c, tb, eb); _ } when tb <> eb && ctx.single_pred.(child) = parent ->
          if child = tb then refine ctx key c true 0 acc
          else if child = eb then refine ctx key c false 0 acc
          else acc
        | _ -> acc
      in
      climb parent acc
  in
  climb bid base

let range_of_value q ~at v =
  match v with
  | Ir.Vint (n, _) -> itv_of_int64 n
  | Ir.Vreg _ | Ir.Vparam _ ->
    let ctx = q.q_ctx in
    let key = key_of_value ctx v in
    let base = eval_value ctx v in
    if key = no_key then base else dominating_refine q at key base
  | Ir.Vfloat _ | Ir.Vglobal _ | Ir.Vstr _ | Ir.Vundef _ -> Itv.top

(* Phase 2 symbol syntax: "v<id>" for SSA values, "p_<name>" for params *)
let range_of_sym q ~at sym =
  let n = String.length sym in
  if n > 1 && sym.[0] = 'v' then
    match int_of_string_opt (String.sub sym 1 (n - 1)) with
    | Some id when (match def_of q.q_ctx id with No_def -> false | _ -> true) -> Some (range_of_value q ~at (Ir.Vreg id))
    | _ -> None
  else if n > 2 && sym.[0] = 'p' && sym.[1] = '_' then
    let p = String.sub sym 2 (n - 2) in
    if param_index q.q_ctx p >= 0 then Some (range_of_value q ~at (Ir.Vparam p)) else None
  else None

(* -- Pretty-printing ----------------------------------------------------- *)

let pp_func_summary t ppf (f : Ir.func) =
  match summary t f.Ir.fname with
  | None -> Fmt.pf ppf "function %s: no summary@." f.Ir.fname
  | Some s ->
    Fmt.pf ppf "function %s:@." f.Ir.fname;
    if s.s_params <> [] then
      Fmt.pf ppf "  params: %a@."
        Fmt.(list ~sep:comma (fun ppf (p, i) -> Fmt.pf ppf "%s %a" p Itv.pp i))
        s.s_params;
    if not (Ty.equal f.Ir.fret Ty.Void) then Fmt.pf ppf "  ret: %a@." Itv.pp s.s_ret;
    List.iter
      (fun (id, v) -> if not (Itv.equal v Itv.top) then Fmt.pf ppf "  %%%d = %a@." id Itv.pp v)
      s.s_env;
    List.iter
      (fun (bid, d) ->
        Fmt.pf ppf "  b%d: %s branch dead@." bid
          (match d with Dead_then -> "then" | Dead_else -> "else"))
      s.s_dead;
    Fmt.pf ppf "  fixpoint: %d passes, %d widenings@." s.s_iters s.s_widen

(* -- Summary views (certificate emission) -------------------------------- *)

type summary_view = {
  sv_func : string;
  sv_params : (string * Itv.t) list;
  sv_ret : Itv.t;
  sv_ret_raw : Itv.t;
  sv_env : (Ssair.Ir.vid * Itv.t) list;
}

let summary_views t =
  let funcs = t.index.Ssair.Index.funcs in
  fold_summaries_i
    (fun i s acc ->
      {
        sv_func = funcs.(i).Ir.fname;
        sv_params = s.s_params;
        sv_ret = s.s_ret;
        sv_ret_raw = s.s_ret_raw;
        sv_env = s.s_env;
      }
      :: acc)
    t []
  |> List.sort (fun a b -> String.compare a.sv_func b.sv_func)
