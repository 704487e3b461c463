(** Phase 2 (paper §3.3): enforcement of the language restrictions on
    shared-memory pointer usage.

    - P1: shared memory must not be deallocated before the end of [main];
    - P2: shared-memory pointers must not be stored into memory (no
      aliasing through memory);
    - P3: no casts of shared-memory pointers to incompatible pointer types
      or to integers;
    - A1/A2: array indexing within shared memory must be provably in
      bounds; index expressions must be affine in loop induction
      variables.  Affine constraints are generated from dominating branch
      conditions and induction-variable structure and discharged by the
      {!Omega} integer feasibility test.

    Initializing functions (and their callees) are exempt (§3.2.1). *)

open Minic
module Offset = Pointsto.Offset

let dealloc_functions = [ "shmdt"; "shmctl"; "free" ]

(* -- Affine abstraction of integer SSA values -------------------------------- *)

type affine_ctx = {
  func : Ssair.Ir.func;
  defs : (Ssair.Ir.vid, Ssair.Ir.def_site) Hashtbl.t;
  dom : Ssair.Dom.tree;
  memo : (Ssair.Ir.vid, Omega.Linexpr.t option) Hashtbl.t;
  mutable visiting : Ssair.Ir.vid list;  (* cycle guard: phis under expansion *)
  unknowns : (Ssair.Ir.value, string) Hashtbl.t;
      (* distinct unresolvable values -> fresh "u<n>" symbols *)
  mutable n_unknowns : int;
}

let mk_affine_ctx f =
  {
    func = f;
    defs = Ssair.Ir.def_table f;
    dom = Ssair.Dom.compute f;
    memo = Hashtbl.create 32;
    visiting = [];
    unknowns = Hashtbl.create 4;
    n_unknowns = 0;
  }

let sym_of_vid id = Fmt.str "v%d" id
let sym_of_param p = "p_" ^ p

(* Unresolvable values (floats, globals, strings, undef) become fresh
   unconstrained Omega symbols.  These live in their own "u<n>"
   namespace, disjoint from the "v<id>" vid symbols and the "p_<name>"
   parameter symbols: the previous scheme hashed the value into the vid
   space ([sym_of_vid (Hashtbl.hash v land 0xffffff)]), which could
   collide with a real vid — or two distinct unknowns with each other —
   and silently merge independent values into one solver variable.
   Symbols are memoized per value within one [affine_ctx], so repeated
   uses of the same global still share one symbol. *)
let sym_of_unknown ctx (v : Ssair.Ir.value) =
  match Hashtbl.find_opt ctx.unknowns v with
  | Some s -> s
  | None ->
    let s = Fmt.str "u%d" ctx.n_unknowns in
    ctx.n_unknowns <- ctx.n_unknowns + 1;
    Hashtbl.replace ctx.unknowns v s;
    s

(** Affine view of a value: [Some e] when expressible, [None] otherwise
    (opaque values become fresh unconstrained symbols, so the result is
    always [Some]; [None] is reserved for non-integer shapes). *)
let rec affine_of_value ctx (v : Ssair.Ir.value) : Omega.Linexpr.t =
  match v with
  | Ssair.Ir.Vint (n, _) -> Omega.Linexpr.const (Int64.to_int n)
  | Ssair.Ir.Vparam p -> Omega.Linexpr.var (sym_of_param p)
  | Ssair.Ir.Vreg id -> affine_of_vid ctx id
  | Ssair.Ir.Vfloat _ | Ssair.Ir.Vglobal _ | Ssair.Ir.Vstr _ | Ssair.Ir.Vundef _ ->
    Omega.Linexpr.var (sym_of_unknown ctx v)

and affine_of_vid ctx id : Omega.Linexpr.t =
  if List.mem id ctx.visiting then Omega.Linexpr.var (sym_of_vid id)
  else
    match Hashtbl.find_opt ctx.memo id with
    | Some (Some e) -> e
    | Some None -> Omega.Linexpr.var (sym_of_vid id)
    | None ->
      let e =
        match Hashtbl.find_opt ctx.defs id with
        | Some (Ssair.Ir.Def_instr (i, _)) -> (
          match i.Ssair.Ir.idesc with
          | Ssair.Ir.Binop { op = Ast.Add; lhs; rhs; _ } ->
            Omega.Linexpr.add (affine_of_value ctx lhs) (affine_of_value ctx rhs)
          | Ssair.Ir.Binop { op = Ast.Sub; lhs; rhs; _ } ->
            Omega.Linexpr.sub (affine_of_value ctx lhs) (affine_of_value ctx rhs)
          | Ssair.Ir.Binop { op = Ast.Mul; lhs = Ssair.Ir.Vint (n, _); rhs; _ } ->
            Omega.Linexpr.scale (Int64.to_int n) (affine_of_value ctx rhs)
          | Ssair.Ir.Binop { op = Ast.Mul; lhs; rhs = Ssair.Ir.Vint (n, _); _ } ->
            Omega.Linexpr.scale (Int64.to_int n) (affine_of_value ctx lhs)
          | Ssair.Ir.Cast { to_ty; cval; _ }
            when Ty.is_integer to_ty ->
            affine_of_value ctx cval
          | _ -> Omega.Linexpr.var (sym_of_vid id)
          )
        | Some (Ssair.Ir.Def_phi (p, _)) ->
          ignore p;
          Omega.Linexpr.var (sym_of_vid id)
        | None -> Omega.Linexpr.var (sym_of_vid id)
      in
      Hashtbl.replace ctx.memo id (Some e);
      e

(** Constraints from the comparison [lhs op rhs] holding ([polarity] true)
    or failing. *)
let constraint_of_cmp ctx op lhs rhs polarity : Omega.cstr option =
  let a = affine_of_value ctx lhs and b = affine_of_value ctx rhs in
  let open Omega in
  match (op, polarity) with
  | Ast.Lt, true -> Some (lt a b)
  | Ast.Lt, false -> Some (ge a b)
  | Ast.Le, true -> Some (le a b)
  | Ast.Le, false -> Some (gt a b)
  | Ast.Gt, true -> Some (gt a b)
  | Ast.Gt, false -> Some (le a b)
  | Ast.Ge, true -> Some (ge a b)
  | Ast.Ge, false -> Some (lt a b)
  | Ast.Eq, true -> Some (eq a b)
  | Ast.Ne, false -> Some (eq a b)
  | _ -> None

(** Constraints implied by boolean value [id] holding with [pol]arity.
    Unwraps normalizations ((x != 0), (x == 0), !x) and recognizes the
    short-circuit phi patterns produced by lowering [&&] and [||], so that
    compound loop guards like [k >= 0 && k < n] contribute both
    conjuncts. *)
let rec cond_constraints ctx id pol depth : Omega.cstr list =
  if depth > 8 then []
  else
    match Hashtbl.find_opt ctx.defs id with
    | Some (Ssair.Ir.Def_instr ({ idesc = Ssair.Ir.Binop { op; lhs; rhs; _ }; _ }, _)) -> (
      match (op, lhs, rhs) with
      | Ast.Ne, Ssair.Ir.Vreg x, Ssair.Ir.Vint (0L, _) ->
        cond_constraints ctx x pol (depth + 1)
      | Ast.Eq, Ssair.Ir.Vreg x, Ssair.Ir.Vint (0L, _) ->
        cond_constraints ctx x (not pol) (depth + 1)
      | (Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge | Ast.Eq | Ast.Ne), _, _ ->
        Option.to_list (constraint_of_cmp ctx op lhs rhs pol)
      | _ -> [])
    | Some
        (Ssair.Ir.Def_instr
           ({ idesc = Ssair.Ir.Unop { uop = Ast.Lnot; operand = Ssair.Ir.Vreg x; _ }; _ }, _))
      ->
      cond_constraints ctx x (not pol) (depth + 1)
    | Some (Ssair.Ir.Def_phi (p, pblk)) -> (
      (* short-circuit shapes: one incoming edge carries the left operand
         and is the edge taken when the left operand decides the result *)
      match p.Ssair.Ir.incoming with
      | [ (b1, v1); (b2, v2) ] -> (
        let classify (ba, va) (br, vr) =
          (* does [ba] branch on [va] with the phi block as the
             short-circuit target? *)
          match ((Ssair.Ir.block ctx.func ba).Ssair.Ir.termin, va) with
          | Ssair.Ir.Cbr (Ssair.Ir.Vreg c, tb, eb), Ssair.Ir.Vreg vc
            when vc = c && tb <> eb ->
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
        | Some (`And, c, vr) when pol -> (
          (* (a && b) true: both hold *)
          match vr with
          | Ssair.Ir.Vreg r ->
            cond_constraints ctx c true (depth + 1)
            @ cond_constraints ctx r true (depth + 1)
          | _ -> cond_constraints ctx c true (depth + 1))
        | Some (`Or, c, vr) when not pol -> (
          (* (a || b) false: both fail *)
          match vr with
          | Ssair.Ir.Vreg r ->
            cond_constraints ctx c false (depth + 1)
            @ cond_constraints ctx r false (depth + 1)
          | _ -> cond_constraints ctx c false (depth + 1))
        | _ -> [])
      | _ -> [])
    | _ -> []

(** Branch conditions known to hold at [bid]: climb the dominator tree;
    a branch's polarity is known when the chain enters the branch through
    a successor whose only predecessor is the branching block (edge
    dominance). *)
let dominating_constraints ctx bid : Omega.cstr list =
  let preds = Ssair.Ir.predecessors ctx.func in
  let single_pred blk from =
    match Hashtbl.find_opt preds blk with Some [ p ] -> p = from | _ -> false
  in
  let rec climb child acc =
    match Ssair.Dom.idom ctx.dom child with
    | None -> acc
    | Some parent when parent = child -> acc
    | Some parent ->
      let acc =
        match (Ssair.Ir.block ctx.func parent).Ssair.Ir.termin with
        | Ssair.Ir.Cbr (Ssair.Ir.Vreg c, tb, eb) when tb <> eb -> (
          let polarity =
            if child = tb && single_pred child parent then Some true
            else if child = eb && single_pred child parent then Some false
            else None
          in
          match polarity with
          | None -> acc
          | Some pol -> cond_constraints ctx c pol 0 @ acc)
        | _ -> acc
      in
      climb parent acc
  in
  climb bid []

(** Induction constraints for the phi symbols appearing in [e]: a phi
    whose non-phi incomings are affine and whose self-updates all step by
    a non-negative (resp. non-positive) constant is bounded below (resp.
    above) by its initial values. *)
let induction_constraints ctx (e : Omega.Linexpr.t) : Omega.cstr list =
  let cs = ref [] in
  List.iter
    (fun sym ->
      match
        if String.length sym > 1 && sym.[0] = 'v' then int_of_string_opt (String.sub sym 1 (String.length sym - 1))
        else None
      with
      | None -> ()
      | Some id -> (
        match Hashtbl.find_opt ctx.defs id with
        | Some (Ssair.Ir.Def_phi (p, _)) ->
          let steps = ref [] and inits = ref [] and ok = ref true in
          List.iter
            (fun (_, v) ->
              match v with
              | Ssair.Ir.Vreg w -> (
                match Hashtbl.find_opt ctx.defs w with
                | Some
                    (Ssair.Ir.Def_instr
                       ({ idesc = Ssair.Ir.Binop { op; lhs; rhs; _ }; _ }, _)) -> (
                  match (op, lhs, rhs) with
                  | Ast.Add, Ssair.Ir.Vreg x, Ssair.Ir.Vint (c, _) when x = p.Ssair.Ir.pid ->
                    steps := Int64.to_int c :: !steps
                  | Ast.Add, Ssair.Ir.Vint (c, _), Ssair.Ir.Vreg x when x = p.Ssair.Ir.pid ->
                    steps := Int64.to_int c :: !steps
                  | Ast.Sub, Ssair.Ir.Vreg x, Ssair.Ir.Vint (c, _) when x = p.Ssair.Ir.pid ->
                    steps := -Int64.to_int c :: !steps
                  | _ ->
                    ctx.visiting <- p.Ssair.Ir.pid :: ctx.visiting;
                    inits := affine_of_value ctx v :: !inits;
                    ctx.visiting <- List.tl ctx.visiting)
                | _ ->
                  ctx.visiting <- p.Ssair.Ir.pid :: ctx.visiting;
                  inits := affine_of_value ctx v :: !inits;
                  ctx.visiting <- List.tl ctx.visiting)
              | Ssair.Ir.Vint (n, _) -> inits := Omega.Linexpr.const (Int64.to_int n) :: !inits
              | Ssair.Ir.Vparam q -> inits := Omega.Linexpr.var (sym_of_param q) :: !inits
              | _ -> ok := false)
            p.Ssair.Ir.incoming;
          if !ok && !inits <> [] then begin
            let phi_e = Omega.Linexpr.var sym in
            if List.for_all (fun s -> s >= 0) !steps then
              List.iter (fun init -> cs := Omega.ge phi_e init :: !cs) !inits
            else if List.for_all (fun s -> s <= 0) !steps then
              List.iter (fun init -> cs := Omega.le phi_e init :: !cs) !inits
          end
        | _ -> ()))
    (Omega.Linexpr.vars e);
  !cs

(* -- The checker -------------------------------------------------------------- *)

(** How the A1/A2 array-bounds obligations of a run were discharged.  An
    obligation is one (indexing gep, region target) pair with a
    non-constant index.  [bs_ranges] counts obligations proved in bounds
    by the value-range analysis alone (no Omega query), [bs_omega] those
    needing at least one Omega query but reported clean, [bs_failed]
    those that produced a violation.  [bs_omega_avoided] counts the
    individual solver queries skipped thanks to ranges (two per fully
    discharged obligation, one when only one side was range-proven). *)
type bounds_stats = {
  bs_total : int;
  bs_ranges : int;
  bs_omega : int;
  bs_failed : int;
  bs_omega_avoided : int;
}

let bounds_zero =
  { bs_total = 0; bs_ranges = 0; bs_omega = 0; bs_failed = 0; bs_omega_avoided = 0 }

let bounds_add a b =
  {
    bs_total = a.bs_total + b.bs_total;
    bs_ranges = a.bs_ranges + b.bs_ranges;
    bs_omega = a.bs_omega + b.bs_omega;
    bs_failed = a.bs_failed + b.bs_failed;
    bs_omega_avoided = a.bs_omega_avoided + b.bs_omega_avoided;
  }

type state = {
  prog : Ssair.Ir.program;
  p1 : Phase1.t;
  config : Config.t;
  absint : Absint.t option;
  mutable violations : Report.violation list;
  mutable infos : Report.info list;
  mutable bounds : bounds_stats;
  mutable ledger : Ledger.entry list;  (* newest first; audit trail only *)
}

(* The obligation ledger is collected unconditionally (like Telemetry
   sections): it rides the phase-2 result through the cache, so a warm
   run reconciles exactly like a cold one, and it never feeds into
   [Report.t].  [Telemetry.now_ns] is a raw CLOCK_MONOTONIC read, cheap
   enough to pay per obligation rather than per instruction. *)
let ledger_add st (e : Ledger.entry) = st.ledger <- e :: st.ledger

(* representative region name for a P1-P3 site touching shm *)
let region_name targets =
  match Phase1.Rset.min_elt_opt targets with
  | Some tgt -> tgt.Phase1.Rtgt.region
  | None -> ""

let site_entry ~rule ~func ~loc ~region ~(discharge : Ledger.discharge) =
  {
    Ledger.l_rule = rule;
    l_func = func;
    l_loc = loc;
    l_region = region;
    l_discharge = discharge;
    l_counted = false;
    l_queries = 0;
    l_avoided = 0;
    l_cstrs = 0;
    l_hyps = 0;
    l_itv = None;
    l_bound = -1;
    l_ns = 0;
  }

let violate st rule (f : Ssair.Ir.func) loc fmt =
  Fmt.kstr
    (fun msg ->
      st.violations <-
        { Report.v_rule = rule; v_func = f.fname; v_loc = loc; v_msg = msg }
        :: st.violations)
    fmt

let note st (f : Ssair.Ir.func) loc fmt =
  Fmt.kstr
    (fun msg ->
      st.infos <-
        { Report.i_code = Report.code_range_proved; i_func = f.fname; i_loc = loc;
          i_msg = msg }
        :: st.infos)
    fmt

(** Does function [fname] (transitively) load or store shared memory? *)
let shm_accessors (prog : Ssair.Ir.program) (p1 : Phase1.t) : (string, unit) Hashtbl.t =
  let direct = Hashtbl.create 16 in
  List.iter
    (fun (f : Ssair.Ir.func) ->
      List.iter
        (fun i ->
          match i.Ssair.Ir.idesc with
          | Ssair.Ir.Load { ptr; _ } | Ssair.Ir.Store { ptr; _ } ->
            if not (Phase1.Rset.is_empty (Phase1.shm_targets p1 f ptr)) then
              Hashtbl.replace direct f.fname ()
          | _ -> ())
        (Ssair.Ir.all_instrs f))
    prog.Ssair.Ir.funcs;
  (* close over the call graph: callers of accessors access too *)
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (f : Ssair.Ir.func) ->
        if not (Hashtbl.mem direct f.fname) then
          let calls_accessor =
            List.exists
              (fun i ->
                match i.Ssair.Ir.idesc with
                | Ssair.Ir.Call { callee; _ } -> Hashtbl.mem direct callee
                | _ -> false)
              (Ssair.Ir.all_instrs f)
          in
          if calls_accessor then begin
            Hashtbl.replace direct f.fname ();
            changed := true
          end)
      prog.Ssair.Ir.funcs
  done;
  direct

let check_p1 st (f : Ssair.Ir.func) accessors =
  List.iter
    (fun (b : Ssair.Ir.block) ->
      List.iteri
        (fun pos i ->
          match i.Ssair.Ir.idesc with
          | Ssair.Ir.Call { callee; args; _ } when List.mem callee dealloc_functions ->
            let arg_targets =
              List.fold_left
                (fun acc a -> Phase1.Rset.union acc (Phase1.shm_targets st.p1 f a))
                Phase1.Rset.empty args
            in
            let on_shm = not (Phase1.Rset.is_empty arg_targets) in
            let p1_entry discharge =
              ledger_add st
                (site_entry ~rule:"P1" ~func:f.fname ~loc:i.Ssair.Ir.iloc
                   ~region:(region_name arg_targets) ~discharge)
            in
            if on_shm then
              if not (String.equal f.fname "main") then begin
                p1_entry Ledger.Failed;
                violate st Report.P1 f i.Ssair.Ir.iloc
                  "shared memory deallocated outside main"
              end
              else begin
                (* allowed only at the end of main: no shared-memory access
                   may follow on any path *)
                let tail_instrs =
                  List.filteri (fun k _ -> k > pos) b.Ssair.Ir.instrs
                in
                let instr_touches_shm j =
                  match j.Ssair.Ir.idesc with
                  | Ssair.Ir.Load { ptr; _ } | Ssair.Ir.Store { ptr; _ } ->
                    not (Phase1.Rset.is_empty (Phase1.shm_targets st.p1 f ptr))
                  | Ssair.Ir.Call { callee = c; _ } -> Hashtbl.mem accessors c
                  | _ -> false
                in
                let later_same_block = List.exists instr_touches_shm tail_instrs in
                (* blocks reachable from here *)
                let seen = Hashtbl.create 16 in
                let rec reach bid =
                  if not (Hashtbl.mem seen bid) then begin
                    Hashtbl.replace seen bid ();
                    match Ssair.Ir.block_opt f bid with
                    | Some blk -> List.iter reach (Ssair.Ir.successors f blk)
                    | None -> ()
                  end
                in
                List.iter reach (Ssair.Ir.successors f b);
                let later_other_blocks =
                  Hashtbl.fold
                    (fun bid () acc ->
                      acc
                      ||
                      match Ssair.Ir.block_opt f bid with
                      | Some blk -> List.exists instr_touches_shm blk.Ssair.Ir.instrs
                      | None -> false)
                    seen false
                in
                if later_same_block || later_other_blocks then begin
                  p1_entry Ledger.Failed;
                  violate st Report.P1 f i.Ssair.Ir.iloc
                    "shared memory deallocated before the end of main"
                end
                else p1_entry Ledger.Site_ok
              end
          | _ -> ())
        b.Ssair.Ir.instrs)
    f.Ssair.Ir.blocks

let check_p2_p3 st (f : Ssair.Ir.func) =
  let env = st.prog.Ssair.Ir.env in
  List.iter
    (fun (i : Ssair.Ir.instr) ->
      match i.Ssair.Ir.idesc with
      | Ssair.Ir.Store { sval; _ } ->
        let targets = Phase1.shm_targets st.p1 f sval in
        if not (Phase1.Rset.is_empty targets) then begin
          ledger_add st
            (site_entry ~rule:"P2" ~func:f.fname ~loc:i.Ssair.Ir.iloc
               ~region:(region_name targets) ~discharge:Ledger.Failed);
          violate st Report.P2 f i.Ssair.Ir.iloc
            "shared-memory pointer stored into memory (aliasing through memory)"
        end
      | Ssair.Ir.Cast { from_ty; to_ty; cval } -> (
        let targets = Phase1.shm_targets st.p1 f cval in
        if not (Phase1.Rset.is_empty targets) then
          let p3_entry discharge =
            ledger_add st
              (site_entry ~rule:"P3" ~func:f.fname ~loc:i.Ssair.Ir.iloc
                 ~region:(region_name targets) ~discharge)
          in
          match (Ty.resolve env from_ty, Ty.resolve env to_ty) with
          | Ty.Ptr a, Ty.Ptr b ->
            if not (Ty.compatible env a b) then begin
              p3_entry Ledger.Failed;
              violate st Report.P3 f i.Ssair.Ir.iloc
                "shared-memory pointer cast to incompatible pointer type (%a to %a)"
                Ty.pp from_ty Ty.pp to_ty
            end
            else p3_entry Ledger.Site_ok
          | Ty.Ptr _, t when Ty.is_integer t ->
            p3_entry Ledger.Failed;
            violate st Report.P3 f i.Ssair.Ir.iloc
              "shared-memory pointer cast to integer"
          | _ -> p3_entry Ledger.Site_ok)
      | _ -> ())
    (Ssair.Ir.all_instrs f)

(* Range hypotheses carry concrete interval bounds into the Omega
   queries.  Constants beyond this magnitude add no precision over the
   ±inf they approximate and risk coefficient blow-up during
   elimination, so they are dropped. *)
let hyp_clamp = 1 lsl 40

(** Finite range facts for the symbols of [e] at block [bid], as Omega
    constraints ([lo <= sym <= hi]). *)
let range_hypotheses aq ~bid (e : Omega.Linexpr.t) : Omega.cstr list =
  match aq with
  | None -> []
  | Some q ->
    List.concat_map
      (fun sym ->
        match Absint.range_of_sym q ~at:bid sym with
        | None -> []
        | Some itv ->
          let v = Omega.Linexpr.var sym in
          let lo =
            match Absint.Itv.finite_lo itv with
            | Some l when abs l <= hyp_clamp -> [ Omega.ge v (Omega.Linexpr.const l) ]
            | _ -> []
          in
          let hi =
            match Absint.Itv.finite_hi itv with
            | Some h when abs h <= hyp_clamp -> [ Omega.le v (Omega.Linexpr.const h) ]
            | _ -> []
          in
          lo @ hi)
      (Omega.Linexpr.vars e)

(** Check one shm array access: gep with non-trivial index.  The affine
    context [ctx] and the range query context [aq] are forced only for a
    symbolic index into a shared-memory region, the one access that
    reads them. *)
let check_bounds st ctx aq (f : Ssair.Ir.func) (i : Ssair.Ir.instr) bid base kind idx =
  let env = st.prog.Ssair.Ir.env in
  let targets = Phase1.shm_targets st.p1 f base in
  if not (Phase1.Rset.is_empty targets) then
    match kind with
    | Ssair.Ir.Gfield _ -> () (* field offsets are statically in range by typing *)
    | Ssair.Ir.Gindex elt ->
      let elsize = max 1 (Ty.sizeof env elt) in
      Phase1.Rset.iter
        (fun tgt ->
          match Shm.region st.p1.Phase1.shm tgt.Phase1.Rtgt.region with
          | None -> ()
          | Some r -> (
            match tgt.Phase1.Rtgt.off with
            | Offset.Top ->
              ledger_add st
                (site_entry ~rule:"A2" ~func:f.fname ~loc:i.Ssair.Ir.iloc
                   ~region:r.Shm.r_name ~discharge:Ledger.Failed);
              violate st Report.A2 f i.Ssair.Ir.iloc
                "indexing shared array in region %s from a statically unknown base offset"
                r.Shm.r_name
            | Offset.Byte base_off -> (
              let avail = r.Shm.r_size - base_off in
              let nelems = avail / elsize in
              let bounds_entry ~rule ~discharge ~counted ~queries ~avoided ~cstrs
                  ~hyps ~itv ~ns =
                ledger_add st
                  {
                    Ledger.l_rule = rule;
                    l_func = f.fname;
                    l_loc = i.Ssair.Ir.iloc;
                    l_region = r.Shm.r_name;
                    l_discharge = discharge;
                    l_counted = counted;
                    l_queries = queries;
                    l_avoided = avoided;
                    l_cstrs = cstrs;
                    l_hyps = hyps;
                    l_itv = itv;
                    l_bound = nelems;
                    l_ns = ns;
                  }
              in
              match idx with
              | Ssair.Ir.Vint (n, _) ->
                let n = Int64.to_int n in
                if n < 0 || n >= nelems then begin
                  bounds_entry ~rule:"A1" ~discharge:Ledger.Failed ~counted:false
                    ~queries:0 ~avoided:0 ~cstrs:0 ~hyps:0 ~itv:None ~ns:0;
                  violate st Report.A1 f i.Ssair.Ir.iloc
                    "constant index %d outside region %s (%d elements of %d bytes)" n
                    r.Shm.r_name nelems elsize
                end
                else
                  bounds_entry ~rule:"A1" ~discharge:Ledger.Const ~counted:false
                    ~queries:0 ~avoided:0 ~cstrs:0 ~hyps:0 ~itv:None ~ns:0
              | _ ->
                let ctx = Lazy.force ctx and aq = Lazy.force aq in
                let tick d = st.bounds <- bounds_add st.bounds d in
                tick { bounds_zero with bs_total = 1 };
                let t0 = Telemetry.now_ns () in
                (* range verdicts first: each side an interval proves in
                   bounds skips its Omega query outright *)
                let rng = Option.map (fun q -> Absint.range_of_value q ~at:bid idx) aq in
                let lo_proved =
                  match rng with
                  | Some r -> (
                    Absint.Itv.is_bot r
                    || match Absint.Itv.finite_lo r with Some l -> l >= 0 | None -> false)
                  | None -> false
                in
                let hi_proved =
                  match rng with
                  | Some r -> (
                    Absint.Itv.is_bot r
                    ||
                    match Absint.Itv.finite_hi r with
                    | Some h -> h <= nelems - 1
                    | None -> false)
                  | None -> false
                in
                let itv_fact =
                  match rng with
                  | Some rg -> (
                    match (Absint.Itv.finite_lo rg, Absint.Itv.finite_hi rg) with
                    | Some l, Some h -> Some (l, h)
                    | _ -> None)
                  | None -> None
                in
                if lo_proved && hi_proved then begin
                  tick { bounds_zero with bs_ranges = 1; bs_omega_avoided = 2 };
                  bounds_entry ~rule:"A1" ~discharge:Ledger.Ranges ~counted:true
                    ~queries:0 ~avoided:2 ~cstrs:0 ~hyps:0 ~itv:itv_fact
                    ~ns:(Int64.to_int (Int64.sub (Telemetry.now_ns ()) t0));
                  note st f i.Ssair.Ir.iloc
                    "index into region %s proven within [0,%d) by value-range analysis"
                    r.Shm.r_name nelems
                end
                else begin
                  let idx_e = affine_of_value ctx idx in
                  (* symbols that are neither loop phis nor parameters are
                     opaque (call results, memory loads): a satisfiable
                     violation query then means "cannot prove affine" (A2)
                     rather than a definite out-of-bounds access (A1) *)
                  let opaque =
                    List.exists
                      (fun sym ->
                        match
                          if String.length sym > 1 && sym.[0] = 'v' then
                            int_of_string_opt (String.sub sym 1 (String.length sym - 1))
                          else None
                        with
                        | None -> not (String.length sym > 2 && String.sub sym 0 2 = "p_")
                        | Some id -> (
                          match Hashtbl.find_opt ctx.defs id with
                          | Some (Ssair.Ir.Def_phi _) -> false
                          | _ -> true))
                      (Omega.Linexpr.vars idx_e)
                  in
                  let sat_rule = if opaque then Report.A2 else Report.A1 in
                  let constraints =
                    dominating_constraints ctx bid @ induction_constraints ctx idx_e
                  in
                  let hyps = range_hypotheses aq ~bid idx_e in
                  (* per-obligation solver accounting for the ledger *)
                  let n_queries = ref 0 in
                  let max_cstrs = ref 0 in
                  let hyp_settled = ref false in
                  let feas cs =
                    incr n_queries;
                    max_cstrs := max !max_cstrs (List.length cs);
                    Omega.feasible ~fuel:st.config.Config.omega_fuel cs
                  in
                  (* hypotheses may only strengthen a query towards Unsat: a
                     query they do not settle falls back to the baseline
                     verdict, so a run with ranges reports a subset of the
                     findings of a run without *)
                  let query goal =
                    match hyps with
                    | [] -> feas (goal :: constraints)
                    | _ -> (
                      match feas ((goal :: hyps) @ constraints) with
                      | Omega.Unsat ->
                        hyp_settled := true;
                        Omega.Unsat
                      | Omega.Sat | Omega.Unknown -> feas (goal :: constraints))
                  in
                  let low_q =
                    if lo_proved then begin
                      tick { bounds_zero with bs_omega_avoided = 1 };
                      Omega.Unsat
                    end
                    else query (Omega.le idx_e (Omega.Linexpr.const (-1)))
                  in
                  let high_q =
                    if hi_proved then begin
                      tick { bounds_zero with bs_omega_avoided = 1 };
                      Omega.Unsat
                    end
                    else query (Omega.ge idx_e (Omega.Linexpr.const nelems))
                  in
                  let clean = ref true in
                  (match low_q with
                  | Omega.Unsat -> ()
                  | Omega.Sat ->
                    clean := false;
                    violate st sat_rule f i.Ssair.Ir.iloc
                      "index into region %s can be negative" r.Shm.r_name
                  | Omega.Unknown ->
                    clean := false;
                    violate st Report.A2 f i.Ssair.Ir.iloc
                      "cannot prove index into region %s non-negative (non-affine)"
                      r.Shm.r_name);
                  (match high_q with
                  | Omega.Unsat -> ()
                  | Omega.Sat ->
                    clean := false;
                    violate st sat_rule f i.Ssair.Ir.iloc
                      "index into region %s can exceed %d elements" r.Shm.r_name nelems
                  | Omega.Unknown ->
                    clean := false;
                    violate st Report.A2 f i.Ssair.Ir.iloc
                      "cannot prove index into region %s below bound %d (non-affine)"
                      r.Shm.r_name nelems);
                  tick
                    (if !clean then { bounds_zero with bs_omega = 1 }
                     else { bounds_zero with bs_failed = 1 });
                  let discharge =
                    if not !clean then Ledger.Failed
                    else if !hyp_settled then Ledger.Omega_hyp
                    else Ledger.Omega_unsat
                  in
                  bounds_entry
                    ~rule:(if opaque then "A2" else "A1")
                    ~discharge ~counted:true ~queries:!n_queries
                    ~avoided:
                      ((if lo_proved then 1 else 0) + if hi_proved then 1 else 0)
                    ~cstrs:!max_cstrs ~hyps:(List.length hyps) ~itv:itv_fact
                    ~ns:(Int64.to_int (Int64.sub (Telemetry.now_ns ()) t0))
                end)))
        targets

(* range query contexts built: one per function with a symbolic index
   into a shared-memory region *)
let c_query_ctx = Telemetry.counter "absint.query_ctx"

let check_arrays st (f : Ssair.Ir.func) =
  (* per-function contexts, built lazily so functions without a symbolic
     shared-memory index never pay for their dominator trees *)
  let ctx = lazy (mk_affine_ctx f) in
  let aq =
    lazy
      (Option.map
         (fun ai ->
           Telemetry.incr c_query_ctx;
           Absint.query_ctx ai f)
         st.absint)
  in
  List.iter
    (fun (b : Ssair.Ir.block) ->
      List.iter
        (fun (i : Ssair.Ir.instr) ->
          match i.Ssair.Ir.idesc with
          | Ssair.Ir.Gep { base; kind; idx } ->
            check_bounds st ctx aq f i b.Ssair.Ir.bbid base kind idx
          | _ -> ())
        b.Ssair.Ir.instrs)
    f.Ssair.Ir.blocks

(** Everything phase 2 produces in one pass: restriction verdicts, the
    [I-RANGE-PROVED] audit notes, the A1/A2 discharge accounting, and
    the per-obligation audit ledger (PR 9; never part of the report). *)
type result = {
  violations : Report.violation list;
  infos : Report.info list;
  bounds : bounds_stats;
  ledger : Ledger.entry list;
}

let empty_result = { violations = []; infos = []; bounds = bounds_zero; ledger = [] }

(** Run phase 2.  Returns restriction violations (empty when the program
    adheres to the MiniC shared-memory discipline) together with range
    notes and bounds-obligation statistics.

    With [~cache] and [~digests], the result is cached for the whole
    program, keyed on the program digest and the semantic config (which
    covers the value-range toggle; the ranges themselves are a function
    of the program).  An edited program recomputes it whole: that
    costs less than the per-function lookups an edit would need. *)
let run ?(config = Config.default) ?cache ?digests ?absint (prog : Ssair.Ir.program)
    (p1 : Phase1.t) : result =
  if not config.Config.check_restrictions then empty_result
  else begin
    let key =
      match digests with
      | Some (d : Digest_ir.t) ->
        Some (Digest_ir.combine [ d.Digest_ir.program; Digest_ir.semantic_config config ])
      | None -> None
    in
    let cached_whole =
      match (cache, key) with
      | Some c, Some key -> (Cache.find c ~ns:"phase2" ~key : result option)
      | _ -> None
    in
    match cached_whole with
    | Some r -> r
    | None ->
      let accessors = shm_accessors prog p1 in
      let st =
        { prog; p1; config; absint; violations = []; infos = []; bounds = bounds_zero;
          ledger = [] }
      in
      List.iter
        (fun (f : Ssair.Ir.func) ->
          if Phase1.is_exempt p1 f.Ssair.Ir.fname then
            (* obligation suspended under the initializing-function
               exemption (§3.2.1): one "assumed" ledger entry marks the
               whole function as unexamined by phases 2's provers *)
            ledger_add st
              {
                Ledger.l_rule = "EXEMPT";
                l_func = f.Ssair.Ir.fname;
                l_loc = f.Ssair.Ir.floc;
                l_region = "";
                l_discharge = Ledger.Assumed;
                l_counted = false;
                l_queries = 0;
                l_avoided = 0;
                l_cstrs = 0;
                l_hyps = 0;
                l_itv = None;
                l_bound = -1;
                l_ns = 0;
              }
          else begin
            check_p1 st f accessors;
            check_p2_p3 st f;
            check_arrays st f
          end)
        prog.Ssair.Ir.funcs;
      (* canonical (file, line, code) order: emission follows program
         order, so sorting here makes the cached entry and a fresh run
         byte-identical regardless of function layout *)
      let violations = List.stable_sort Report.compare_violation (List.rev st.violations) in
      let infos = List.stable_sort Report.compare_info (List.rev st.infos) in
      let bounds = st.bounds and ledger = Ledger.sort (List.rev st.ledger) in
      let result = { violations; infos; bounds; ledger } in
      (match (cache, key) with
      | Some c, Some key -> Cache.store c ~ns:"phase2" ~key result
      | _ -> ());
      result
  end
