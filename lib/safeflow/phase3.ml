(** Phase 3 (paper §3.3): value-flow analysis.

    Reads of unmonitored non-core shared memory produce [unsafe] values
    (each such read is a {e warning}); unsafeness propagates through the
    value-flow graph — SSA def-use edges, loads/stores resolved by the
    points-to analysis, call/return edges — and the analysis checks that
    no critical datum ([assert(safe(x))] annotations and implicit sinks
    such as the pid argument of [kill]) depends on an unsafe value.

    Monitoring functions are handled context-sensitively: each function is
    analyzed once per set of [assume(core(...))] assumptions accumulated
    along the call chain, which is the paper's "each function ... analyzed
    multiple times for different call sequences".  Control dependence on
    unsafe values is tracked separately (implicit flows through phis,
    conditional sinks and conditional stores) and reported as
    [Control_only] — the class the paper identifies as candidate false
    positives requiring value-flow-graph review (§3.4.1). *)

open Minic
module Offset = Pointsto.Offset

(* -- Monitoring contexts ------------------------------------------------------ *)

type assumption = Assume.assumption =
  | Aregion of string * int * int  (** region, byte range [lo, hi) assumed core *)
  | Anode of Pointsto.Node.t       (** memory object assumed core (recv buffers) *)

let pp_assumption = Assume.pp

module Ctx = struct
  type t = assumption list  (* sorted, deduplicated *)

  let empty : t = []
  let make l : t = List.sort_uniq compare l
  let union (a : t) (b : t) : t = List.sort_uniq compare (a @ b)
  let compare : t -> t -> int = compare

  let covers_region (ctx : t) region ~lo ~hi =
    List.exists
      (function Aregion (r, l, h) -> String.equal r region && l <= lo && hi <= h | _ -> false)
      ctx

  let covers_node (ctx : t) node =
    List.exists (function Anode n -> n = node | _ -> false) ctx

  let names (ctx : t) =
    List.map (function Aregion (r, _, _) -> r | Anode n -> Fmt.str "%a" Pointsto.Node.pp n) ctx
end

(* -- Taint entities ----------------------------------------------------------- *)

type entity =
  | Eval of string * Ctx.t * Ssair.Ir.vid
  | Eparam of string * Ctx.t * string
  | Eret of string * Ctx.t
  | Enode of Pointsto.Node.t
  | Eregion of string  (** a non-core region as a taint source *)

let pp_entity ppf = function
  | Eval (f, _, id) -> Fmt.pf ppf "%s:%%%d" f id
  | Eparam (f, _, p) -> Fmt.pf ppf "%s:param %s" f p
  | Eret (f, _) -> Fmt.pf ppf "%s:return" f
  | Enode n -> Fmt.pf ppf "mem %a" Pointsto.Node.pp n
  | Eregion r -> Fmt.pf ppf "non-core region %s" r

type origin = { parent : entity option; why : string }

(** Per-function control-dependence facts that do not depend on the
    monitoring context or the taint state: the undecided register-cond
    branches, and per branch block the transitive closure of the CDG
    "controls" relation.  Memoized in {!state} ([brinfos]) — the legacy
    engine recomputes {!block_control_taint} per (pair, pass) and
    {!collect_dependencies} per pair, and only the branch conditions'
    taint is dynamic. *)
type brinfo = {
  br_branches : (Ssair.Ir.bid * Ssair.Ir.vid * Ssair.Ir.bid list) list;
      (** blocks ending in [Cbr]/[Switch] on a register: block, cond
          vid, and the blocks transitively control-dependent on the
          block (as a set — member order is not meaningful) *)
}

type state = {
  prog : Ssair.Ir.program;
  shm : Shm.t;
  p1 : Phase1.t;
  pts : Pointsto.t;
  config : Config.t;
  absint : Absint.t option;
      (** value ranges; decided branches exert no control dependence *)
  mutable data : (entity, origin) Hashtbl.t;  (** data-tainted entities *)
  mutable ctrl : (entity, origin) Hashtbl.t;  (** control-tainted entities *)
  pairs : (string * Ctx.t, unit) Hashtbl.t;  (** discovered (function, context) pairs *)
  warnings : (Loc.t * string, Report.warning) Hashtbl.t;
  brinfos : (string, brinfo) Hashtbl.t;
  fidx : (string, Ssair.Ir.func) Hashtbl.t;
      (** function index — [Ssair.Ir.find_func] is a linear scan and the
          legacy engine resolves callees at every call site of every
          pass.  First occurrence wins, mirroring [find_func]. *)
  noncore_sockets : (string, unit) Hashtbl.t;
  mutable changed : bool;
  mutable passes : int;
}

let data_tainted st e = Hashtbl.mem st.data e
let ctrl_tainted st e = Hashtbl.mem st.ctrl e

(* A conditional branch whose condition's value range decides the
   direction takes the same successor in every concrete execution, so it
   exerts no control dependence.  Pruning it is precision-only: findings
   can disappear, never appear. *)
let branch_decided st (f : Ssair.Ir.func) (b : Ssair.Ir.block) : bool =
  match st.absint with
  | None -> false
  | Some ai -> Absint.dead_branch ai ~fname:f.Ssair.Ir.fname ~bid:b.Ssair.Ir.bbid <> None

let taint st table e ~parent ~why =
  if not (Hashtbl.mem table e) then begin
    Hashtbl.replace table e { parent; why };
    st.changed <- true
  end

(** Memoized {!brinfo} of [f].  Pure with respect to the taint state;
    it writes the memo tables, so it must not run on two domains at
    once. *)
let branch_info st (f : Ssair.Ir.func) : brinfo =
  match Hashtbl.find_opt st.brinfos f.fname with
  | Some bi -> bi
  | None ->
    let br_branches =
      List.filter_map
        (fun (b : Ssair.Ir.block) ->
          (* decided branches exert no control dependence *)
          if branch_decided st f b then None
          else
            match b.Ssair.Ir.termin with
            | Ssair.Ir.Cbr (Ssair.Ir.Vreg id, _, _)
            | Ssair.Ir.Switch (Ssair.Ir.Vreg id, _, _) ->
              Some (b.Ssair.Ir.bbid, id)
            | _ -> None)
        f.Ssair.Ir.blocks
    in
    let br_branches =
      match br_branches with
      | [] -> []
      | _ ->
        (* the CDG is only consulted through the closures of undecided
           branches, so a branch-free (or all-decided) function never
           pays for post-dominator computation *)
        let c = Ssair.Cdg.compute f in
        (* per-function scratch; unmarked after each branch walk *)
        let seen = Array.make (Array.length c.Ssair.Cdg.slot_bid) false in
        List.map
          (fun (bB, id) ->
            (* transitive closure of the CDG "controls" relation from bB,
               excluding bB itself unless it controls itself — a DFS on
               the dense slot arrays (member order is irrelevant: every
               consumer treats the closure as a set) *)
            let acc = ref [] in
            let s0 = c.Ssair.Cdg.slot_of bB in
            (if s0 >= 0 then
               let rec go s =
                 List.iter
                   (fun d ->
                     if not seen.(d) then begin
                       seen.(d) <- true;
                       acc := d :: !acc;
                       go d
                     end)
                   c.Ssair.Cdg.ctrl_slots.(s)
               in
               go s0);
            let bids = List.map (fun s -> c.Ssair.Cdg.slot_bid.(s)) !acc in
            List.iter (fun s -> seen.(s) <- false) !acc;
            (bB, id, bids))
          br_branches
    in
    let bi = { br_branches } in
    Hashtbl.replace st.brinfos f.fname bi;
    bi

(* -- Resolving annotations ----------------------------------------------------- *)

(** Assumptions contributed by function [f]'s own [assume(core(...))]
    annotations (see {!Assume}). *)
let own_assumptions st (f : Ssair.Ir.func) : assumption list =
  Assume.of_func ~prog:st.prog ~shm:st.shm ~p1:st.p1 ~pts:st.pts f

(** Non-core sockets: [assume(noncore(s))] clauses naming something that is
    not a shared-memory region (message-passing extension §3.4.3). *)
let collect_noncore_sockets st =
  List.iter
    (fun (f : Ssair.Ir.func) ->
      List.iter
        (function
          | Annot.Noncore name when Shm.region st.shm name = None ->
            Hashtbl.replace st.noncore_sockets name ()
          | _ -> ())
        f.Ssair.Ir.fannot)
    st.prog.Ssair.Ir.funcs

(* -- Warning emission ----------------------------------------------------------- *)

let warn st (f : Ssair.Ir.func) ctx loc region =
  let key = (loc, region) in
  if not (Hashtbl.mem st.warnings key) then begin
    Hashtbl.replace st.warnings key
      { Report.w_func = f.fname; w_region = region; w_loc = loc; w_context = Ctx.names ctx };
    st.changed <- true
  end

(* -- The per-(function, context) transfer ---------------------------------------- *)

(** Blocks' tainted-control status: block → is any controlling branch
    condition tainted (data or ctrl)?  The closure of the "controls"
    relation is static per function ({!branch_info}); only the branch
    conditions' taint is dynamic, and the closure of a union of branch
    sets equals the union of the per-branch closures. *)
let block_control_taint st (f : Ssair.Ir.func) ctx : (Ssair.Ir.bid, unit) Hashtbl.t =
  let bi = branch_info st f in
  let closed = Hashtbl.create 8 in
  List.iter
    (fun (_bB, id, closure) ->
      let e = Eval (f.fname, ctx, id) in
      if data_tainted st e || ctrl_tainted st e then
        List.iter (fun dep -> Hashtbl.replace closed dep ()) closure)
    bi.br_branches;
  closed

let value_entity fname ctx (v : Ssair.Ir.value) : entity option =
  match v with
  | Ssair.Ir.Vreg id -> Some (Eval (fname, ctx, id))
  | Ssair.Ir.Vparam p -> Some (Eparam (fname, ctx, p))
  | _ -> None

let value_data_tainted st fname ctx v =
  match value_entity fname ctx v with Some e -> data_tainted st e | None -> false

let value_ctrl_tainted st fname ctx v =
  match value_entity fname ctx v with Some e -> ctrl_tainted st e | None -> false

let first_tainted _st fname ctx vs table =
  List.find_map
    (fun v ->
      match value_entity fname ctx v with
      | Some e when Hashtbl.mem table e -> Some e
      | _ -> None)
    vs

(** Analyze one function under one context; records taints, warnings and
    newly discovered (callee, context) pairs. *)
let analyze_pair st (f : Ssair.Ir.func) (ctx : Ctx.t) =
  let env = st.prog.Ssair.Ir.env in
  let fname = f.Ssair.Ir.fname in
  let blk_ctrl = block_control_taint st f ctx in
  let in_tainted_block bid = Hashtbl.mem blk_ctrl bid in
  List.iter
    (fun (b : Ssair.Ir.block) ->
      (* phis: data from incomings, control from the block's merge *)
      List.iter
        (fun (p : Ssair.Ir.phi) ->
          let self = Eval (fname, ctx, p.Ssair.Ir.pid) in
          List.iter
            (fun (_, v) ->
              match value_entity fname ctx v with
              | Some e when data_tainted st e ->
                taint st st.data self ~parent:(Some e) ~why:"phi merge"
              | Some e when ctrl_tainted st e ->
                taint st st.ctrl self ~parent:(Some e) ~why:"phi merge"
              | _ -> ())
            p.Ssair.Ir.incoming;
          (* implicit flow: the phi's value is selected by the branches
             controlling its incoming edges *)
          let incoming_controlled =
            in_tainted_block b.Ssair.Ir.bbid
            || List.exists
                 (fun (pred, _) ->
                   in_tainted_block pred
                   ||
                   match Ssair.Ir.block_opt f pred with
                   | Some pblk -> (
                     match pblk.Ssair.Ir.termin with
                     | Ssair.Ir.Cbr (Ssair.Ir.Vreg cid, _, _)
                     | Ssair.Ir.Switch (Ssair.Ir.Vreg cid, _, _) ->
                       (not (branch_decided st f pblk))
                       &&
                       let ce = Eval (fname, ctx, cid) in
                       data_tainted st ce || ctrl_tainted st ce
                     | _ -> false)
                   | None -> false)
                 p.Ssair.Ir.incoming
          in
          if st.config.Config.control_deps && incoming_controlled then
            taint st st.ctrl self ~parent:None
              ~why:"phi merges paths controlled by an unsafe condition")
        b.Ssair.Ir.phis;
      List.iter
        (fun (i : Ssair.Ir.instr) ->
          let self = Eval (fname, ctx, i.Ssair.Ir.iid) in
          let flow_operands vs why =
            (match first_tainted st fname ctx vs st.data with
            | Some e -> taint st st.data self ~parent:(Some e) ~why
            | None -> ());
            match first_tainted st fname ctx vs st.ctrl with
            | Some e -> taint st st.ctrl self ~parent:(Some e) ~why
            | None -> ()
          in
          match i.Ssair.Ir.idesc with
          | Ssair.Ir.Alloca _ -> ()
          | Ssair.Ir.Load { ptr; lty } -> (
            (* 1. shared-memory reads *)
            let shm_targets = Phase1.shm_targets st.p1 f ptr in
            Phase1.Rset.iter
              (fun tgt ->
                let rname = tgt.Phase1.Rtgt.region in
                match Shm.region st.shm rname with
                | None -> ()
                | Some r ->
                  if r.Shm.r_noncore then begin
                    let covered =
                      match tgt.Phase1.Rtgt.off with
                      | Offset.Byte b ->
                        Ctx.covers_region ctx rname ~lo:b ~hi:(b + Ty.sizeof env lty)
                      | Offset.Top ->
                        Ctx.covers_region ctx rname ~lo:0 ~hi:r.Shm.r_size
                    in
                    if not covered then begin
                      warn st f ctx i.Ssair.Ir.iloc rname;
                      taint st st.data self ~parent:(Some (Eregion rname))
                        ~why:
                          (Fmt.str "unmonitored read of non-core region %s at %a" rname
                             Loc.pp i.Ssair.Ir.iloc)
                    end
                  end
                  else begin
                    (* core region: safe unless some unsafe value was
                       stored into it *)
                    let node = Pointsto.Node.Nshm rname in
                    if data_tainted st (Enode node) && not (Ctx.covers_node ctx node) then
                      taint st st.data self ~parent:(Some (Enode node))
                        ~why:"read of core region holding an unsafe value"
                  end)
              shm_targets;
            (* 2. ordinary memory — only when the address is not a
               shared-memory pointer: shm reads are governed by the region
               model above (P2 guarantees shm pointers cannot also point
               to ordinary objects, and the opaque node backing the
               segment would otherwise conflate all regions) *)
            if Phase1.Rset.is_empty shm_targets then
            Pointsto.Tset.iter
              (fun tgt ->
                let node = tgt.Pointsto.Target.node in
                if not (Ctx.covers_node ctx node) then begin
                  if data_tainted st (Enode node) then
                    taint st st.data self ~parent:(Some (Enode node))
                      ~why:"load from unsafe memory object";
                  if ctrl_tainted st (Enode node) then
                    taint st st.ctrl self ~parent:(Some (Enode node))
                      ~why:"load from control-unsafe memory object"
                end)
              (Pointsto.points_to st.pts f ptr);
            (* 3. tainted address: attacker-chosen cell *)
            flow_operands [ ptr ] "load through unsafe pointer";
            ignore lty)
          | Ssair.Ir.Store { ptr; sval; _ } ->
            let mark table parent why =
              (* taint every object the store may write; shm-pointer
                 stores taint the region node, not the opaque segment *)
              let shm = Phase1.shm_targets st.p1 f ptr in
              if Phase1.Rset.is_empty shm then
                Pointsto.Tset.iter
                  (fun tgt ->
                    taint st table (Enode tgt.Pointsto.Target.node) ~parent ~why)
                  (Pointsto.points_to st.pts f ptr)
              else
                Phase1.Rset.iter
                  (fun tgt ->
                    taint st table
                      (Enode (Pointsto.Node.Nshm tgt.Phase1.Rtgt.region))
                      ~parent ~why)
                  shm
            in
            (match value_entity fname ctx sval with
            | Some e when data_tainted st e ->
              mark st.data (Some e) "unsafe value stored"
            | Some e when ctrl_tainted st e ->
              mark st.ctrl (Some e) "control-unsafe value stored"
            | _ -> ());
            if st.config.Config.control_deps && in_tainted_block b.Ssair.Ir.bbid then
              mark st.ctrl None "store controlled by an unsafe condition"
          | Ssair.Ir.Binop { lhs; rhs; _ } -> flow_operands [ lhs; rhs ] "arithmetic"
          | Ssair.Ir.Unop { operand; _ } -> flow_operands [ operand ] "arithmetic"
          | Ssair.Ir.Cast { cval; _ } -> flow_operands [ cval ] "cast"
          | Ssair.Ir.Gep { base; idx; _ } -> flow_operands [ base; idx ] "address arithmetic"
          | Ssair.Ir.Annotation _ -> ()
          | Ssair.Ir.Call { callee; args; _ } -> (
            match Hashtbl.find_opt st.fidx callee with
            | Some g ->
              let gctx =
                if st.config.Config.context_sensitive then
                  Ctx.union ctx (Ctx.make (own_assumptions st g))
                else Ctx.make (own_assumptions st g)
              in
              if not (Hashtbl.mem st.pairs (g.Ssair.Ir.fname, gctx)) then begin
                Hashtbl.replace st.pairs (g.Ssair.Ir.fname, gctx) ();
                st.changed <- true
              end;
              List.iteri
                (fun k arg ->
                  match List.nth_opt g.Ssair.Ir.fparams k with
                  | Some (pname, _) -> (
                    let pe = Eparam (g.Ssair.Ir.fname, gctx, pname) in
                    (match value_entity fname ctx arg with
                    | Some e when data_tainted st e ->
                      taint st st.data pe ~parent:(Some e)
                        ~why:(Fmt.str "argument %d of call to %s" k callee)
                    | Some e when ctrl_tainted st e ->
                      taint st st.ctrl pe ~parent:(Some e)
                        ~why:(Fmt.str "argument %d of call to %s" k callee)
                    | _ -> ());
                    if st.config.Config.control_deps && in_tainted_block b.Ssair.Ir.bbid
                    then
                      taint st st.ctrl pe ~parent:None
                        ~why:"call controlled by an unsafe condition")
                  | None -> ())
                args;
              let re = Eret (g.Ssair.Ir.fname, gctx) in
              if data_tainted st re then
                taint st st.data self ~parent:(Some re)
                  ~why:(Fmt.str "return value of %s" callee);
              if ctrl_tainted st re then
                taint st st.ctrl self ~parent:(Some re)
                  ~why:(Fmt.str "return value of %s" callee)
            | None ->
              (* extern *)
              (* message-passing: recv through a non-core socket taints the
                 buffer *)
              if List.mem callee st.config.Config.recv_functions then begin
                let socket_is_noncore =
                  match args with
                  | sock :: _ -> (
                    match sock with
                    | Ssair.Ir.Vparam p -> Hashtbl.mem st.noncore_sockets p
                    | Ssair.Ir.Vreg id -> (
                      (* a load of an annotated global *)
                      let defs = Ssair.Ir.def_table f in
                      match Hashtbl.find_opt defs id with
                      | Some
                          (Ssair.Ir.Def_instr
                             ( { idesc = Ssair.Ir.Load { ptr = Ssair.Ir.Vglobal g; _ }; _ },
                               _ )) ->
                        Hashtbl.mem st.noncore_sockets g
                      | _ -> false)
                    | _ -> false)
                  | [] -> false
                in
                if socket_is_noncore then
                  match args with
                  | _ :: buf :: _ ->
                    Pointsto.Tset.iter
                      (fun tgt ->
                        taint st st.data (Enode tgt.Pointsto.Target.node)
                          ~parent:(Some (Eregion (Fmt.str "socket via %s" callee)))
                          ~why:"data received from a non-core component")
                      (Pointsto.points_to st.pts f buf)
                  | _ -> ()
              end;
              (* conservative: extern results carry their arguments' taint *)
              flow_operands args (Fmt.str "through external call %s" callee)))
        b.Ssair.Ir.instrs;
      (* returns *)
      match b.Ssair.Ir.termin with
      | Ssair.Ir.Ret (Some v) -> (
        let re = Eret (fname, ctx) in
        (match value_entity fname ctx v with
        | Some e when data_tainted st e ->
          taint st st.data re ~parent:(Some e) ~why:"returned"
        | Some e when ctrl_tainted st e ->
          taint st st.ctrl re ~parent:(Some e) ~why:"returned"
        | _ -> ());
        if st.config.Config.control_deps && in_tainted_block b.Ssair.Ir.bbid then
          taint st st.ctrl re ~parent:None
            ~why:"returned value selected by an unsafe condition")
      | _ -> ())
    f.Ssair.Ir.blocks

(* -- Sinks and asserts ------------------------------------------------------------ *)

(** Stable opaque identity of a taint entity — the [p_key] of witness
    steps.  Entities are pure data, so the digest is deterministic
    across runs, engines and processes. *)
let entity_key (e : entity) : string =
  Digest.to_hex (Digest.string (Marshal.to_string e [ Marshal.No_sharing ]))

(** Walk first-taint origins from [e] back to a source, producing the
    structured witness path, source first.  Each step records the entity
    it came from ([p_parent]), so consecutive steps form a checkable
    chain; the legacy string trace is derived from this path
    ({!Report.path_strings}), keeping both in lockstep. *)
let path_of table e : Report.path_step list =
  let step e why parent =
    {
      Report.p_desc = Fmt.str "%a" pp_entity e;
      p_why = why;
      p_key = entity_key e;
      p_parent = Option.map entity_key parent;
    }
  in
  let rec go e acc depth =
    if depth > 32 then Report.synthetic_step "..." :: acc
    else
      match Hashtbl.find_opt table e with
      | Some { parent = Some p; why } -> go p (step e (Some why) (Some p) :: acc) (depth + 1)
      | Some { parent = None; why } -> step e (Some why) None :: acc
      | None -> step e None None :: acc
  in
  go e [] 0

(** After the fixpoint: evaluate assert(safe(x)) annotations and implicit
    critical sinks, producing dependencies. *)
let collect_dependencies st : Report.dependency list =
  let deps = ref [] in
  let add kind sink f loc path =
    deps :=
      {
        Report.d_kind = kind;
        d_sink = sink;
        d_func = f;
        d_loc = loc;
        d_trace = Report.path_strings path;
        d_path = path;
      }
      :: !deps
  in
  let check_value f ctx blk_ctrl bid loc sink (v : Ssair.Ir.value) =
    let fname = f.Ssair.Ir.fname in
    match value_entity fname ctx v with
    | Some e when data_tainted st e -> add Report.Data sink fname loc (path_of st.data e)
    | Some e when st.config.Config.control_deps && ctrl_tainted st e ->
      add Report.Control_only sink fname loc (path_of st.ctrl e)
    | Some e ->
      (* pointer-typed critical data: unsafe data reachable from it? *)
      let is_ptr =
        match v with
        | Ssair.Ir.Vreg id -> (
          match Hashtbl.find_opt (Ssair.Ir.def_table f) id with
          | Some (Ssair.Ir.Def_instr (i, _)) -> Minic.Ty.is_pointer i.Ssair.Ir.ity
          | Some (Ssair.Ir.Def_phi (p, _)) -> Minic.Ty.is_pointer p.Ssair.Ir.pty
          | None -> false)
        | _ -> false
      in
      if is_ptr then begin
        let reach = Pointsto.reachable st.pts (Pointsto.points_to st.pts f v) in
        match
          Pointsto.Tset.fold
            (fun tgt acc ->
              match acc with
              | Some _ -> acc
              | None ->
                let ne = Enode tgt.Pointsto.Target.node in
                if data_tainted st ne then Some ne else None)
            reach None
        with
        | Some ne ->
          add Report.Data sink f.Ssair.Ir.fname loc
            (path_of st.data ne @ [ Report.synthetic_step "reachable from critical pointer" ])
        | None -> ()
      end;
      if
        st.config.Config.control_deps
        && (not (data_tainted st e))
        && (not (ctrl_tainted st e))
        && Hashtbl.mem blk_ctrl bid
      then
        add Report.Control_only sink fname loc
          [
            Report.synthetic_step
              "critical site executes under a condition influenced by non-core values";
          ]
    | None ->
      if st.config.Config.control_deps && Hashtbl.mem blk_ctrl bid then
        add Report.Control_only sink fname loc
          [
            Report.synthetic_step
              "critical site executes under a condition influenced by non-core values";
          ]
  in
  (* sink sites are context-independent; collect them once per function
     (in block/instruction order — the order of the [check_value] calls
     below drives first-win dedup) and skip the control-taint closure
     for the many pairs of functions with no sinks at all *)
  let sites_memo : (string, (Ssair.Ir.bid * Loc.t * string * Ssair.Ir.value) list) Hashtbl.t =
    Hashtbl.create 32
  in
  (* the sink list is tiny but consulted once per call instruction *)
  let sink_tbl = Hashtbl.create 16 in
  List.iter
    (fun (callee, indices) ->
      if not (Hashtbl.mem sink_tbl callee) then Hashtbl.add sink_tbl callee indices)
    st.config.Config.critical_sinks;
  let sites_of (f : Ssair.Ir.func) =
    match Hashtbl.find_opt sites_memo f.Ssair.Ir.fname with
    | Some l -> l
    | None ->
      let acc = ref [] in
      List.iter
        (fun (b : Ssair.Ir.block) ->
          List.iter
            (fun (i : Ssair.Ir.instr) ->
              match i.Ssair.Ir.idesc with
              | Ssair.Ir.Annotation { clause = Annot.Assert_safe x; aval = Some v } ->
                acc :=
                  (b.Ssair.Ir.bbid, i.Ssair.Ir.iloc, Fmt.str "assert(safe(%s))" x, v)
                  :: !acc
              | Ssair.Ir.Call { callee; args; _ } -> (
                match Hashtbl.find_opt sink_tbl callee with
                | Some indices ->
                  List.iter
                    (fun k ->
                      match List.nth_opt args k with
                      | Some arg ->
                        acc :=
                          ( b.Ssair.Ir.bbid,
                            i.Ssair.Ir.iloc,
                            Fmt.str "argument %d of %s" k callee,
                            arg )
                          :: !acc
                      | None -> ())
                    indices
                | None -> ())
              | _ -> ())
            b.Ssair.Ir.instrs)
        f.Ssair.Ir.blocks;
      let l = List.rev !acc in
      Hashtbl.replace sites_memo f.Ssair.Ir.fname l;
      l
  in
  Hashtbl.iter
    (fun (fname, ctx) () ->
      match Hashtbl.find_opt st.fidx fname with
      | None -> ()
      | Some f -> (
        match sites_of f with
        | [] -> ()
        | sites ->
          let blk_ctrl = block_control_taint st f ctx in
          List.iter
            (fun (bid, loc, sink, v) -> check_value f ctx blk_ctrl bid loc sink v)
            sites))
    st.pairs;
  (* deduplicate by (sink, loc, kind), then emit in the canonical
     (file, line, code) order — [st.pairs] is a hash table, so the raw
     collection order is engine- and layout-dependent *)
  let seen = Hashtbl.create 16 in
  List.filter
    (fun (d : Report.dependency) ->
      let key = (d.d_sink, d.d_loc, d.d_kind) in
      if Hashtbl.mem seen key then false
      else begin
        Hashtbl.replace seen key ();
        true
      end)
    (List.rev !deps)
  |> List.stable_sort Report.compare_dependency

(* -- Entry point -------------------------------------------------------------------- *)

type result = {
  warnings : Report.warning list;
  dependencies : Report.dependency list;
  passes : int;
      (** legacy engine: dense fixpoint passes; worklist engine: 1 *)
  pair_count : int;
  engine_stats : (string * int) list;
      (** engine-specific counters surfaced in {!Report.t.stats}: empty
          for the legacy engine, edge/pop counts for {!Vfgraph} *)
  taint_state : state;  (** exposed for the value-flow-graph export *)
}

(** Fresh analysis state; shared with the sparse engine ({!Vfgraph}),
    which fills the same tables through a different propagation
    strategy. *)
let make_state ~(config : Config.t) ?absint (prog : Ssair.Ir.program) (shm : Shm.t)
    (p1 : Phase1.t) (pts : Pointsto.t) : state =
  let fidx = Hashtbl.create 64 in
  List.iter
    (fun (f : Ssair.Ir.func) ->
      if not (Hashtbl.mem fidx f.Ssair.Ir.fname) then Hashtbl.add fidx f.Ssair.Ir.fname f)
    prog.Ssair.Ir.funcs;
  let st =
    {
      prog;
      shm;
      p1;
      pts;
      config;
      absint;
      data = Hashtbl.create 256;
      ctrl = Hashtbl.create 256;
      pairs = Hashtbl.create 32;
      warnings = Hashtbl.create 32;
      brinfos = Hashtbl.create 16;
      fidx;
      noncore_sockets = Hashtbl.create 4;
      changed = false;
      passes = 0;
    }
  in
  collect_noncore_sockets st;
  st

(** Root (function, context) pairs: main with its own assumptions, plus
    every non-exempt function that is never called (library entry
    points).  Also shared with {!Vfgraph}. *)
let root_pairs st : (Ssair.Ir.func * Ctx.t) list =
  let prog = st.prog in
  let roots = ref [] in
  let add_root (f : Ssair.Ir.func) =
    roots := (f, Ctx.make (own_assumptions st f)) :: !roots
  in
  (match Hashtbl.find_opt st.fidx "main" with
  | Some m -> add_root m
  | None -> ());
  let called = Hashtbl.create 32 in
  List.iter
    (fun (f : Ssair.Ir.func) ->
      List.iter
        (fun (b : Ssair.Ir.block) ->
          List.iter
            (fun (i : Ssair.Ir.instr) ->
              match i.Ssair.Ir.idesc with
              | Ssair.Ir.Call { callee; _ } -> Hashtbl.replace called callee ()
              | _ -> ())
            b.Ssair.Ir.instrs)
        f.Ssair.Ir.blocks)
    prog.Ssair.Ir.funcs;
  List.iter
    (fun (f : Ssair.Ir.func) ->
      if
        (not (Hashtbl.mem called f.Ssair.Ir.fname))
        && (not (String.equal f.Ssair.Ir.fname "main"))
        && not (Phase1.is_exempt st.p1 f.Ssair.Ir.fname)
      then add_root f)
    prog.Ssair.Ir.funcs;
  List.rev !roots

let run ?(config = Config.default) ?absint (prog : Ssair.Ir.program) (shm : Shm.t)
    (p1 : Phase1.t) (pts : Pointsto.t) : result =
  let st = make_state ~config ?absint prog shm p1 pts in
  st.changed <- true;
  List.iter
    (fun ((f : Ssair.Ir.func), ctx) -> Hashtbl.replace st.pairs (f.Ssair.Ir.fname, ctx) ())
    (root_pairs st);
  (* fixpoint *)
  Telemetry.span "phase3.fixpoint" (fun () ->
      while st.changed do
        st.changed <- false;
        st.passes <- st.passes + 1;
        let pairs = Hashtbl.fold (fun k () acc -> k :: acc) st.pairs [] in
        List.iter
          (fun (fname, ctx) ->
            match Hashtbl.find_opt st.fidx fname with
            | Some f when not (Phase1.is_exempt p1 fname) -> analyze_pair st f ctx
            | _ -> ())
          pairs
      done);
  let dependencies = Telemetry.span "phase3.collect" (fun () -> collect_dependencies st) in
  {
    warnings =
      Hashtbl.fold (fun _ w acc -> w :: acc) st.warnings []
      |> List.stable_sort Report.compare_warning;
    dependencies;
    passes = st.passes;
    pair_count = Hashtbl.length st.pairs;
    engine_stats = [];
    taint_state = st;
  }
