(* The paper-shaped phase-3 fixpoint, kept as the differential oracle
   for the library engine (Vfgraph).  Every pass re-scans every
   discovered (function, context) pair, testing taint in hash tables of
   boxed entities, until no taint, warning or pair changes.  It shares
   the library's vocabulary (Phase3: contexts, entities, inputs, roots
   and the sink collection) and owns only the propagation.  Control
   dependence is the transitive closure of the CDG "controls" relation
   per branch, recomputed from the branch conditions' taint on every
   scan; the sink collection reads it through the [Epc] entities of
   its lookup. *)

open Safeflow
open Minic
open Phase3
module Offset = Pointsto.Offset

type state = {
  inp : inputs;
  data : (entity, origin) Hashtbl.t;  (** data-tainted entities *)
  ctrl : (entity, origin) Hashtbl.t;  (** control-tainted entities *)
  pairs : (string * Ctx.t, unit) Hashtbl.t;  (** discovered (function, context) pairs *)
  warnings : (Loc.t * string, Report.warning) Hashtbl.t;
  branches : (int, (Ssair.Ir.vid * Ssair.Ir.bid list) list) Hashtbl.t;
      (** {!branches} memo, by function index *)
  mutable changed : bool;
}

let data_tainted st e = Hashtbl.mem st.data e
let ctrl_tainted st e = Hashtbl.mem st.ctrl e

(* The slots reachable through [ds] in the CDG's "controls" relation
   that [seen] does not hold yet, marked there and consed onto [acc]. *)
let rec controlled (c : Ssair.Cdg.t) seen acc = function
  | [] -> acc
  | d :: rest ->
    if seen.(d) then controlled c seen acc rest
    else begin
      seen.(d) <- true;
      controlled c seen (controlled c seen (d :: acc) c.Ssair.Cdg.ctrl_slots.(d)) rest
    end

(** The undecided register branches of function [fx]: the condition,
    and the blocks transitively control-dependent on the branch block
    (excluding the block itself unless it controls itself). *)
let branches st fx =
  match Hashtbl.find_opt st.branches fx with
  | Some l -> l
  | None ->
    let f = Ssair.Index.func st.inp.index fx in
    let undecided (b : Ssair.Ir.block) =
      match st.inp.absint with
      | None -> true
      | Some ai -> Absint.dead_branch ai ~fname:f.Ssair.Ir.fname ~bid:b.Ssair.Ir.bbid = None
    in
    let c = Ssair.Cdg.compute f in
    let l =
      List.filter_map
        (fun (b : Ssair.Ir.block) ->
          match b.Ssair.Ir.termin with
          | (Ssair.Ir.Cbr (Ssair.Ir.Vreg id, _, _) | Ssair.Ir.Switch (Ssair.Ir.Vreg id, _, _))
            when undecided b ->
            let seen = Array.make (Array.length c.Ssair.Cdg.slot_bid) false in
            let s0 = c.Ssair.Cdg.slot_of b.Ssair.Ir.bbid in
            let slots = if s0 >= 0 then controlled c seen [] c.Ssair.Cdg.ctrl_slots.(s0) else [] in
            Some (id, List.map (fun s -> c.Ssair.Cdg.slot_bid.(s)) slots)
          | _ -> None)
        f.Ssair.Ir.blocks
    in
    Hashtbl.replace st.branches fx l;
    l

(** The blocks of [fx] under [ctx] that execute under a branch whose
    condition is tainted (data or ctrl): the union of those branches'
    closures. *)
let block_control_taint st fx ctx : (Ssair.Ir.bid, unit) Hashtbl.t =
  let fname = (Ssair.Index.func st.inp.index fx).Ssair.Ir.fname in
  let closed = Hashtbl.create 8 in
  List.iter
    (fun (id, closure) ->
      let e = Eval (fname, ctx, id) in
      if data_tainted st e || ctrl_tainted st e then
        List.iter (fun bid -> Hashtbl.replace closed bid ()) closure)
    (branches st fx);
  closed

(* [Epc] entities are answered from the closures *)
let lookup st =
  let pc = { parent = None; why = "block executes under an unsafe condition" } in
  { data = Hashtbl.find_opt st.data;
    ctrl =
      (function
      | Epc (fname, ctx, bid) ->
        let fx = Ssair.Index.find st.inp.index fname in
        if fx >= 0 && Hashtbl.mem (block_control_taint st fx ctx) bid then Some pc else None
      | e -> Hashtbl.find_opt st.ctrl e) }

let taint st table e ~parent ~why =
  if not (Hashtbl.mem table e) then begin
    Hashtbl.replace table e { parent; why };
    st.changed <- true
  end

let warn st (f : Ssair.Ir.func) ctx loc region =
  let key = (loc, region) in
  if not (Hashtbl.mem st.warnings key) then begin
    Hashtbl.replace st.warnings key
      { Report.w_func = f.fname; w_region = region; w_loc = loc; w_context = Ctx.names ctx };
    st.changed <- true
  end

let first_tainted fname ctx vs table =
  List.find_map
    (fun v ->
      match value_entity fname ctx v with
      | Some e when Hashtbl.mem table e -> Some e
      | _ -> None)
    vs

(** Analyze one function under one context; records taints, warnings and
    newly discovered (callee, context) pairs. *)
let analyze_pair st fx (ctx : Ctx.t) =
  let f = Ssair.Index.func st.inp.index fx in
  let env = st.inp.prog.Ssair.Ir.env in
  let fname = f.Ssair.Ir.fname in
  let blk_ctrl = block_control_taint st fx ctx in
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
                       (match st.inp.absint with
                       | None -> true
                       | Some ai ->
                         Absint.dead_branch ai ~fname ~bid:pblk.Ssair.Ir.bbid = None)
                       &&
                       let ce = Eval (fname, ctx, cid) in
                       data_tainted st ce || ctrl_tainted st ce
                     | _ -> false)
                   | None -> false)
                 p.Ssair.Ir.incoming
          in
          if st.inp.config.Config.control_deps && incoming_controlled then
            taint st st.ctrl self ~parent:None
              ~why:"phi merges paths controlled by an unsafe condition")
        b.Ssair.Ir.phis;
      List.iter
        (fun (i : Ssair.Ir.instr) ->
          let self = Eval (fname, ctx, i.Ssair.Ir.iid) in
          let flow_operands vs why =
            (match first_tainted fname ctx vs st.data with
            | Some e -> taint st st.data self ~parent:(Some e) ~why
            | None -> ());
            match first_tainted fname ctx vs st.ctrl with
            | Some e -> taint st st.ctrl self ~parent:(Some e) ~why
            | None -> ()
          in
          match i.Ssair.Ir.idesc with
          | Ssair.Ir.Alloca _ -> ()
          | Ssair.Ir.Load { ptr; lty } -> (
            (* 1. shared-memory reads *)
            let shm_targets = Phase1.shm_targets st.inp.p1 f ptr in
            Phase1.Rset.iter
              (fun tgt ->
                let rname = tgt.Phase1.Rtgt.region in
                match Shm.region st.inp.shm rname with
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
              (Pointsto.points_to st.inp.pts f ptr);
            (* 3. tainted address: attacker-chosen cell *)
            flow_operands [ ptr ] "load through unsafe pointer";
            ignore lty)
          | Ssair.Ir.Store { ptr; sval; _ } ->
            let mark table parent why =
              (* taint every object the store may write; shm-pointer
                 stores taint the region node, not the opaque segment *)
              let shm = Phase1.shm_targets st.inp.p1 f ptr in
              if Phase1.Rset.is_empty shm then
                Pointsto.Tset.iter
                  (fun tgt ->
                    taint st table (Enode tgt.Pointsto.Target.node) ~parent ~why)
                  (Pointsto.points_to st.inp.pts f ptr)
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
            if st.inp.config.Config.control_deps && in_tainted_block b.Ssair.Ir.bbid then
              mark st.ctrl None "store controlled by an unsafe condition"
          | Ssair.Ir.Binop { lhs; rhs; _ } -> flow_operands [ lhs; rhs ] "arithmetic"
          | Ssair.Ir.Unop { operand; _ } -> flow_operands [ operand ] "arithmetic"
          | Ssair.Ir.Cast { cval; _ } -> flow_operands [ cval ] "cast"
          | Ssair.Ir.Gep { base; idx; _ } -> flow_operands [ base; idx ] "address arithmetic"
          | Ssair.Ir.Annotation _ -> ()
          | Ssair.Ir.Call { callee; args; _ } -> (
            let gx = Ssair.Index.find st.inp.index callee in
            match Ssair.Index.func_opt st.inp.index callee with
            | Some g ->
              let gctx =
                if st.inp.config.Config.context_sensitive then
                  Ctx.union ctx (Ctx.make (own_assumptions st.inp gx))
                else Ctx.make (own_assumptions st.inp gx)
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
                    if st.inp.config.Config.control_deps && in_tainted_block b.Ssair.Ir.bbid
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
              if List.mem callee st.inp.config.Config.recv_functions then begin
                let socket_is_noncore =
                  match args with
                  | sock :: _ -> (
                    match sock with
                    | Ssair.Ir.Vparam p -> Hashtbl.mem st.inp.noncore_sockets p
                    | Ssair.Ir.Vreg id -> (
                      (* a load of an annotated global *)
                      let defs = Ssair.Ir.def_table f in
                      match Hashtbl.find_opt defs id with
                      | Some
                          (Ssair.Ir.Def_instr
                             ( { idesc = Ssair.Ir.Load { ptr = Ssair.Ir.Vglobal g; _ }; _ },
                               _ )) ->
                        Hashtbl.mem st.inp.noncore_sockets g
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
                      (Pointsto.points_to st.inp.pts f buf)
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
        if st.inp.config.Config.control_deps && in_tainted_block b.Ssair.Ir.bbid then
          taint st st.ctrl re ~parent:None
            ~why:"returned value selected by an unsafe condition")
      | _ -> ())
    f.Ssair.Ir.blocks

type result = {
  warnings : Report.warning list;
  dependencies : Report.dependency list;
  pairs : (string * Ctx.t, unit) Hashtbl.t;
}

let run ~config ?absint (shm : Shm.t) (p1 : Phase1.t) (pts : Pointsto.t) : result =
  let inp = make_inputs ~config ?absint shm p1 pts in
  let st =
    {
      inp;
      data = Hashtbl.create 256;
      ctrl = Hashtbl.create 256;
      pairs = Hashtbl.create 32;
      warnings = Hashtbl.create 32;
      branches = Hashtbl.create 16;
      changed = true;
    }
  in
  List.iter
    (fun (fx, ctx) -> Hashtbl.replace st.pairs ((Ssair.Index.func inp.index fx).Ssair.Ir.fname, ctx) ())
    (root_pairs inp);
  while st.changed do
    st.changed <- false;
    let pairs = Hashtbl.fold (fun k () acc -> k :: acc) st.pairs [] in
    List.iter
      (fun (fname, ctx) ->
        let fx = Ssair.Index.find inp.index fname in
        if fx >= 0 && not (Phase1.is_exempt p1 fname) then analyze_pair st fx ctx)
      pairs
  done;
  {
    warnings =
      Hashtbl.fold (fun _ w acc -> w :: acc) st.warnings []
      |> List.stable_sort Report.compare_warning;
    dependencies =
      collect_dependencies inp (lookup st)
        (List.rev (Hashtbl.fold (fun k () acc -> k :: acc) st.pairs []));
    pairs = st.pairs;
  }

(* the analyzed function universe, as Driver.analyzed_functions *)
let analyzed_functions (r : result) (p1 : Phase1.t) : string list =
  Hashtbl.fold
    (fun (fname, _) () acc -> if Phase1.is_exempt p1 fname then acc else fname :: acc)
    r.pairs []
  |> List.sort_uniq compare
