(** Phase 3 (paper §3.3): value-flow analysis — the vocabulary shared by
    the engine ({!Vfgraph}) and its readers.

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
    positives requiring value-flow-graph review (§3.4.1).

    This module holds what does not depend on how taint is propagated:
    monitoring contexts, taint entities, the per-program {!inputs}, the
    root pairs, the sink collection over a {!lookup}, and the {!result}
    with its flat taint state. *)

open Minic

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
    "controls" relation.  Memoized in {!inputs} ([brinfos]); only the
    branch conditions' taint is dynamic. *)
type brinfo = {
  br_branches : (Ssair.Ir.bid * Ssair.Ir.vid * Ssair.Ir.bid list) list;
      (** blocks ending in [Cbr]/[Switch] on a register: block, cond
          vid, and the blocks transitively control-dependent on the
          block (as a set — member order is not meaningful) *)
  br_decided : bool array;
      (** by block id: the block's branch is decided by the value
          ranges; empty when none is *)
}

(** What phase 3 reads of the program and the earlier phases, plus the
    memos derived from them.  Independent of the taint state. *)
type inputs = {
  prog : Ssair.Ir.program;
  shm : Shm.t;
  p1 : Phase1.t;
  pts : Pointsto.t;
  config : Config.t;
  absint : Absint.t option;
      (** value ranges; decided branches exert no control dependence *)
  brinfos : (string, brinfo) Hashtbl.t;
  find : string -> Ssair.Ir.func option;  (** {!Ssair.Ir.func_index} of [prog] *)
  noncore_sockets : (string, unit) Hashtbl.t;
      (** [assume(noncore(s))] clauses naming something that is not a
          shared-memory region (message-passing extension §3.4.3) *)
}

let make_inputs ~(config : Config.t) ?absint (prog : Ssair.Ir.program) (shm : Shm.t)
    (p1 : Phase1.t) (pts : Pointsto.t) : inputs =
  let noncore_sockets = Hashtbl.create 4 in
  List.iter
    (fun (f : Ssair.Ir.func) ->
      List.iter
        (function
          | Annot.Noncore name when Shm.region shm name = None ->
            Hashtbl.replace noncore_sockets name ()
          | _ -> ())
        f.Ssair.Ir.fannot)
    prog.Ssair.Ir.funcs;
  { prog; shm; p1; pts; config; absint; brinfos = Hashtbl.create 16;
    find = Ssair.Ir.func_index prog; noncore_sockets }

(* A conditional branch whose condition's value range decides the
   direction takes the same successor in every concrete execution, so it
   exerts no control dependence.  Pruning it is precision-only: findings
   can disappear, never appear. *)
let decided_in table bid = bid < Array.length table && table.(bid)

let branch_decided (bi : brinfo) (bid : Ssair.Ir.bid) : bool = decided_in bi.br_decided bid

(** Memoized {!brinfo} of [f].  Pure with respect to the taint state;
    it writes the memo tables, so it must not run on two domains at
    once. *)
let branch_info inp (f : Ssair.Ir.func) : brinfo =
  match Hashtbl.find_opt inp.brinfos f.fname with
  | Some bi -> bi
  | None ->
    let br_decided =
      match inp.absint with
      | None -> [||]
      | Some ai -> (
        match Absint.decided_branches ai ~fname:f.fname with
        | [] -> [||]
        | bids ->
          let a = Array.make (1 + List.fold_left max 0 bids) false in
          List.iter (fun bid -> a.(bid) <- true) bids;
          a)
    in
    let br_branches =
      List.filter_map
        (fun (b : Ssair.Ir.block) ->
          (* decided branches exert no control dependence *)
          if decided_in br_decided b.Ssair.Ir.bbid then None
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
    let bi = { br_branches; br_decided } in
    Hashtbl.replace inp.brinfos f.fname bi;
    bi

(** Assumptions contributed by function [f]'s own [assume(core(...))]
    annotations (see {!Assume}). *)
let own_assumptions inp (f : Ssair.Ir.func) : assumption list =
  Assume.of_func ~prog:inp.prog ~shm:inp.shm ~p1:inp.p1 ~pts:inp.pts f

(** Root (function, context) pairs: main with its own assumptions, plus
    every non-exempt function that is never called (library entry
    points). *)
let root_pairs inp : (Ssair.Ir.func * Ctx.t) list =
  let prog = inp.prog in
  let roots = ref [] in
  let add_root (f : Ssair.Ir.func) =
    roots := (f, Ctx.make (own_assumptions inp f)) :: !roots
  in
  (match inp.find "main" with
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
        && not (Phase1.is_exempt inp.p1 f.Ssair.Ir.fname)
      then add_root f)
    prog.Ssair.Ir.funcs;
  List.rev !roots

(* -- Taint lookups -------------------------------------------------------------- *)

(** How the sink collection reads a taint state: the first-taint origin
    of an entity in the data and in the control table, [None] when the
    entity is not tainted there. *)
type lookup = { data : entity -> origin option; ctrl : entity -> origin option }

let value_entity fname ctx (v : Ssair.Ir.value) : entity option =
  match v with
  | Ssair.Ir.Vreg id -> Some (Eval (fname, ctx, id))
  | Ssair.Ir.Vparam p -> Some (Eparam (fname, ctx, p))
  | _ -> None

(** Blocks' tainted-control status: block → is any controlling branch
    condition tainted (data or ctrl)?  The closure of the "controls"
    relation is static per function ({!branch_info}); only the branch
    conditions' taint is dynamic, and the closure of a union of branch
    sets equals the union of the per-branch closures. *)
let block_control_taint inp (tl : lookup) (f : Ssair.Ir.func) ctx :
    (Ssair.Ir.bid, unit) Hashtbl.t =
  let bi = branch_info inp f in
  let closed = Hashtbl.create 8 in
  List.iter
    (fun (_bB, id, closure) ->
      let e = Eval (f.fname, ctx, id) in
      if tl.data e <> None || tl.ctrl e <> None then
        List.iter (fun dep -> Hashtbl.replace closed dep ()) closure)
    bi.br_branches;
  closed

(* -- Sinks and asserts ------------------------------------------------------------ *)

(** Stable opaque identity of a taint entity — the [p_key] of witness
    steps.  Entities are pure data, so the digest is deterministic
    across runs and processes. *)
let entity_key (e : entity) : string =
  Digest.to_hex (Digest.string (Marshal.to_string e [ Marshal.No_sharing ]))

(** Walk first-taint origins ([origin_of] reads one table of a
    {!lookup}) from [e] back to a source, producing the structured
    witness path, source first.  Each step records the entity it came
    from ([p_parent]), so consecutive steps form a checkable chain; the
    string trace is derived from this path ({!Report.path_strings}),
    keeping both in lockstep. *)
let path_of (origin_of : entity -> origin option) e : Report.path_step list =
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
      match origin_of e with
      | Some { parent = Some p; why } -> go p (step e (Some why) (Some p) :: acc) (depth + 1)
      | Some { parent = None; why } -> step e (Some why) None :: acc
      | None -> step e None None :: acc
  in
  go e [] 0

(** After propagation: evaluate assert(safe(x)) annotations and implicit
    critical sinks of every discovered pair, in [pairs]' iteration order,
    producing dependencies. *)
let collect_dependencies inp (tl : lookup) (pairs : (string * Ctx.t, unit) Hashtbl.t) :
    Report.dependency list =
  let config = inp.config in
  let data_tainted e = tl.data e <> None and ctrl_tainted e = tl.ctrl e <> None in
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
    | Some e when data_tainted e -> add Report.Data sink fname loc (path_of tl.data e)
    | Some e when config.Config.control_deps && ctrl_tainted e ->
      add Report.Control_only sink fname loc (path_of tl.ctrl e)
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
        let reach = Pointsto.reachable inp.pts (Pointsto.points_to inp.pts f v) in
        match
          Pointsto.Tset.fold
            (fun tgt acc ->
              match acc with
              | Some _ -> acc
              | None ->
                let ne = Enode tgt.Pointsto.Target.node in
                if data_tainted ne then Some ne else None)
            reach None
        with
        | Some ne ->
          add Report.Data sink f.Ssair.Ir.fname loc
            (path_of tl.data ne @ [ Report.synthetic_step "reachable from critical pointer" ])
        | None -> ()
      end;
      if
        config.Config.control_deps
        && (not (data_tainted e))
        && (not (ctrl_tainted e))
        && Hashtbl.mem blk_ctrl bid
      then
        add Report.Control_only sink fname loc
          [
            Report.synthetic_step
              "critical site executes under a condition influenced by non-core values";
          ]
    | None ->
      if config.Config.control_deps && Hashtbl.mem blk_ctrl bid then
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
    config.Config.critical_sinks;
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
      match inp.find fname with
      | None -> ()
      | Some f -> (
        match sites_of f with
        | [] -> ()
        | sites ->
          let blk_ctrl = block_control_taint inp tl f ctx in
          List.iter
            (fun (bid, loc, sink, v) -> check_value f ctx blk_ctrl bid loc sink v)
            sites))
    pairs;
  (* deduplicate by (sink, loc, kind), then emit in the canonical
     (file, line, code) order — [pairs] is a hash table, so the raw
     collection order is layout-dependent *)
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

(* -- The flat taint state ----------------------------------------------------------- *)

(* Packed entity key: tag(3) | a(20) | b(19) | c(20) — 62 bits, so the
   word stays a non-negative OCaml int; a/b/c are ids into the [strs],
   [ctxs] and [nodes] tables of a {!flat}.  Tags: 0 Eval(fname,ctx,vid),
   1 Eparam(fname,ctx,pname), 2 Eret(fname,ctx), 3 Enode, 4 Eregion. *)
let pack_key tag a b c =
  if a lor c > 0xFFFFF || b > 0x7FFFF then failwith "Phase3: packed entity key overflow";
  tag lor (a lsl 3) lor (b lsl 23) lor (c lsl 42)

(** One taint table (data or control) over dense entity ids. *)
type table = {
  bits : Bitset.t;  (** tainted ids *)
  parent : int array;  (** first-taint parent id, -1 = none *)
  why : int array;  (** index into {!flat.whys}; valid iff the bit is set *)
}

(** The taint state phase 3 ends with, as the engine holds it: entities
    interned to dense ids and stored as packed keys over the interned
    names, contexts and memory nodes.  Pure data, so the cache stores it
    as is. *)
type flat = {
  keys : int array;  (** packed entity key per entity id ({!pack_key}) *)
  strs : string array;  (** function, parameter and region names *)
  ctxs : Ctx.t array;
  nodes : Pointsto.Node.t array;
  whys : string array;  (** origin reasons *)
  data : table;
  ctrl : table;
  pairs : int array;
      (** discovered (function, context) pairs in discovery order, each
          [(fname id lsl 20) lor ctx id] *)
}

let entity (f : flat) id : entity =
  let k = f.keys.(id) in
  let a = (k lsr 3) land 0xFFFFF and b = (k lsr 23) land 0x7FFFF and c = k lsr 42 in
  match k land 7 with
  | 0 -> Eval (f.strs.(a), f.ctxs.(b), c)
  | 1 -> Eparam (f.strs.(a), f.ctxs.(b), f.strs.(c))
  | 2 -> Eret (f.strs.(a), f.ctxs.(b))
  | 3 -> Enode f.nodes.(a)
  | _ -> Eregion f.strs.(a)

(** First-taint origin of entity [id] in table [t], if tainted there. *)
let origin (f : flat) (t : table) id : origin option =
  if not (Bitset.get t.bits id) then None
  else
    let p = t.parent.(id) in
    Some { parent = (if p < 0 then None else Some (entity f p)); why = f.whys.(t.why.(id)) }

(** Function name of every discovered pair, in discovery order. *)
let pair_functions (f : flat) : string list =
  Array.fold_right (fun k acc -> f.strs.(k lsr 20) :: acc) f.pairs []

(* -- Result ------------------------------------------------------------------------- *)

type result = {
  warnings : Report.warning list;
  dependencies : Report.dependency list;
  pair_count : int;
  engine_stats : (string * int) list;
      (** counters surfaced in {!Report.t.stats}: entity, context, edge
          and worklist counts *)
  flat : flat;  (** the taint state, for the value-flow-graph export *)
}
