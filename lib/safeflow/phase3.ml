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
    unsafe values is tracked separately, through a program-counter
    entity per block ([Epc]; implicit flows through phis, conditional
    sinks and conditional stores), and reported as
    [Control_only] — the class the paper identifies as candidate false
    positives requiring value-flow-graph review (§3.4.1).

    This module holds what does not depend on how taint is propagated:
    monitoring contexts, taint entities, the per-program {!inputs}, the
    root pairs, the sink collection over a {!lookup} (visiting pairs in
    a caller-given order, see {!hashtbl_order}), the packed origin
    reasons ({!why_text}), and the {!result} with its flat taint
    state. *)

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
  | Epc of string * Ctx.t * Ssair.Ir.bid
      (** the program counter of a block in a pair: ctrl-tainted when an
          undecided branch whose condition is tainted (data or ctrl)
          reaches the block in the CDG "controls" relation *)

let pp_entity ppf = function
  | Eval (f, _, id) -> Fmt.pf ppf "%s:%%%d" f id
  | Eparam (f, _, p) -> Fmt.pf ppf "%s:param %s" f p
  | Eret (f, _) -> Fmt.pf ppf "%s:return" f
  | Enode n -> Fmt.pf ppf "mem %a" Pointsto.Node.pp n
  | Eregion r -> Fmt.pf ppf "non-core region %s" r
  | Epc (f, _, b) -> Fmt.pf ppf "%s:pc b%d" f b

type origin = { parent : entity option; why : string }

(** What phase 3 reads of the program and the earlier phases, plus the
    memos derived from them.  Independent of the taint state. *)
type inputs = {
  prog : Ssair.Ir.program;
  index : Ssair.Index.t;  (** of [prog]; phase 1's *)
  shm : Shm.t;
  p1 : Phase1.t;
  pts : Pointsto.t;
  config : Config.t;
  absint : Absint.t option;
      (** value ranges; decided branches exert no control dependence *)
  noncore_sockets : (string, unit) Hashtbl.t;
      (** [assume(noncore(s))] clauses naming something that is not a
          shared-memory region (message-passing extension §3.4.3) *)
  sites : site list option array;  (** {!sites_of} memo, by function index *)
}

(** A critical site: its block, location, sink description and the
    value checked there. *)
and site = Ssair.Ir.bid * Loc.t * string * Ssair.Ir.value

let make_inputs ~(config : Config.t) ?absint (shm : Shm.t) (p1 : Phase1.t) (pts : Pointsto.t) :
    inputs =
  let index = p1.Phase1.index in
  let prog = index.Ssair.Index.prog in
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
  let n = Ssair.Index.length index in
  { prog; index; shm; p1; pts; config; absint; noncore_sockets; sites = Array.make n None }

(** Assumptions contributed by function [fx]'s own [assume(core(...))]
    annotations (see {!Assume}). *)
let own_assumptions inp fx : assumption list =
  Assume.of_func ~shm:inp.shm ~p1:inp.p1 ~pts:inp.pts fx

(** Root (function index, context) pairs: main with its own
    assumptions, plus every non-exempt function that is never called
    (library entry points). *)
let root_pairs inp : (int * Ctx.t) list =
  let index = inp.index in
  let roots = ref [] in
  let add_root fx = roots := (fx, Ctx.make (own_assumptions inp fx)) :: !roots in
  let main = Ssair.Index.find index "main" in
  if main >= 0 then add_root main;
  let called = Array.make (Ssair.Index.length index) false in
  Array.iter (Array.iter (fun gx -> if gx >= 0 then called.(gx) <- true)) index.Ssair.Index.call_callees;
  Array.iteri
    (fun fx (f : Ssair.Ir.func) ->
      if
        (not called.(fx))
        && (not (String.equal f.Ssair.Ir.fname "main"))
        && not (Phase1.exempt_fx inp.p1 fx)
      then add_root fx)
    index.Ssair.Index.funcs;
  List.rev !roots

(* -- Taint lookups -------------------------------------------------------------- *)

(** How the sink collection reads a taint state: the first-taint origin
    of an entity in the data and in the control table, [None] when the
    entity is not tainted there.  Of an [Epc] only whether [ctrl] finds
    it is read; no witness names one. *)
type lookup = { data : entity -> origin option; ctrl : entity -> origin option }

let value_entity fname ctx (v : Ssair.Ir.value) : entity option =
  match v with
  | Ssair.Ir.Vreg id -> Some (Eval (fname, ctx, id))
  | Ssair.Ir.Vparam p -> Some (Eparam (fname, ctx, p))
  | _ -> None

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
  let step e key why parent =
    { Report.p_desc = Fmt.str "%a" pp_entity e; p_why = why; p_key = key; p_parent = parent }
  in
  (* [key] is [e]'s key, digested once: as the parent of the step
     before and as the key of [e]'s own step *)
  let rec go e key acc depth =
    if depth > 32 then Report.synthetic_step "..." :: acc
    else
      match origin_of e with
      | Some { parent = Some p; why } ->
        let pkey = entity_key p in
        go p pkey (step e key (Some why) (Some pkey) :: acc) (depth + 1)
      | Some { parent = None; why } -> step e key (Some why) None :: acc
      | None -> step e key None None :: acc
  in
  go e (entity_key e) [] 0

(** The critical sites of [f] in block and instruction order:
    [assert(safe(x))] annotations and the critical arguments of sink
    calls.  Context-independent, so memoized per function. *)
let rec instrs_have_site sinks = function
  | [] -> false
  | { Ssair.Ir.idesc = Ssair.Ir.Annotation { clause = Annot.Assert_safe _; aval = Some _ }; _ } :: _ ->
    true
  | { Ssair.Ir.idesc = Ssair.Ir.Call { callee; _ }; _ } :: _ when List.mem_assoc callee sinks -> true
  | _ :: rest -> instrs_have_site sinks rest

let rec blocks_have_site sinks = function
  | [] -> false
  | (b : Ssair.Ir.block) :: rest -> instrs_have_site sinks b.Ssair.Ir.instrs || blocks_have_site sinks rest

let rec sites_of inp fx : site list =
  match inp.sites.(fx) with
  | Some l -> l
  | None ->
    let f = Ssair.Index.func inp.index fx in
    (* most functions have no site: found out without allocating *)
    let l =
      if blocks_have_site inp.config.Config.critical_sinks f.Ssair.Ir.blocks then collect_sites inp f
      else []
    in
    inp.sites.(fx) <- Some l;
    l

and collect_sites inp (f : Ssair.Ir.func) =
  let sinks = inp.config.Config.critical_sinks in
  let acc = ref [] in
  List.iter
    (fun (b : Ssair.Ir.block) ->
      List.iter
        (fun (i : Ssair.Ir.instr) ->
          match i.Ssair.Ir.idesc with
          | Ssair.Ir.Annotation { clause = Annot.Assert_safe x; aval = Some v } ->
            acc := (b.Ssair.Ir.bbid, i.Ssair.Ir.iloc, Fmt.str "assert(safe(%s))" x, v) :: !acc
          | Ssair.Ir.Call { callee; args; _ } -> (
            (* the first entry for a callee wins *)
            match List.assoc_opt callee sinks with
            | Some indices ->
              List.iter
                (fun k ->
                  match List.nth_opt args k with
                  | Some arg ->
                    acc :=
                      (b.Ssair.Ir.bbid, i.Ssair.Ir.iloc, Fmt.str "argument %d of %s" k callee, arg)
                      :: !acc
                  | None -> ())
                indices
            | None -> ())
          | _ -> ())
        b.Ssair.Ir.instrs)
    f.Ssair.Ir.blocks;
  List.rev !acc

(** The iteration order of a [Hashtbl.create 32] table into which the
    keys of [added] (distinct) were inserted one at a time, in array
    order, restricted to the keys that satisfy [keep]: bucket index
    ([Hashtbl.hash] modulo the final bucket count) ascending, and within
    a bucket the latest insertion first.  Only kept keys are hashed. *)
let hashtbl_order ~keep (added : 'a array) : 'a list =
  let n = Array.length added in
  let buckets = ref 32 in
  for size = 1 to n do
    if size > 2 * !buckets then buckets := 2 * !buckets
  done;
  let mask = !buckets - 1 in
  let kept = ref [] in
  for i = n - 1 downto 0 do
    let k = added.(i) in
    if keep k then kept := (Hashtbl.hash k land mask, -i, k) :: !kept
  done;
  List.stable_sort (fun (b1, i1, _) (b2, i2, _) -> if b1 <> b2 then Int.compare b1 b2 else Int.compare i1 i2) !kept
  |> List.map (fun (_, _, k) -> k)

(** After propagation: evaluate assert(safe(x)) annotations and implicit
    critical sinks of every pair of [pairs], in that order, producing
    dependencies.  The order decides which witness a deduplicated
    dependency keeps. *)
let collect_dependencies inp (tl : lookup) (pairs : (string * Ctx.t) list) :
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
  let check_value f ctx bid loc sink (v : Ssair.Ir.value) =
    let fname = f.Ssair.Ir.fname in
    match value_entity fname ctx v with
    | Some e when data_tainted e -> add Report.Data sink fname loc (path_of tl.data e)
    | Some e when config.Config.control_deps && ctrl_tainted e ->
      add Report.Control_only sink fname loc (path_of tl.ctrl e)
    | _ ->
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
      (* the value itself is untainted: is the site's block under a
         tainted branch? *)
      if config.Config.control_deps && ctrl_tainted (Epc (fname, ctx, bid)) then
        add Report.Control_only sink fname loc
          [
            Report.synthetic_step
              "critical site executes under a condition influenced by non-core values";
          ]
  in
  List.iter
    (fun (fname, ctx) ->
      let fx = Ssair.Index.find inp.index fname in
      if fx >= 0 then (
        match sites_of inp fx with
        | [] -> ()
        | sites ->
          let f = Ssair.Index.func inp.index fx in
          List.iter (fun (bid, loc, sink, v) -> check_value f ctx bid loc sink v) sites))
    pairs;
  (* deduplicate by (sink, loc, kind), then emit in the canonical
     (file, line, code) order *)
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
   1 Eparam(fname,ctx,pname), 2 Eret(fname,ctx), 3 Enode, 4 Eregion,
   5 Epc(fname,ctx,bid). *)
let pack_key tag a b c =
  if a lor c > 0xFFFFF || b > 0x7FFFF then failwith "Phase3: packed entity key overflow";
  tag lor (a lsl 3) lor (b lsl 23) lor (c lsl 42)

(* Origin reasons as packed ints: [payload lsl 3 lor kind].  Kind 0 is
   an index into {!flat.whys} (the fixed reasons and the formatted
   unmonitored-read ones); the reasons of call edges name a function by
   its {!flat.strs} id and are formatted only when a witness or an
   export reads them ({!why_text}). *)
let why_string i = i lsl 3

let why_arg ~callee k =
  if k > 0xFFFF then failwith "Phase3: argument index overflow (packed reason)";
  (((callee lsl 16) lor k) lsl 3) lor 1

let why_ret ~callee = (callee lsl 3) lor 2
let why_ext ~callee = (callee lsl 3) lor 3

(** One taint table (data or control) over dense entity ids. *)
type table = {
  bits : Bitset.t;  (** tainted ids *)
  parent : int array;  (** first-taint parent id, -1 = none *)
  why : int array;  (** packed reason ({!why_text}); valid iff the bit is set *)
}

(** The taint state phase 3 ends with, as the engine holds it: entities
    interned to dense ids and stored as packed keys over the interned
    names, contexts and memory nodes.  Pure data, so the cache stores it
    as is. *)
type flat = {
  entities : int;  (** entity count; ids are [0 .. entities - 1] *)
  keys : int array;
      (** packed entity key per entity id ({!pack_key}); this and the
          tables' arrays may be longer than [entities] *)
  strs : string array;  (** function, parameter and region names *)
  ctxs : Ctx.t array;
  nodes : Pointsto.Node.t array;
  whys : string array;  (** origin reasons that are not call edges' *)
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
  | 4 -> Eregion f.strs.(a)
  | _ -> Epc (f.strs.(a), f.ctxs.(b), c)

(** The text of a packed reason. *)
let why_text (f : flat) code =
  let p = code lsr 3 in
  match code land 7 with
  | 0 -> f.whys.(p)
  | 1 -> "argument " ^ string_of_int (p land 0xFFFF) ^ " of call to " ^ f.strs.(p lsr 16)
  | 2 -> "return value of " ^ f.strs.(p)
  | _ -> "through external call " ^ f.strs.(p)

(** First-taint origin of entity [id] in table [t], if tainted there. *)
let origin (f : flat) (t : table) id : origin option =
  if not (Bitset.get t.bits id) then None
  else
    let p = t.parent.(id) in
    Some { parent = (if p < 0 then None else Some (entity f p)); why = why_text f t.why.(id) }

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
