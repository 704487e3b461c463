(** Sparse worklist phase-3 engine (see the interface for the contract).

    Structure: entities are interned to dense ids; per-entity taint bits
    live in packed bitsets ({!Bitset}), origins in parallel int arrays,
    and the successor edges in one flat edge array that is finalized
    into a CSR adjacency ({!Csr}) right before the single worklist
    drain.  Each newly discovered (function, context) pair is walked
    once by {!walk_pair} — the paper's per-pair transfer where every
    dynamic taint test becomes a static edge — straight into the live
    graph, then {!drain} runs the worklist to closure.  The interned
    state itself is the result ({!Phase3.flat}); the sink collection
    reads it through a {!Phase3.lookup}.

    Entity keys, (function, context) pair keys and worklist items are
    all single ints; the taint hot path does no boxed hashing at all. *)

open Minic
module Offset = Pointsto.Offset

(* Edge modes: how taint crosses the edge and which origin is recorded.
   [mdata]/[mctrl] carry data→data / ctrl→ctrl flows with the source as
   trace parent; [mboth] fuses a data and a ctrl edge sharing
   destination and reason (the overwhelmingly common pairing);
   [many_ctrl] carries the control-dependence rules, which fire on either
   taint kind and record no parent.  Encoded in 2 bits of the edge info
   word: [info = mode lor (why_id lsl 2)]. *)
let mdata = 0

let mctrl = 1

let mboth = 2

let many_ctrl = 3

(* -- CSR adjacency --------------------------------------------------------------- *)

module Csr = struct
  type t = { off : int array; dst : int array; info : int array }

  (* Counting sort of the flat edge arrays into row-major adjacency.
     Row iteration order must reproduce the cons-list engine it
     replaces, which prepended each new edge and iterated head-first —
     i.e. each row reads in {e reverse insertion order}.  So after the
     prefix sums set [cur.(s)] to the end of row [s], edges are scanned
     {e forward} and placed back-to-front: the first-inserted edge lands
     at the row's end, the last at its start.  First-win taint origins
     (and hence witness traces) depend on this order. *)
  let build ~n ~(src : int array) ~(dst : int array) ~(info : int array) ~len =
    let off = Array.make (n + 1) 0 in
    for i = 0 to len - 1 do
      let s = Array.unsafe_get src i in
      Array.unsafe_set off s (Array.unsafe_get off s + 1)
    done;
    (* [off.(s)] becomes the end of row [s], then serves as its cursor:
       after every edge is placed it is the start of the row *)
    let total = ref 0 in
    for s = 0 to n - 1 do
      total := !total + Array.unsafe_get off s;
      Array.unsafe_set off s !total
    done;
    off.(n) <- !total;
    let cdst = Array.make len 0 and cinfo = Array.make len 0 in
    for i = 0 to len - 1 do
      let s = Array.unsafe_get src i in
      let p = Array.unsafe_get off s - 1 in
      Array.unsafe_set off s p;
      Array.unsafe_set cdst p (Array.unsafe_get dst i);
      Array.unsafe_set cinfo p (Array.unsafe_get info i)
    done;
    { off; dst = cdst; info = cinfo }

  let degree t i = t.off.(i + 1) - t.off.(i)

  let row t i =
    List.init (degree t i) (fun j ->
        (t.dst.(t.off.(i) + j), t.info.(t.off.(i) + j)))
end

(* -- Graph state ----------------------------------------------------------------- *)

(* Per-function facts that do not depend on the monitoring context,
   built on the function's first walk. *)
type finfo = {
  fi_func : Ssair.Ir.func;
  fi_sid : int;  (** [strs] id of the name *)
  fi_cond : int array;
      (** by block id: the register condition of the block's branch when
          the value ranges leave its direction open, else -1; empty
          without control dependence *)
  fi_cdg : Ssair.Cdg.t option;  (** when some [fi_pc] is [pc_own] *)
  fi_pc : int array;
      (** by block id, what is tainted when the block executes under a
          tainted branch: [pc_none] when no undecided branch reaches the
          block in the CDG, the value id of the condition when exactly
          one does, else [pc_own] (the block's own pc entity); empty
          without a CDG *)
  fi_pnames : string array;  (** parameter names, in order *)
  fi_psids : int array;  (** their [strs] ids *)
}

(* -- Static why table ---------------------------------------------------------- *)

(* Origin reasons known at compile time, interned first (so their
   {!Phase3.why_string} codes are their indices here). *)
let static_whys =
  [|
    "phi merge";
    "phi merges paths controlled by an unsafe condition";
    "read of core region holding an unsafe value";
    "load from unsafe memory object";
    "load from control-unsafe memory object";
    "load through unsafe pointer";
    "unsafe value stored";
    "control-unsafe value stored";
    "store controlled by an unsafe condition";
    "arithmetic";
    "cast";
    "address arithmetic";
    "call controlled by an unsafe condition";
    "data received from a non-core component";
    "returned";
    "returned value selected by an unsafe condition";
    "block executes under an unsafe condition";
  |]

(* codes of [static_whys] *)
let w_phi = Phase3.why_string 0
let w_phi_ctrl = Phase3.why_string 1
let w_core_read = Phase3.why_string 2
let w_load_unsafe = Phase3.why_string 3
let w_load_ctrl_unsafe = Phase3.why_string 4
let w_load_ptr = Phase3.why_string 5
let w_store_d = Phase3.why_string 6
let w_store_c = Phase3.why_string 7
let w_store_ctrl = Phase3.why_string 8
let w_arith = Phase3.why_string 9
let w_cast = Phase3.why_string 10
let w_addr = Phase3.why_string 11
let w_call_ctrl = Phase3.why_string 12
let w_recv = Phase3.why_string 13
let w_ret = Phase3.why_string 14
let w_ret_ctrl = Phase3.why_string 15
let w_pc = Phase3.why_string 16

(* What the walk memoizes per (callee, calling context): the callee's
   parameter and return entities in the callee context.  They are the
   same at every call site, so they are computed (and the callee pair
   discovered) once. *)
type cmemo =
  | Cdefined of {
      cm_callee : int;  (** [strs] id, for the packed reasons *)
      cm_params : int array;  (** entity id per parameter position *)
      cm_ret : int;
    }
  | Cextern of { cm_callee : int }

type t = {
  inp : Phase3.inputs;
  funcs : Ssair.Ir.func array;  (** the program index's functions, by function index *)
  mutable pair_arr : int array;  (** packed pair keys in discovery order ([pairs_seen] ids) *)
  warnings : (Loc.t * string, Report.warning) Hashtbl.t;  (** by (loc, region) *)
  ctxs : Intern.Ctx.store;
  strs : string Intern.t;
  nodes : Pointsto.Node.t Intern.t;
  whys : string Intern.t;  (** reasons of kind {!Phase3.why_string} *)
  keys : Intern.Packed.t;  (** packed entity key → dense entity id *)
  finfos : finfo option array;  (** by function index *)
  own_cids : int array;
      (** by function index: context id of the function's own
          assumptions, -1 until first needed *)
  pairs_seen : Intern.Packed.t;  (** packed (fname id lsl 20) lor ctx id *)
  mutable walk_q : int array;
      (** the pairs to walk in discovery order, each
          [(function index lsl 20) lor context id]; exempt functions'
          pairs are discovered but not walked *)
  mutable walk_n : int;
  cmemos : (int, cmemo) Hashtbl.t;  (** by (callee [strs] id lsl 20) lor caller context id *)
  (* node/region entities are context-free, so their dense ids are
     cached per node/string id (-1 = not yet interned): no packed-key
     interning on the hot Load/Store path after first sight *)
  mutable node_eids : int array;
  mutable region_eids : int array;
  (* worklist FIFO of codes [entity id * 2 + (ctrl ? 1 : 0)]; drained
     once after every pair is walked, so a plain append-only array
     suffices *)
  mutable wl : int array;
  mutable wl_head : int;
  mutable wl_tail : int;
  (* parallel per-entity arrays, grown together by {!ensure_cap} *)
  mutable ekeys : int array;  (** packed entity key per id *)
  data : Bitset.t;
  ctrl : Bitset.t;
  mutable d_parent : int array;  (** -1 = no parent *)
  mutable c_parent : int array;
  mutable d_why : int array;  (** packed reasons, valid iff the taint bit is set *)
  mutable c_why : int array;
  (* flat edge arrays in insertion order; finalized into [csr] once all
     pairs are walked (no edges appear during the drain) *)
  mutable es : int array;
  mutable ed : int array;
  mutable einfo : int array;
  mutable n_edges : int;
  mutable csr : Csr.t;
  mutable n_pops : int;
  mutable n_pushes : int;
  (* The pair being walked, and its scratch.  Scratch entries are
     stamped with the pair's serial number, so nothing is cleared or
     reallocated between pairs. *)
  mutable w_fi : finfo;
  mutable w_fx : int;  (** function index *)
  mutable w_fid : int;  (** [strs] id of the function *)
  mutable w_cid : int;
  mutable w_ctx : Phase3.Ctx.t;
  mutable w_p1 : Phase1.Rset.t array;  (** phase-1 facts of the function's values, by value id *)
  mutable w_pts : Pointsto.Tset.t array;  (** points-to facts, the same way *)
  mutable w_serial : int;
  mutable val_gen : int array;  (** by value id: serial of the cached entity *)
  mutable val_eid : int array;  (** by value id: its entity id *)
  mutable w_late : int list;
      (** blocks of the pair whose pc is a condition but that have a pc
          entity, to be wired from the condition *)
  (* per-run sub-timings, read only when telemetry is on *)
  mutable ns_cdg : int;
  mutable ns_callee : int;
  mutable ns_wire : int;
}

(* Counter inventory (registered at module init so the names exist in
   every stats snapshot, even as zeros on runs without phase 3). *)
let c_wl_pushes = Telemetry.counter "vf.worklist_pushes"
let c_wl_pops = Telemetry.counter "vf.worklist_pops"
let c_edges = Telemetry.counter "vf.edges_built"
let c_entities = Telemetry.counter "vf.entities"
let c_contexts = Telemetry.counter "vf.contexts"
let c_pair_built = Telemetry.counter "vf.pair_blocks_built"
let c_csr_build_us = Telemetry.counter "vf.csr_build_us"
let c_bitset_words = Telemetry.counter "vf.bitset_words"
let c_drain_edges_per_sec = Telemetry.counter "vf.drain_edges_per_sec"
let c_cdg_us = Telemetry.counter "phase3.cdg_us"
let c_callee_us = Telemetry.counter "phase3.callee_us"
let c_ctrl_edges_us = Telemetry.counter "phase3.ctrl_edges_us"
let h_pair_build = Telemetry.histogram "pair.build"

let no_func =
  { Ssair.Ir.fname = ""; fret = Ty.Void; fparams = []; blocks = []; fentry = 0; fannot = [];
    floc = Loc.dummy }

let no_finfo =
  { fi_func = no_func; fi_sid = -1;
    fi_cond = [||]; fi_cdg = None; fi_pc = [||]; fi_pnames = [||]; fi_psids = [||] }

let create (inp : Phase3.inputs) =
  let whys = Intern.create 64 in
  Array.iter (fun s -> ignore (Intern.intern whys s)) static_whys;
  let funcs = inp.Phase3.index.Ssair.Index.funcs in
  let nfuncs = Array.length funcs in
  (* size the flat stores from the function count so typical runs never
     grow mid-build (about 9 entities and 13 edges per function on
     synth-384); everything still grows on demand for denser programs.
     The floor stays small: a small program (a fleet member) would
     otherwise allocate, and leave for the major collector, some 13k
     words of stores it never fills *)
  let ecap = max 64 (10 * nfuncs) in
  let edgecap = max 64 (13 * nfuncs) in
  {
    inp;
    funcs;
    pair_arr = Array.make (max 16 nfuncs) 0;
    warnings = Hashtbl.create 32;
    ctxs = Intern.Ctx.create ();
    strs = Intern.create 64;
    nodes = Intern.create 64;
    whys;
    keys = Intern.Packed.create ecap;
    finfos = Array.make nfuncs None;
    own_cids = Array.make nfuncs (-1);
    pairs_seen = Intern.Packed.create nfuncs;
    walk_q = Array.make (max 16 nfuncs) 0;
    walk_n = 0;
    cmemos = Hashtbl.create 256;
    node_eids = Array.make 64 (-1);
    region_eids = Array.make 64 (-1);
    wl = Array.make (max 64 (ecap / 2)) 0;
    wl_head = 0;
    wl_tail = 0;
    ekeys = Array.make ecap 0;
    data = Bitset.create ecap;
    ctrl = Bitset.create ecap;
    d_parent = Array.make ecap (-1);
    c_parent = Array.make ecap (-1);
    d_why = Array.make ecap (-1);
    c_why = Array.make ecap (-1);
    es = Array.make edgecap 0;
    ed = Array.make edgecap 0;
    einfo = Array.make edgecap 0;
    n_edges = 0;
    csr = Csr.{ off = [| 0 |]; dst = [||]; info = [||] };
    n_pops = 0;
    n_pushes = 0;
    w_fi = no_finfo;
    w_fx = -1;
    w_fid = -1;
    w_cid = -1;
    w_ctx = Phase3.Ctx.empty;
    w_p1 = [||];
    w_pts = [||];
    w_serial = 0;
    val_gen = Array.make 64 0;
    val_eid = Array.make 64 0;
    w_late = [];
    ns_cdg = 0;
    ns_callee = 0;
    ns_wire = 0;
  }

let ensure_cap g n =
  let cap = Array.length g.ekeys in
  if n > cap then begin
    let cap' = max 256 (max n (2 * cap)) in
    let grow_arr dummy a =
      let a' = Array.make cap' dummy in
      Array.blit a 0 a' 0 cap;
      a'
    in
    g.ekeys <- grow_arr 0 g.ekeys;
    g.d_parent <- grow_arr (-1) g.d_parent;
    g.c_parent <- grow_arr (-1) g.c_parent;
    g.d_why <- grow_arr (-1) g.d_why;
    g.c_why <- grow_arr (-1) g.c_why;
    Bitset.ensure g.data cap';
    Bitset.ensure g.ctrl cap'
  end

(* -- Taint setting and propagation -------------------------------------------- *)

let data_tainted g eid = Bitset.get g.data eid
let ctrl_tainted g eid = Bitset.get g.ctrl eid

let wl_push g code =
  let n = g.wl_tail in
  if n = Array.length g.wl then begin
    let a' = Array.make (2 * n) 0 in
    Array.blit g.wl 0 a' 0 n;
    g.wl <- a'
  end;
  Array.unsafe_set g.wl n code;
  g.wl_tail <- n + 1

let set_data g eid ~parent ~why =
  if not (Bitset.get g.data eid) then begin
    Bitset.set g.data eid;
    g.d_parent.(eid) <- parent;
    g.d_why.(eid) <- why;
    g.n_pushes <- g.n_pushes + 1;
    wl_push g (eid * 2)
  end

let set_ctrl g eid ~parent ~why =
  if not (Bitset.get g.ctrl eid) then begin
    Bitset.set g.ctrl eid;
    g.c_parent.(eid) <- parent;
    g.c_why.(eid) <- why;
    g.n_pushes <- g.n_pushes + 1;
    wl_push g ((eid * 2) + 1)
  end

(** Append an edge and replay the source's current taint across it, so
    edges built after their source was tainted still fire.  [why] is a
    global why id. *)
let add_edge g src dst mode why =
  let n = g.n_edges in
  if n = Array.length g.es then begin
    let grow a =
      let a' = Array.make (2 * n) 0 in
      Array.blit a 0 a' 0 n;
      a'
    in
    g.es <- grow g.es;
    g.ed <- grow g.ed;
    g.einfo <- grow g.einfo
  end;
  Array.unsafe_set g.es n src;
  Array.unsafe_set g.ed n dst;
  Array.unsafe_set g.einfo n (mode lor (why lsl 2));
  g.n_edges <- n + 1;
  if mode = mdata then begin
    if data_tainted g src then set_data g dst ~parent:src ~why
  end
  else if mode = mctrl then begin
    if ctrl_tainted g src then set_ctrl g dst ~parent:src ~why
  end
  else if mode = mboth then begin
    if data_tainted g src then set_data g dst ~parent:src ~why;
    if ctrl_tainted g src then set_ctrl g dst ~parent:src ~why
  end
  else if data_tainted g src || ctrl_tainted g src then set_ctrl g dst ~parent:(-1) ~why

(* All pairs are walked (hence all edges exist) before the single
   drain, so the CSR is finalized exactly once in between. *)
let finalize_csr g =
  let t0 = Telemetry.now_ns () in
  g.csr <-
    Csr.build ~n:(Intern.Packed.length g.keys) ~src:g.es ~dst:g.ed ~info:g.einfo
      ~len:g.n_edges;
  Telemetry.add c_csr_build_us
    (Int64.to_int (Int64.div (Int64.sub (Telemetry.now_ns ()) t0) 1000L))

let drain g =
  let t0 = Telemetry.now_ns () in
  let traversed = ref 0 in
  let off = g.csr.Csr.off and dst = g.csr.Csr.dst and info = g.csr.Csr.info in
  while g.wl_head < g.wl_tail do
    let code = Array.unsafe_get g.wl g.wl_head in
    g.wl_head <- g.wl_head + 1;
    g.n_pops <- g.n_pops + 1;
    let eid = code lsr 1 in
    let lo = Array.unsafe_get off eid and hi = Array.unsafe_get off (eid + 1) in
    traversed := !traversed + (hi - lo);
    if code land 1 = 0 then
      for j = lo to hi - 1 do
        let w = Array.unsafe_get info j in
        let m = w land 3 in
        if m = mdata || m = mboth then
          set_data g (Array.unsafe_get dst j) ~parent:eid ~why:(w lsr 2)
        else if m = many_ctrl then
          set_ctrl g (Array.unsafe_get dst j) ~parent:(-1) ~why:(w lsr 2)
      done
    else
      for j = lo to hi - 1 do
        let w = Array.unsafe_get info j in
        let m = w land 3 in
        if m = mctrl || m = mboth then
          set_ctrl g (Array.unsafe_get dst j) ~parent:eid ~why:(w lsr 2)
        else if m = many_ctrl then
          set_ctrl g (Array.unsafe_get dst j) ~parent:(-1) ~why:(w lsr 2)
      done
  done;
  let dur_ns = Int64.to_int (Int64.sub (Telemetry.now_ns ()) t0) in
  if Telemetry.enabled () && dur_ns > 0 then
    Telemetry.add c_drain_edges_per_sec (!traversed * 1_000_000_000 / dur_ns)

(* -- Static per-function facts ------------------------------------------------- *)

(* [finfo.fi_pc] markers; a value id is >= 0 *)
let pc_none = -1

let pc_own = -2

let finfo g fx : finfo =
  match g.finfos.(fx) with
  | Some fi -> fi
  | None ->
    let t0 = if Telemetry.enabled () then Telemetry.now_ns () else 0L in
    let f = g.funcs.(fx) in
    let maxbid =
      List.fold_left (fun m (b : Ssair.Ir.block) -> max m b.Ssair.Ir.bbid) (-1) f.Ssair.Ir.blocks
    in
    let fi_cond, fi_cdg, fi_pc =
      if not g.inp.Phase3.config.Config.control_deps then ([||], None, [||])
      else begin
        let cond = Array.make (maxbid + 1) (-1) in
        List.iter
          (fun (b : Ssair.Ir.block) ->
            match b.Ssair.Ir.termin with
            | Ssair.Ir.Cbr (Ssair.Ir.Vreg id, _, _) | Ssair.Ir.Switch (Ssair.Ir.Vreg id, _, _) ->
              cond.(b.Ssair.Ir.bbid) <- id
            | _ -> ())
          f.Ssair.Ir.blocks;
        (* a branch whose condition's value range decides the direction
           takes the same successor in every concrete execution, so it
           exerts no control dependence; pruning it is precision-only:
           findings can disappear, never appear *)
        Option.iter
          (fun ai ->
            List.iter
              (fun bid -> if bid <= maxbid then cond.(bid) <- -1)
              (Absint.decided_branches ai ~fname:f.Ssair.Ir.fname))
          g.inp.Phase3.absint;
        (* the CDG only matters below an undecided branch, so a
           branch-free (or all-decided) function never pays for
           post-dominators *)
        if not (Array.exists (fun c -> c >= 0) cond) then ([||], None, [||])
        else begin
          let c = Ssair.Cdg.compute f in
          let kids = c.Ssair.Cdg.ctrl_slots and bid = c.Ssair.Cdg.slot_bid in
          (* per block, the undecided branches that reach it in the CDG:
             [pc_none], [pc_own] for two or more, else the one branch's
             block id, turned into its condition below; each entry
             changes at most twice *)
          let pc = Array.make (maxbid + 1) pc_none in
          let rec reach b k =
            let cur = pc.(bid.(k)) in
            let b' = if cur = pc_none then b else if cur = b then cur else pc_own in
            if b' <> cur then begin
              pc.(bid.(k)) <- b';
              List.iter (reach b') kids.(k)
            end
          in
          Array.iteri (fun s ks -> if cond.(bid.(s)) >= 0 then List.iter (reach bid.(s)) ks) kids;
          Array.iteri (fun x b -> if b >= 0 then pc.(x) <- cond.(b)) pc;
          (* the CDG edges are only wired into own pc entities *)
          (cond, (if Array.mem pc_own pc then Some c else None), pc)
        end
      end
    in
    let fi_pnames = Array.of_list (List.map fst f.Ssair.Ir.fparams) in
    let fi =
      { fi_func = f; fi_sid = Intern.intern g.strs f.Ssair.Ir.fname;
        fi_cond; fi_cdg; fi_pc; fi_pnames; fi_psids = Array.map (Intern.intern g.strs) fi_pnames }
    in
    g.finfos.(fx) <- Some fi;
    if Telemetry.enabled () then
      g.ns_cdg <- g.ns_cdg + Int64.to_int (Int64.sub (Telemetry.now_ns ()) t0);
    fi

(* Context id of function [fx]'s own assumptions; most functions have
   none and share the empty context. *)
let own_cid g fx =
  let c = g.own_cids.(fx) in
  if c >= 0 then c
  else begin
    let c = Intern.Ctx.intern g.ctxs (Phase3.Ctx.make (Phase3.own_assumptions g.inp fx)) in
    g.own_cids.(fx) <- c;
    c
  end

(* -- Pair discovery ------------------------------------------------------------ *)

let grow_slots a i fill =
  if i < Array.length a then a
  else begin
    let a' = Array.make (max (i + 1) (2 * Array.length a)) fill in
    Array.blit a 0 a' 0 (Array.length a);
    a'
  end

let push a n v =
  let a = if n < Array.length a then a else grow_slots a n 0 in
  a.(n) <- v;
  a

let discover_pair g fx cid =
  let f = g.funcs.(fx) in
  let fid = Intern.intern g.strs f.Ssair.Ir.fname in
  if cid > 0xFFFFF then failwith "Vfgraph: context id overflow (packed pair key)";
  let pkey = (fid lsl 20) lor cid in
  let n = Intern.Packed.length g.pairs_seen in
  if Intern.Packed.intern g.pairs_seen pkey = n then begin
    g.pair_arr <- push g.pair_arr n pkey;
    if not (Phase1.exempt_fx g.inp.Phase3.p1 fx) then begin
      g.walk_q <- push g.walk_q g.walk_n ((fx lsl 20) lor cid);
      g.walk_n <- g.walk_n + 1
    end
  end

(* -- Entities --------------------------------------------------------------------- *)

(* Dense id of a packed entity key, recording the key of a fresh id. *)
let ent g gkey =
  let n = Intern.Packed.length g.keys in
  let id = Intern.Packed.intern g.keys gkey in
  if id = n then begin
    ensure_cap g (n + 1);
    g.ekeys.(id) <- gkey
  end;
  id

let ent_val g fid cid vid = ent g (Phase3.pack_key 0 fid cid vid)

let ent_param g fid cid pid = ent g (Phase3.pack_key 1 fid cid pid)

let ent_ret g fid cid = ent g (Phase3.pack_key 2 fid cid 0)

let ent_node g nid =
  if nid >= Array.length g.node_eids then g.node_eids <- grow_slots g.node_eids nid (-1);
  let v = Array.unsafe_get g.node_eids nid in
  if v >= 0 then v
  else begin
    let v = ent g (Phase3.pack_key 3 nid 0 0) in
    Array.unsafe_set g.node_eids nid v;
    v
  end

let ent_region g rid =
  if rid >= Array.length g.region_eids then g.region_eids <- grow_slots g.region_eids rid (-1);
  let v = Array.unsafe_get g.region_eids rid in
  if v >= 0 then v
  else begin
    let v = ent g (Phase3.pack_key 4 rid 0 0) in
    Array.unsafe_set g.region_eids rid v;
    v
  end

let node_ent g n = ent_node g (Intern.intern g.nodes n)

let region_ent g r = ent_region g (Intern.intern g.strs r)

(* Entity of value [vid] in the current pair, cached per value id. *)
let eval g vid =
  if vid < Array.length g.val_gen && Array.unsafe_get g.val_gen vid = g.w_serial then
    Array.unsafe_get g.val_eid vid
  else begin
    let i = ent_val g g.w_fid g.w_cid vid in
    if vid >= Array.length g.val_gen then begin
      g.val_gen <- grow_slots g.val_gen vid 0;
      g.val_eid <- grow_slots g.val_eid vid 0
    end;
    g.val_gen.(vid) <- g.w_serial;
    g.val_eid.(vid) <- i;
    i
  end

(* the pc entity of block [bid] in the current pair *)
let ent_pc g bid = ent g (Phase3.pack_key 5 g.w_fid g.w_cid bid)

(* the pc entity of a block whose pc is a condition, queued for
   {!walk_pair} to wire from the condition when fresh *)
let alias_pc g bid =
  let n = Intern.Packed.length g.keys in
  let id = ent_pc g bid in
  if id = n then g.w_late <- bid :: g.w_late;
  id

(* [strs] id of parameter [p] of the current function *)
let param_sid g p =
  let fi = g.w_fi in
  let rec find k =
    if k = Array.length fi.fi_pnames then Intern.intern g.strs p
    else if String.equal fi.fi_pnames.(k) p then fi.fi_psids.(k)
    else find (k + 1)
  in
  find 0

(* -1 = no entity (constants) *)
let value_eid g (v : Ssair.Ir.value) =
  match v with
  | Ssair.Ir.Vreg id -> eval g id
  | Ssair.Ir.Vparam p -> ent_param g g.w_fid g.w_cid (param_sid g p)
  | _ -> -1

(* the per-function fact views of the current pair: register lookups
   index an array; anything else falls back to the generic lookups *)
let shm_of g (v : Ssair.Ir.value) =
  match v with
  | Ssair.Ir.Vreg id -> if id < Array.length g.w_p1 then g.w_p1.(id) else Phase1.Rset.empty
  | _ -> Phase1.targets g.inp.Phase3.p1 g.w_fx v

let pts_of g (v : Ssair.Ir.value) =
  match v with
  | Ssair.Ir.Vreg id -> if id < Array.length g.w_pts then g.w_pts.(id) else Pointsto.Tset.empty
  | _ -> Pointsto.points_to_fx g.inp.Phase3.pts g.w_fx v

(* Warnings deduplicated by (loc, region): the first context wins. *)
let record_warning g (w : Report.warning) =
  let key = (w.Report.w_loc, w.Report.w_region) in
  if not (Hashtbl.mem g.warnings key) then Hashtbl.replace g.warnings key w

(* -- Callees ----------------------------------------------------------------------- *)

(* Context id of [gfn] called from the current context: its own
   assumptions, unioned with the caller's when context-sensitive. *)
let callee_cid g gfx =
  let ocid = own_cid g gfx in
  if g.inp.Phase3.config.Config.context_sensitive then Intern.Ctx.union g.ctxs g.w_cid ocid
  else ocid

(** The callee memo for [callee] (function index [gfx], -1 for an
    extern) called from the current context.  Everything here depends
    only on the caller context and the callee, never on the rest of the
    calling pair, which is what lets it be memoized across pairs.
    Filling the memo discovers the callee pair. *)
let cmemo g callee gfx : cmemo =
  let fid = Intern.intern g.strs callee in
  let key = (fid lsl 20) lor g.w_cid in
  match Hashtbl.find_opt g.cmemos key with
  | Some cm -> cm
  | None ->
    let t0 = if Telemetry.enabled () then Telemetry.now_ns () else 0L in
    let cm =
      if gfx >= 0 then begin
        let gfn = g.funcs.(gfx) in
        let gcid = callee_cid g gfx in
        discover_pair g gfx gcid;
        let cm_params =
          Array.of_list
            (List.map
               (fun (pname, _) -> ent_param g fid gcid (Intern.intern g.strs pname))
               gfn.Ssair.Ir.fparams)
        in
        Cdefined { cm_callee = fid; cm_params; cm_ret = ent_ret g fid gcid }
      end
      else Cextern { cm_callee = fid }
    in
    Hashtbl.add g.cmemos key cm;
    if Telemetry.enabled () then
      g.ns_callee <- g.ns_callee + Int64.to_int (Int64.sub (Telemetry.now_ns ()) t0);
    cm

(* -- Building one (function, context) pair ------------------------------------- *)

(* The entity whose taint marks block [bid] of the current pair as
   executing under a tainted branch ({!finfo.fi_pc}), or -1 when none
   can.  A condition serves once its definition has been walked:
   interning it earlier would reorder the entity ids the DOT export
   numbers by, so until then the block gets a pc entity, which
   {!walk_pair} wires from the condition, as it does the pc entity of
   a block with a critical site (the sink collection looks up its
   [Epc]). *)
let pc_src g bid =
  let pc = g.w_fi.fi_pc in
  if bid < 0 || bid >= Array.length pc then -1
  else
    let p = Array.unsafe_get pc bid in
    if p = pc_own then ent_pc g bid
    else if p = pc_none then -1
    else if p < Array.length g.val_gen && Array.unsafe_get g.val_gen p = g.w_serial then
      Array.unsafe_get g.val_eid p
    else alias_pc g bid

(* Make entity [eid] a control-dependence target of block [bid]: it
   gains ctrl-taint (with reason [why], no parent) when the block
   executes under a tainted branch. *)
let add_ct g bid eid why =
  let src = pc_src g bid in
  if src >= 0 then add_edge g src eid many_ctrl why

let flow1 g self v why =
  let ve = value_eid g v in
  if ve >= 0 then add_edge g ve self mboth why

let rec flow_operands g self vs why =
  match vs with
  | [] -> ()
  | v :: rest ->
    flow1 g self v why;
    flow_operands g self rest why

(* a phi: data/ctrl from its incomings; implicit flow from the
   branches ending its predecessors *)
let walk_phi g (p : Ssair.Ir.phi) =
  let self = eval g p.Ssair.Ir.pid in
  List.iter (fun (_, v) -> flow1 g self v w_phi) p.Ssair.Ir.incoming;
  if g.inp.Phase3.config.Config.control_deps then begin
    let cond = g.w_fi.fi_cond in
    List.iter
      (fun (pred, _) ->
        let c = if pred >= 0 && pred < Array.length cond then cond.(pred) else -1 in
        if c >= 0 then add_edge g (eval g c) self many_ctrl w_phi_ctrl)
      p.Ssair.Ir.incoming
  end

(* the implicit flow into the phis of block [bid] from the branches
   controlling the merge: each phi is a control target of the block and
   of its predecessors *)
let rec phis_ctrl g bid = function
  | [] -> ()
  | (p : Ssair.Ir.phi) :: rest ->
    let self = eval g p.Ssair.Ir.pid in
    add_ct g bid self w_phi_ctrl;
    preds_ctrl g self p.Ssair.Ir.incoming;
    phis_ctrl g bid rest

and preds_ctrl g self = function
  | [] -> ()
  | (pred, _) :: rest ->
    add_ct g pred self w_phi_ctrl;
    preds_ctrl g self rest

(* one shared-memory target of a load: a static source (warning) when
   the context leaves a non-core target uncovered; an edge from the
   region node for covered core regions *)
let load_shm_target g self (i : Ssair.Ir.instr) lty (tgt : Phase1.Rtgt.t) =
  let inp = g.inp in
  let rname = tgt.Phase1.Rtgt.region in
  match Shm.region inp.Phase3.shm rname with
  | None -> ()
  | Some r ->
    if r.Shm.r_noncore then begin
      let ctx = g.w_ctx in
      let covered =
        match tgt.Phase1.Rtgt.off with
        | Offset.Byte byte ->
          Phase3.Ctx.covers_region ctx rname ~lo:byte
            ~hi:(byte + Ty.sizeof inp.Phase3.prog.Ssair.Ir.env lty)
        | Offset.Top -> Phase3.Ctx.covers_region ctx rname ~lo:0 ~hi:r.Shm.r_size
      in
      if not covered then begin
        record_warning g
          {
            Report.w_func = g.w_fi.fi_func.Ssair.Ir.fname;
            w_region = rname;
            w_loc = i.Ssair.Ir.iloc;
            w_context = Phase3.Ctx.names ctx;
          };
        set_data g self ~parent:(region_ent g rname)
          ~why:
            (Phase3.why_string
               (Intern.intern g.whys
                  (Fmt.str "unmonitored read of non-core region %s at %a" rname Loc.pp
                     i.Ssair.Ir.iloc)))
      end
    end
    else begin
      let node = Pointsto.Node.Nshm rname in
      if not (Phase3.Ctx.covers_node g.w_ctx node) then
        add_edge g (node_ent g node) self mdata w_core_read
    end

let load_mem_target g self (tgt : Pointsto.Target.t) =
  let node = tgt.Pointsto.Target.node in
  if not (Phase3.Ctx.covers_node g.w_ctx node) then begin
    let ne = node_ent g node in
    add_edge g ne self mdata w_load_unsafe;
    add_edge g ne self mctrl w_load_ctrl_unsafe
  end

(* whether the first argument of a recv call is a socket named by an
   [assume(noncore(s))] *)
let socket_is_noncore g (args : Ssair.Ir.value list) =
  let inp = g.inp in
  match args with
  | Ssair.Ir.Vparam p :: _ -> Hashtbl.mem inp.Phase3.noncore_sockets p
  | Ssair.Ir.Vreg id :: _ -> (
    match Hashtbl.find_opt (Ssair.Ir.def_table g.w_fi.fi_func) id with
    | Some
        (Ssair.Ir.Def_instr
           ({ idesc = Ssair.Ir.Load { ptr = Ssair.Ir.Vglobal gl; _ }; _ }, _)) ->
      Hashtbl.mem inp.Phase3.noncore_sockets gl
    | _ -> false)
  | _ -> false

let rec arg_edges g bid (cm_params : int array) callee k = function
  | [] -> ()
  | arg :: rest ->
    if k < Array.length cm_params then begin
      let pe = cm_params.(k) in
      (let ve = value_eid g arg in
       if ve >= 0 then add_edge g ve pe mboth (Phase3.why_arg ~callee k));
      if g.inp.Phase3.config.Config.control_deps then add_ct g bid pe w_call_ctrl
    end;
    arg_edges g bid cm_params callee (k + 1) rest

let walk_call g bid (i : Ssair.Ir.instr) callee args =
  let config = g.inp.Phase3.config in
  let self = eval g i.Ssair.Ir.iid in
  match cmemo g callee (Ssair.Index.callee g.inp.Phase3.index g.w_fx i.Ssair.Ir.iid) with
  | Cdefined cm ->
    arg_edges g bid cm.cm_params cm.cm_callee 0 args;
    add_edge g cm.cm_ret self mboth (Phase3.why_ret ~callee:cm.cm_callee)
  | Cextern { cm_callee } ->
    if List.mem callee config.Config.recv_functions && socket_is_noncore g args then begin
      match args with
      | _ :: buf :: _ ->
        Pointsto.Tset.iter
          (fun tgt ->
            (* the region first, as entity ids follow creation order *)
            let src = region_ent g (Fmt.str "socket via %s" callee) in
            set_data g (node_ent g tgt.Pointsto.Target.node) ~parent:src ~why:w_recv)
          (pts_of g buf)
      | _ -> ()
    end;
    flow_operands g self args (Phase3.why_ext ~callee:cm_callee)

(* [self] is interned per arm: stores and allocas produce no value
   flow, so their entities would only bloat the tables *)
let walk_instr g bid (i : Ssair.Ir.instr) =
  match i.Ssair.Ir.idesc with
  | Ssair.Ir.Alloca _ | Ssair.Ir.Annotation _ -> ()
  | Ssair.Ir.Load { ptr; lty } ->
    let self = eval g i.Ssair.Ir.iid in
    (* 1. shared-memory reads, governed by the region model *)
    let shm_targets = shm_of g ptr in
    if Phase1.Rset.is_empty shm_targets then begin
      (* 2. ordinary memory — only when the address is not a
         shared-memory pointer (P2 guarantees shm pointers cannot also
         point to ordinary objects) *)
      let pts = pts_of g ptr in
      if not (Pointsto.Tset.is_empty pts) then Pointsto.Tset.iter (load_mem_target g self) pts
    end
    else Phase1.Rset.iter (load_shm_target g self i lty) shm_targets;
    (* 3. tainted address *)
    flow1 g self ptr w_load_ptr
  | Ssair.Ir.Store { ptr; sval; _ } ->
    let target_nodes =
      let shm = shm_of g ptr in
      if Phase1.Rset.is_empty shm then
        Pointsto.Tset.fold (fun tgt acc -> node_ent g tgt.Pointsto.Target.node :: acc) (pts_of g ptr) []
      else
        Phase1.Rset.fold
          (fun tgt acc -> node_ent g (Pointsto.Node.Nshm tgt.Phase1.Rtgt.region) :: acc)
          shm []
    in
    (let ve = value_eid g sval in
     if ve >= 0 then
       List.iter
         (fun ne ->
           add_edge g ve ne mdata w_store_d;
           add_edge g ve ne mctrl w_store_c)
         target_nodes);
    if g.inp.Phase3.config.Config.control_deps then
      List.iter (fun ne -> add_ct g bid ne w_store_ctrl) target_nodes
  | Ssair.Ir.Binop { lhs; rhs; _ } ->
    let self = eval g i.Ssair.Ir.iid in
    flow1 g self lhs w_arith;
    flow1 g self rhs w_arith
  | Ssair.Ir.Unop { operand; _ } -> flow1 g (eval g i.Ssair.Ir.iid) operand w_arith
  | Ssair.Ir.Cast { cval; _ } -> flow1 g (eval g i.Ssair.Ir.iid) cval w_cast
  | Ssair.Ir.Gep { base; idx; _ } ->
    let self = eval g i.Ssair.Ir.iid in
    flow1 g self base w_addr;
    flow1 g self idx w_addr
  | Ssair.Ir.Call { callee; args; _ } -> walk_call g bid i callee args

let rec walk_phis g = function
  | [] -> ()
  | p :: rest ->
    walk_phi g p;
    walk_phis g rest

let rec walk_instrs g bid = function
  | [] -> ()
  | i :: rest ->
    walk_instr g bid i;
    walk_instrs g bid rest

let walk_block g (b : Ssair.Ir.block) =
  let bid = b.Ssair.Ir.bbid in
  walk_phis g b.Ssair.Ir.phis;
  walk_instrs g bid b.Ssair.Ir.instrs;
  (* after the instructions, so a loop header's condition has its
     entity when the header's phis are filed under the loop's blocks *)
  if g.inp.Phase3.config.Config.control_deps then phis_ctrl g bid b.Ssair.Ir.phis;
  match b.Ssair.Ir.termin with
  | Ssair.Ir.Ret (Some v) ->
    let re = ent_ret g g.w_fid g.w_cid in
    (let ve = value_eid g v in
     if ve >= 0 then add_edge g ve re mboth w_ret);
    if g.inp.Phase3.config.Config.control_deps then add_ct g bid re w_ret_ctrl
  | _ -> ()

(* Into each pc entity of the current pair, one edge per direct CDG
   edge b -> c from b's pc and one from b's condition when b is an
   undecided register branch: pc(c) is tainted exactly when some
   undecided branch whose condition is tainted reaches c in the CDG
   "controls" relation. *)
let wire_pcs g (cdg : Ssair.Cdg.t) =
  let fi = g.w_fi in
  Array.iteri
    (fun s kids ->
      if kids <> [] then begin
        let b = cdg.Ssair.Cdg.slot_bid.(s) in
        let cond = if fi.fi_cond.(b) >= 0 then eval g fi.fi_cond.(b) else -1 in
        let pcb = pc_src g b in
        let pcb = if pcb = cond then -1 else pcb in
        List.iter
          (fun k ->
            let c = cdg.Ssair.Cdg.slot_bid.(k) in
            if fi.fi_pc.(c) = pc_own then begin
              let pcc = ent_pc g c in
              if cond >= 0 then add_edge g cond pcc many_ctrl w_pc;
              if pcb >= 0 && k <> s then add_edge g pcb pcc many_ctrl w_pc
            end)
          kids
      end)
    cdg.Ssair.Cdg.ctrl_slots

(* the pc entities of the critical sites' blocks whose pc is a condition *)
let rec site_pcs g = function
  | [] -> ()
  | (bid, _, _, _) :: rest ->
    if g.w_fi.fi_pc.(bid) >= 0 then ignore (alias_pc g bid);
    site_pcs g rest

(** Walk function [fx] under context [cid] straight into the live graph;
    the static taint sources of the pair (unmonitored non-core reads,
    non-core recv buffers) become seeds. *)
let walk_pair g fx cid =
  let fi = finfo g fx in
  g.w_fi <- fi;
  g.w_fid <- fi.fi_sid;
  g.w_cid <- cid;
  g.w_ctx <- Intern.Ctx.get g.ctxs cid;
  g.w_fx <- fx;
  g.w_p1 <- g.inp.Phase3.p1.Phase1.facts.(fx);
  g.w_pts <- Pointsto.reg_facts g.inp.Phase3.pts fx;
  g.w_serial <- g.w_serial + 1;
  g.w_late <- [];
  List.iter (walk_block g) fi.fi_func.Ssair.Ir.blocks;
  if fi.fi_pc <> [||] then begin
    let t0 = if Telemetry.enabled () then Telemetry.now_ns () else 0L in
    (match fi.fi_cdg with Some cdg -> wire_pcs g cdg | None -> ());
    site_pcs g (Phase3.sites_of g.inp fx);
    if g.w_late <> [] then
      List.iter
        (fun x -> add_edge g (eval g fi.fi_pc.(x)) (ent_pc g x) many_ctrl w_pc)
        (List.rev g.w_late);
    if Telemetry.enabled () then
      g.ns_wire <- g.ns_wire + Int64.to_int (Int64.sub (Telemetry.now_ns ()) t0)
  end

(* -- Entry point --------------------------------------------------------------- *)

(* The final state as a {!Phase3.flat}: the per-entity arrays as they
   are (their capacity may exceed the entity count; copying them would
   add their size to the run's peak heap), the interners as arrays. *)
let flat g : Phase3.flat =
  let table bits parent why = { Phase3.bits; parent; why } in
  {
    Phase3.entities = Intern.Packed.length g.keys;
    keys = g.ekeys;
    strs = Intern.to_array g.strs;
    ctxs = Array.init (Intern.Ctx.length g.ctxs) (Intern.Ctx.get g.ctxs);
    nodes = Intern.to_array g.nodes;
    whys = Intern.to_array g.whys;
    data = table g.data g.d_parent g.d_why;
    ctrl = table g.ctrl g.c_parent g.c_why;
    pairs = Array.sub g.pair_arr 0 (Intern.Packed.length g.pairs_seen);
  }

(* Taint lookups over the flat state [fl], resolving an entity to its id
   through the live interners. *)
let lookup g (fl : Phase3.flat) : Phase3.lookup =
  let sid = Intern.intern g.strs and cid = Intern.Ctx.intern g.ctxs in
  let id_of (e : Phase3.entity) =
    Intern.Packed.find_opt g.keys
      (match e with
      | Phase3.Eval (f, ctx, vid) -> Phase3.pack_key 0 (sid f) (cid ctx) vid
      | Phase3.Eparam (f, ctx, p) -> Phase3.pack_key 1 (sid f) (cid ctx) (sid p)
      | Phase3.Eret (f, ctx) -> Phase3.pack_key 2 (sid f) (cid ctx) 0
      | Phase3.Enode n -> Phase3.pack_key 3 (Intern.intern g.nodes n) 0 0
      | Phase3.Eregion r -> Phase3.pack_key 4 (sid r) 0 0
      | Phase3.Epc (f, ctx, bid) -> Phase3.pack_key 5 (sid f) (cid ctx) bid)
  in
  let origin t e = Option.bind (id_of e) (Phase3.origin fl t) in
  { Phase3.data = origin fl.Phase3.data; ctrl = origin fl.Phase3.ctrl }

let us_of_ns ns = ns / 1000

let run ?(config = Config.default) ?absint (shm : Shm.t) (p1 : Phase1.t) (pts : Pointsto.t) :
    Phase3.result =
  let inp, g =
    Telemetry.span "phase3.setup" (fun () ->
        let inp = Phase3.make_inputs ~config ?absint shm p1 pts in
        let g = create inp in
        List.iter
          (fun (fx, ctx) -> discover_pair g fx (Intern.Ctx.intern g.ctxs ctx))
          (Phase3.root_pairs inp);
        (inp, g))
  in
  (* pair discovery is taint-independent, so walking every pending pair
     (FIFO, which appends newly discovered callees) before draining
     reaches the same closure as interleaving would *)
  Telemetry.span "phase3.walk" (fun () ->
      let k = ref 0 in
      while !k < g.walk_n do
        let e = g.walk_q.(!k) in
        incr k;
        let fx = e lsr 20 and cid = e land 0xFFFFF in
        if Telemetry.enabled () then
          Telemetry.span "pair.build"
            ~args:[ ("function", g.funcs.(fx).Ssair.Ir.fname) ]
            (fun () -> Telemetry.time_hist h_pair_build (fun () -> walk_pair g fx cid))
        else walk_pair g fx cid
      done;
      Telemetry.add c_pair_built !k;
      Telemetry.add c_cdg_us (us_of_ns g.ns_cdg);
      Telemetry.add c_callee_us (us_of_ns g.ns_callee);
      Telemetry.add c_ctrl_edges_us (us_of_ns g.ns_wire));
  Telemetry.span "phase3.csr_build" (fun () -> finalize_csr g);
  Telemetry.span "phase3.drain" (fun () -> drain g);
  let engine_stats =
    [ ("vf_entities", Intern.Packed.length g.keys);
      ("vf_contexts", Intern.Ctx.length g.ctxs);
      ("vf_edges", g.n_edges);
      ("vf_pops", g.n_pops);
      ("vf_pushes", g.n_pushes) ]
  in
  Telemetry.add c_wl_pushes g.n_pushes;
  Telemetry.add c_wl_pops g.n_pops;
  Telemetry.add c_edges g.n_edges;
  Telemetry.add c_entities (Intern.Packed.length g.keys);
  Telemetry.add c_contexts (Intern.Ctx.length g.ctxs);
  Telemetry.add c_bitset_words (Bitset.words g.data + Bitset.words g.ctrl);
  let fl = flat g in
  let pairs = Array.map (fun k -> (fl.Phase3.strs.(k lsr 20), fl.Phase3.ctxs.(k land 0xFFFFF))) fl.Phase3.pairs in
  let dependencies =
    Telemetry.span "phase3.collect" (fun () ->
        (* the sink collection visits pairs in the order a hash table of
           them would iterate (which decides the witness a deduplicated
           dependency keeps); only pairs with critical sites are
           ordered *)
        let has_sites (fname, _) =
          let fx = Ssair.Index.find inp.Phase3.index fname in
          fx >= 0 && Phase3.sites_of inp fx <> []
        in
        Phase3.collect_dependencies inp (lookup g fl) (Phase3.hashtbl_order ~keep:has_sites pairs))
  in
  {
    Phase3.warnings =
      Hashtbl.fold (fun _ w acc -> w :: acc) g.warnings []
      |> List.stable_sort Report.compare_warning;
    dependencies;
    pair_count = Array.length pairs;
    engine_stats;
    flat = fl;
  }
