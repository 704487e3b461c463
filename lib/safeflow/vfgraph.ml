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
    let cur = Array.make n 0 in
    let total = ref 0 in
    for s = 0 to n - 1 do
      let c = Array.unsafe_get off s in
      Array.unsafe_set off s !total;
      total := !total + c;
      (* row end *)
      Array.unsafe_set cur s !total
    done;
    off.(n) <- !total;
    let cdst = Array.make len 0 and cinfo = Array.make len 0 in
    for i = 0 to len - 1 do
      let s = Array.unsafe_get src i in
      let p = Array.unsafe_get cur s - 1 in
      Array.unsafe_set cur s p;
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

(* Per-function facts that do not depend on the monitoring context. *)
type finfo = {
  fi_func : Ssair.Ir.func;
  fi_blocks : Ssair.Ir.block option array;  (** indexed by block id *)
  fi_maxbid : int;  (** max block id — sizes per-pair bid-indexed scratch *)
  fi_bi : Phase3.brinfo;  (** undecided branches + CDG closures (shared memo) *)
  fi_nvals : int;  (** max SSA vid + 1 — sizes the builder's vid→entity cache *)
}

(* -- Static why table ---------------------------------------------------------- *)

(* Origin reasons known at compile time, interned once per run and
   referenced through [static_wids] by their index in this table. *)
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
  |]

(* indices into [static_whys] *)
let w_phi = 0
let w_phi_ctrl = 1
let w_core_read = 2
let w_load_unsafe = 3
let w_load_ctrl_unsafe = 4
let w_load_ptr = 5
let w_store_d = 6
let w_store_c = 7
let w_store_ctrl = 8
let w_arith = 9
let w_cast = 10
let w_addr = 11
let w_call_ctrl = 12
let w_recv = 13
let w_ret = 14
let w_ret_ctrl = 15

(* What the walk memoizes per distinct callee: the callee context,
   parameter/return entities and formatted reasons are the same at every
   call site, so they are computed once (including the one [Ctx.union])
   instead of per site. *)
type cmemo =
  | Cdefined of {
      cm_params : int array;  (** entity id per parameter position *)
      cm_ret : int;
      cm_why_args : int array;  (** why id per parameter position *)
      cm_why_ret : int;
    }
  | Cextern of { cm_why_ext : int }

type t = {
  inp : Phase3.inputs;
  pairs : (string * Phase3.Ctx.t, unit) Hashtbl.t;
      (** discovered pairs; the sink collection iterates this table, and
          its iteration order decides which witness a deduplicated
          dependency keeps *)
  mutable pair_keys : int list;  (** packed pair keys, newest first *)
  warnings : (Loc.t * string, Report.warning) Hashtbl.t;  (** by (loc, region) *)
  ctxs : Intern.Ctx.store;
  strs : string Intern.t;
  nodes : Pointsto.Node.t Intern.t;
  whys : string Intern.t;  (** origin reasons, so per-entity whys are ints *)
  static_wids : int array;  (** global why id per {!static_whys} index *)
  keys : Intern.Packed.t;  (** packed entity key → dense entity id *)
  finfos : (string, finfo) Hashtbl.t;
  pairs_seen : Intern.Packed.t;  (** packed (fname id lsl 20) lor ctx id *)
  pending : (Ssair.Ir.func * int) Queue.t;  (** discovered, to build *)
  own_lists : (string, Phase3.Ctx.t) Hashtbl.t;
      (** canonical own-assumption context per function — needed at every
          call site *)
  p1_regs : (string, (Ssair.Ir.vid, Phase1.Rset.t) Hashtbl.t) Hashtbl.t;
      (** phase-1 register facts re-bucketed per function: the walk's
          per-instruction lookups hash an int instead of a
          [(fname, vid)] tuple.  Built once in {!create}; read-only. *)
  pts_regs : (string, (Ssair.Ir.vid, Pointsto.Tset.t) Hashtbl.t) Hashtbl.t;
      (** points-to register facts per function, same layout *)
  (* Walk memos, pair-independent and so shared by every walk of a
     run.  Callee memos are keyed by (callee fname id, caller context
     id): with few distinct contexts most call sites hit, skipping the
     context union, reason formatting and parameter-entity interning
     entirely.  A hit is emission-free, exactly like the recomputation
     it replaces: entity interning is idempotent and the discover for
     that (callee, context) already ran when the memo was filled. *)
  cmemos : (int, cmemo) Hashtbl.t;
  own_cids : (string, int) Hashtbl.t;  (** [own_lists] as context ids *)
  call_whys : (int, int array * int) Hashtbl.t;
      (** argument/return reasons per callee string id — they depend
          only on the callee, never on the calling context *)
  ext_whys : (int, int) Hashtbl.t;  (** "through external call" reasons *)
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
  mutable d_why : int array;  (** why ids, valid iff the taint bit is set *)
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
let h_pair_build = Telemetry.histogram "pair.build"

let create (inp : Phase3.inputs) =
  let whys = Intern.create 64 in
  (* size the flat stores from the function count so typical runs never
     grow mid-build (≈10 entities and ≈15 edges per function in
     practice); everything still grows on demand for denser programs.
     The floor stays small: a small program (a fleet member) would
     otherwise allocate, and leave for the major collector, some 13k
     words of stores it never fills *)
  let nfuncs = List.length inp.Phase3.prog.Ssair.Ir.funcs in
  let ecap = max 64 (10 * nfuncs) in
  let edgecap = max 64 (14 * nfuncs) in
  let bucket tbl fname k v =
    let t =
      match Hashtbl.find_opt tbl fname with
      | Some t -> t
      | None ->
        let t = Hashtbl.create 8 in
        Hashtbl.add tbl fname t;
        t
    in
    Hashtbl.replace t k v
  in
  let p1_regs = Hashtbl.create (2 * nfuncs) in
  Hashtbl.iter
    (fun (fname, vid) rs -> bucket p1_regs fname vid rs)
    inp.Phase3.p1.Phase1.facts;
  let pts_regs = Hashtbl.create (2 * nfuncs) in
  Pointsto.fold_pts
    (fun k ts () ->
      match k with
      | Pointsto.Kreg (fname, vid) -> bucket pts_regs fname vid ts
      | _ -> ())
    inp.Phase3.pts ();
  {
    inp;
    (* a fixed initial size, not one scaled to the program: the
       table's iteration order decides reported witnesses (see [pairs]) *)
    pairs = Hashtbl.create 32;
    pair_keys = [];
    warnings = Hashtbl.create 32;
    own_lists = Hashtbl.create 64;
    p1_regs;
    pts_regs;
    cmemos = Hashtbl.create 256;
    own_cids = Hashtbl.create 64;
    call_whys = Hashtbl.create 64;
    ext_whys = Hashtbl.create 16;
    node_eids = Array.make 64 (-1);
    region_eids = Array.make 64 (-1);
    ctxs = Intern.Ctx.create ();
    strs = Intern.create 64;
    nodes = Intern.create 64;
    whys;
    static_wids = Array.map (Intern.intern whys) static_whys;
    keys = Intern.Packed.create ecap;
    finfos = Hashtbl.create (2 * nfuncs);
    pairs_seen = Intern.Packed.create (2 * nfuncs);
    pending = Queue.create ();
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

let own_list g (f : Ssair.Ir.func) : Phase3.Ctx.t =
  match Hashtbl.find_opt g.own_lists f.Ssair.Ir.fname with
  | Some l -> l
  | None ->
    let l = Phase3.Ctx.make (Phase3.own_assumptions g.inp f) in
    Hashtbl.replace g.own_lists f.Ssair.Ir.fname l;
    l

let finfo g (f : Ssair.Ir.func) : finfo =
  match Hashtbl.find_opt g.finfos f.Ssair.Ir.fname with
  | Some fi -> fi
  | None ->
    let fi_bi = Phase3.branch_info g.inp f in
    let nvals = ref 0 in
    let maxbid = ref (-1) in
    List.iter
      (fun (b : Ssair.Ir.block) ->
        if b.Ssair.Ir.bbid > !maxbid then maxbid := b.Ssair.Ir.bbid;
        List.iter
          (fun (p : Ssair.Ir.phi) ->
            if p.Ssair.Ir.pid >= !nvals then nvals := p.Ssair.Ir.pid + 1)
          b.Ssair.Ir.phis;
        List.iter
          (fun (i : Ssair.Ir.instr) ->
            if i.Ssair.Ir.iid >= !nvals then nvals := i.Ssair.Ir.iid + 1)
          b.Ssair.Ir.instrs)
      f.Ssair.Ir.blocks;
    let fi_blocks = Array.make (!maxbid + 1) None in
    (* later duplicate bbids win, as Hashtbl.replace did *)
    List.iter
      (fun (b : Ssair.Ir.block) -> fi_blocks.(b.Ssair.Ir.bbid) <- Some b)
      f.Ssair.Ir.blocks;
    let fi = { fi_func = f; fi_blocks; fi_maxbid = !maxbid; fi_bi; fi_nvals = !nvals } in
    Hashtbl.replace g.finfos f.Ssair.Ir.fname fi;
    fi

(* -- Pair discovery ------------------------------------------------------------ *)

let discover_pair g (f : Ssair.Ir.func) cid =
  let fid = Intern.intern g.strs f.Ssair.Ir.fname in
  if cid > 0xFFFFF then failwith "Vfgraph: context id overflow (packed pair key)";
  let pkey = (fid lsl 20) lor cid in
  let n = Intern.Packed.length g.pairs_seen in
  if Intern.Packed.intern g.pairs_seen pkey = n then begin
    Hashtbl.replace g.pairs (f.Ssair.Ir.fname, Intern.Ctx.get g.ctxs cid) ();
    g.pair_keys <- pkey :: g.pair_keys;
    if not (Phase1.is_exempt g.inp.Phase3.p1 f.Ssair.Ir.fname) then
      Queue.push (f, cid) g.pending
  end

(* -- Building one (function, context) pair ------------------------------------- *)

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

let grow_slots a i =
  if i < Array.length a then a
  else begin
    let a' = Array.make (max (i + 1) (2 * Array.length a)) (-1) in
    Array.blit a 0 a' 0 (Array.length a);
    a'
  end

let ent_node g nid =
  if nid >= Array.length g.node_eids then g.node_eids <- grow_slots g.node_eids nid;
  let v = Array.unsafe_get g.node_eids nid in
  if v >= 0 then v
  else begin
    let v = ent g (Phase3.pack_key 3 nid 0 0) in
    Array.unsafe_set g.node_eids nid v;
    v
  end

let ent_region g rid =
  if rid >= Array.length g.region_eids then g.region_eids <- grow_slots g.region_eids rid;
  let v = Array.unsafe_get g.region_eids rid in
  if v >= 0 then v
  else begin
    let v = ent g (Phase3.pack_key 4 rid 0 0) in
    Array.unsafe_set g.region_eids rid v;
    v
  end

(* Warnings deduplicated by (loc, region): the first context wins. *)
let record_warning g (w : Report.warning) =
  let key = (w.Report.w_loc, w.Report.w_region) in
  if not (Hashtbl.mem g.warnings key) then Hashtbl.replace g.warnings key w

(* Context id of [gfn] called from context [self_cid]: its own
   assumptions, unioned with the caller's when context-sensitive.
   Resolved at the context-id level through the memoized
   {!Intern.Ctx.union}, never materializing the union list. *)
let callee_cid g self_cid (gfn : Ssair.Ir.func) =
  let ocid =
    match Hashtbl.find_opt g.own_cids gfn.Ssair.Ir.fname with
    | Some c -> c
    | None ->
      let c = Intern.Ctx.intern g.ctxs (own_list g gfn) in
      Hashtbl.replace g.own_cids gfn.Ssair.Ir.fname c;
      c
  in
  if g.inp.Phase3.config.Config.context_sensitive then Intern.Ctx.union g.ctxs self_cid ocid
  else ocid

let call_whys g fid callee nargs =
  match Hashtbl.find_opt g.call_whys fid with
  | Some w -> w
  | None ->
    let w =
      ( Array.init nargs (fun k ->
            Intern.intern g.whys ("argument " ^ string_of_int k ^ " of call to " ^ callee)),
        Intern.intern g.whys ("return value of " ^ callee) )
    in
    Hashtbl.add g.call_whys fid w;
    w

let why_ext g callee =
  let fid = Intern.intern g.strs callee in
  match Hashtbl.find_opt g.ext_whys fid with
  | Some w -> w
  | None ->
    let w = Intern.intern g.whys ("through external call " ^ callee) in
    Hashtbl.add g.ext_whys fid w;
    w

(** The callee memo for [callee] called from context [self_cid]: callee
    context, parameter and return entities, and the formatted reasons.
    Everything here depends only on the caller context and the callee,
    never on the rest of the calling pair, which is what lets it be
    memoized across pairs.  Filling the memo discovers the callee pair. *)
let cmemo g self_cid callee : cmemo =
  let fid = Intern.intern g.strs callee in
  let key = (fid lsl 20) lor self_cid in
  match Hashtbl.find_opt g.cmemos key with
  | Some cm -> cm
  | None ->
    let cm =
      match g.inp.Phase3.find callee with
      | Some gfn ->
        let gfid = Intern.intern g.strs gfn.Ssair.Ir.fname in
        let gcid = callee_cid g self_cid gfn in
        discover_pair g gfn gcid;
        let cm_params =
          Array.of_list
            (List.map
               (fun (pname, _) -> ent_param g gfid gcid (Intern.intern g.strs pname))
               gfn.Ssair.Ir.fparams)
        in
        let cm_why_args, cm_why_ret = call_whys g gfid callee (Array.length cm_params) in
        Cdefined { cm_params; cm_ret = ent_ret g gfid gcid; cm_why_args; cm_why_ret }
      | None -> Cextern { cm_why_ext = why_ext g callee }
    in
    Hashtbl.add g.cmemos key cm;
    cm

(** Walk [f] under context [ctx] (interned as [self_cid]) straight into
    the live graph; the static taint sources of the pair (unmonitored
    non-core reads, non-core recv buffers) become seeds. *)
let walk_pair g (f : Ssair.Ir.func) (ctx : Phase3.Ctx.t) ~self_cid : unit =
  let inp = g.inp in
  let config = inp.Phase3.config in
  let env = inp.Phase3.prog.Ssair.Ir.env in
  let fname = f.Ssair.Ir.fname in
  let fi = finfo g f in
  let sid x = Intern.intern g.strs x in
  let wid x = Intern.intern g.whys x in
  let sw = g.static_wids in
  let edge src dst mode why = add_edge g src dst mode why in
  let seed dst parent why = set_data g dst ~parent ~why in
  let self_fid = sid fname in
  (* vid → entity id, O(1) on the hottest entity kind *)
  let val_idx = Array.make (max fi.fi_nvals 1) (-1) in
  let eval vid =
    if vid < Array.length val_idx then begin
      let i = Array.unsafe_get val_idx vid in
      if i >= 0 then i
      else begin
        let i = ent_val g self_fid self_cid vid in
        Array.unsafe_set val_idx vid i;
        i
      end
    end
    else ent_val g self_fid self_cid vid
  in
  (* -1 = no entity (constants); avoids an option box per operand *)
  let value_eid (v : Ssair.Ir.value) =
    match v with
    | Ssair.Ir.Vreg id -> eval id
    | Ssair.Ir.Vparam p -> ent_param g self_fid self_cid (sid p)
    | _ -> -1
  in
  let node_ent n = ent_node g (Intern.intern g.nodes n) in
  let region_ent r = ent_region g (sid r) in
  (* per-function fact views (see [p1_regs]/[pts_regs]): register
     lookups hash an int; anything else falls back to the generic
     tuple-keyed path, byte-for-byte equivalent *)
  let fn_p1regs = Hashtbl.find_opt g.p1_regs fname in
  let fn_ptsregs = Hashtbl.find_opt g.pts_regs fname in
  let shm_of (v : Ssair.Ir.value) =
    match v with
    | Ssair.Ir.Vreg id -> (
      match fn_p1regs with
      | Some t -> Option.value ~default:Phase1.Rset.empty (Hashtbl.find_opt t id)
      | None -> Phase1.Rset.empty)
    | _ -> Phase1.shm_targets inp.Phase3.p1 f v
  in
  let pts_of (v : Ssair.Ir.value) =
    match v with
    | Ssair.Ir.Vreg id -> (
      match fn_ptsregs with
      | Some t -> Option.value ~default:Pointsto.Tset.empty (Hashtbl.find_opt t id)
      | None -> Pointsto.Tset.empty)
    | _ -> Pointsto.points_to inp.Phase3.pts f v
  in
  (* defs are only consulted to resolve recv sockets, so built on demand *)
  let defs = lazy (Ssair.Ir.def_table f) in
  let callees : (string, cmemo) Hashtbl.t = Hashtbl.create 8 in
  (* control-dependence targets per block: entity that gains ctrl-taint
     (with the given reason) when the block executes under a tainted
     branch; wired to branch conditions after the walk *)
  let ctrl_targets : (int * int) list array = Array.make (fi.fi_maxbid + 1) [] in
  (* targets filed under a bid with no block are never wired (closures
     only hold real blocks), so they are safely dropped *)
  let add_ct bid eid why =
    if bid >= 0 && bid <= fi.fi_maxbid then
      ctrl_targets.(bid) <- (eid, why) :: ctrl_targets.(bid)
  in
  let flow1 self v why =
    let ve = value_eid v in
    if ve >= 0 then edge ve self mboth why
  in
  let flow_operands self vs why = List.iter (fun v -> flow1 self v why) vs in
  List.iter
    (fun (b : Ssair.Ir.block) ->
      let bid = b.Ssair.Ir.bbid in
      (* phis: data/ctrl from incomings; implicit flow from the branches
         controlling the merge *)
      List.iter
        (fun (p : Ssair.Ir.phi) ->
          let self = eval p.Ssair.Ir.pid in
          List.iter (fun (_, v) -> flow1 self v sw.(w_phi)) p.Ssair.Ir.incoming;
          if config.Config.control_deps then begin
            let why = sw.(w_phi_ctrl) in
            add_ct bid self why;
            List.iter
              (fun (pred, _) ->
                add_ct pred self why;
                match
                  (if pred >= 0 && pred <= fi.fi_maxbid then fi.fi_blocks.(pred) else None)
                with
                | Some pblk -> (
                  match pblk.Ssair.Ir.termin with
                  | Ssair.Ir.Cbr (Ssair.Ir.Vreg cvid, _, _)
                  | Ssair.Ir.Switch (Ssair.Ir.Vreg cvid, _, _) ->
                    if not (Phase3.branch_decided fi.fi_bi pblk.Ssair.Ir.bbid) then
                      edge (eval cvid) self many_ctrl why
                  | _ -> ())
                | None -> ())
              p.Ssair.Ir.incoming
          end)
        b.Ssair.Ir.phis;
      List.iter
        (fun (i : Ssair.Ir.instr) ->
          (* [self] is interned per arm: stores and allocas produce no
             value flow, so their entities would only bloat the tables *)
          match i.Ssair.Ir.idesc with
          | Ssair.Ir.Alloca _ | Ssair.Ir.Annotation _ -> ()
          | Ssair.Ir.Load { ptr; lty } ->
            let self = eval i.Ssair.Ir.iid in
            (* 1. shared-memory reads: static source (warning) when the
               context leaves a non-core target uncovered; edge from the
               region node for covered core regions *)
            let shm_targets = shm_of ptr in
            Phase1.Rset.iter
              (fun tgt ->
                let rname = tgt.Phase1.Rtgt.region in
                match Shm.region inp.Phase3.shm rname with
                | None -> ()
                | Some r ->
                  if r.Shm.r_noncore then begin
                    let covered =
                      match tgt.Phase1.Rtgt.off with
                      | Offset.Byte byte ->
                        Phase3.Ctx.covers_region ctx rname ~lo:byte
                          ~hi:(byte + Ty.sizeof env lty)
                      | Offset.Top -> Phase3.Ctx.covers_region ctx rname ~lo:0 ~hi:r.Shm.r_size
                    in
                    if not covered then begin
                      record_warning g
                        {
                          Report.w_func = fname;
                          w_region = rname;
                          w_loc = i.Ssair.Ir.iloc;
                          w_context = Phase3.Ctx.names ctx;
                        };
                      seed self (region_ent rname)
                        (wid
                           (Fmt.str "unmonitored read of non-core region %s at %a" rname
                              Loc.pp i.Ssair.Ir.iloc))
                    end
                  end
                  else begin
                    let node = Pointsto.Node.Nshm rname in
                    if not (Phase3.Ctx.covers_node ctx node) then
                      edge (node_ent node) self mdata sw.(w_core_read)
                  end)
              shm_targets;
            (* 2. ordinary memory — only when the address is not a
               shared-memory pointer: shm reads are governed by the
               region model above (P2 guarantees shm pointers cannot also
               point to ordinary objects) *)
            if Phase1.Rset.is_empty shm_targets then
              Pointsto.Tset.iter
                (fun tgt ->
                  let node = tgt.Pointsto.Target.node in
                  if not (Phase3.Ctx.covers_node ctx node) then begin
                    let ne = node_ent node in
                    edge ne self mdata sw.(w_load_unsafe);
                    edge ne self mctrl sw.(w_load_ctrl_unsafe)
                  end)
                (pts_of ptr);
            (* 3. tainted address *)
            flow1 self ptr sw.(w_load_ptr)
          | Ssair.Ir.Store { ptr; sval; _ } ->
            let target_nodes =
              let shm = shm_of ptr in
              if Phase1.Rset.is_empty shm then
                Pointsto.Tset.fold
                  (fun tgt acc -> node_ent tgt.Pointsto.Target.node :: acc)
                  (pts_of ptr)
                  []
              else
                Phase1.Rset.fold
                  (fun tgt acc ->
                    node_ent (Pointsto.Node.Nshm tgt.Phase1.Rtgt.region) :: acc)
                  shm []
            in
            (let ve = value_eid sval in
             if ve >= 0 then
               List.iter
                 (fun ne ->
                   edge ve ne mdata sw.(w_store_d);
                   edge ve ne mctrl sw.(w_store_c))
                 target_nodes);
            if config.Config.control_deps then begin
              List.iter (fun ne -> add_ct bid ne sw.(w_store_ctrl)) target_nodes
            end
          | Ssair.Ir.Binop { lhs; rhs; _ } ->
            let self = eval i.Ssair.Ir.iid in
            flow1 self lhs sw.(w_arith);
            flow1 self rhs sw.(w_arith)
          | Ssair.Ir.Unop { operand; _ } -> flow1 (eval i.Ssair.Ir.iid) operand sw.(w_arith)
          | Ssair.Ir.Cast { cval; _ } -> flow1 (eval i.Ssair.Ir.iid) cval sw.(w_cast)
          | Ssair.Ir.Gep { base; idx; _ } ->
            let self = eval i.Ssair.Ir.iid in
            flow1 self base sw.(w_addr);
            flow1 self idx sw.(w_addr)
          | Ssair.Ir.Call { callee; args; _ } -> (
            let self = eval i.Ssair.Ir.iid in
            let cm =
              match Hashtbl.find_opt callees callee with
              | Some cm -> cm
              | None ->
                (* first sight of this callee in the pair; filling
                   the run-wide memo also discovers the callee pair *)
                let cm = cmemo g self_cid callee in
                Hashtbl.replace callees callee cm;
                cm
            in
            match cm with
            | Cdefined cm ->
              List.iteri
                (fun k arg ->
                  if k < Array.length cm.cm_params then begin
                    let pe = cm.cm_params.(k) in
                    (let ve = value_eid arg in
                     if ve >= 0 then edge ve pe mboth cm.cm_why_args.(k));
                    if config.Config.control_deps then
                      add_ct bid pe sw.(w_call_ctrl)
                  end)
                args;
              edge cm.cm_ret self mboth cm.cm_why_ret
            | Cextern cm ->
              if List.mem callee config.Config.recv_functions then begin
                let socket_is_noncore =
                  match args with
                  | sock :: _ -> (
                    match sock with
                    | Ssair.Ir.Vparam p -> Hashtbl.mem inp.Phase3.noncore_sockets p
                    | Ssair.Ir.Vreg id -> (
                      match Hashtbl.find_opt (Lazy.force defs) id with
                      | Some
                          (Ssair.Ir.Def_instr
                             ( { idesc = Ssair.Ir.Load { ptr = Ssair.Ir.Vglobal gl; _ }; _ },
                               _ )) ->
                        Hashtbl.mem inp.Phase3.noncore_sockets gl
                      | _ -> false)
                    | _ -> false)
                  | [] -> false
                in
                if socket_is_noncore then
                  match args with
                  | _ :: buf :: _ ->
                    let w = sw.(w_recv) in
                    Pointsto.Tset.iter
                      (fun tgt ->
                        seed
                          (node_ent tgt.Pointsto.Target.node)
                          (region_ent (Fmt.str "socket via %s" callee))
                          w)
                      (pts_of buf)
                  | _ -> ()
              end;
              flow_operands self args cm.cm_why_ext))
        b.Ssair.Ir.instrs;
      match b.Ssair.Ir.termin with
      | Ssair.Ir.Ret (Some v) ->
        let re = ent_ret g self_fid self_cid in
        (let ve = value_eid v in
         if ve >= 0 then edge ve re mboth sw.(w_ret));
        if config.Config.control_deps then
          add_ct bid re sw.(w_ret_ctrl)
      | _ -> ())
    f.Ssair.Ir.blocks;
  (* wire branch conditions to the control-dependence targets of every
     block in their controls-closure (the closure is static, only the
     cond's taint is dynamic) *)
  List.iter
    (fun (_bB, cvid, closure) ->
      let c = eval cvid in
      List.iter
        (fun d ->
          if d >= 0 && d <= fi.fi_maxbid then
            List.iter (fun (teid, why) -> edge c teid many_ctrl why) ctrl_targets.(d))
        closure)
    fi.fi_bi.Phase3.br_branches

(* -- Entry point --------------------------------------------------------------- *)

(* The final state as a {!Phase3.flat}: the per-entity arrays cut to the
   entity count, the interners as arrays. *)
let flat g : Phase3.flat =
  let n = Intern.Packed.length g.keys in
  let table bits parent why =
    { Phase3.bits; parent = Array.sub parent 0 n; why = Array.sub why 0 n }
  in
  {
    Phase3.keys = Array.sub g.ekeys 0 n;
    strs = Intern.to_array g.strs;
    ctxs = Array.init (Intern.Ctx.length g.ctxs) (Intern.Ctx.get g.ctxs);
    nodes = Intern.to_array g.nodes;
    whys = Intern.to_array g.whys;
    data = table g.data g.d_parent g.d_why;
    ctrl = table g.ctrl g.c_parent g.c_why;
    pairs = Array.of_list (List.rev g.pair_keys);
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
      | Phase3.Eregion r -> Phase3.pack_key 4 (sid r) 0 0)
  in
  let origin t e = Option.bind (id_of e) (Phase3.origin fl t) in
  { Phase3.data = origin fl.Phase3.data; ctrl = origin fl.Phase3.ctrl }

let run ?(config = Config.default) ?absint (prog : Ssair.Ir.program) (shm : Shm.t)
    (p1 : Phase1.t) (pts : Pointsto.t) : Phase3.result =
  let inp = Phase3.make_inputs ~config ?absint prog shm p1 pts in
  let g = create inp in
  List.iter
    (fun (f, ctx) -> discover_pair g f (Intern.Ctx.intern g.ctxs ctx))
    (Phase3.root_pairs inp);
  (* pair discovery is taint-independent, so walking every pending pair
     (FIFO, which appends newly discovered callees) before draining
     reaches the same closure as interleaving would *)
  Telemetry.span "phase3.walk" (fun () ->
      let n = ref 0 in
      while not (Queue.is_empty g.pending) do
        let f, cid = Queue.pop g.pending in
        incr n;
        if Telemetry.enabled () then
          Telemetry.span "pair.build"
            ~args:[ ("function", f.Ssair.Ir.fname) ]
            (fun () ->
              Telemetry.time_hist h_pair_build (fun () ->
                  walk_pair g f (Intern.Ctx.get g.ctxs cid) ~self_cid:cid))
        else walk_pair g f (Intern.Ctx.get g.ctxs cid) ~self_cid:cid
      done;
      Telemetry.add c_pair_built !n);
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
  let dependencies =
    Telemetry.span "phase3.collect" (fun () ->
        Phase3.collect_dependencies inp (lookup g fl) g.pairs)
  in
  {
    Phase3.warnings =
      Hashtbl.fold (fun _ w acc -> w :: acc) g.warnings []
      |> List.stable_sort Report.compare_warning;
    dependencies;
    pair_count = Hashtbl.length g.pairs;
    engine_stats;
    flat = fl;
  }
