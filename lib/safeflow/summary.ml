(** Summary-based value-flow analysis — the optimization sketched at the
    end of paper §3.3: "analyzing each function only once and summarizing
    the data dependencies in the functions using value flow graphs
    developed in ESP ... a single bottom-up pass on the SCCs of the call
    graph, inlining the value flow graphs in the callers".

    Each function is summarized once per outer iteration (not once per
    monitoring context): the summary maps the return value to the set of
    taint {e sources} it depends on, where a source is a function
    parameter (resolved by inlining at call sites), an unmonitored
    non-core read site, or a received-message site.  Monitoring coverage
    is resolved beforehand by a cheap context-reachability pass that does
    no per-instruction work.

    Compared to the exact per-context engine ({!Vfgraph}):
    - warnings are identical (same coverage rule, same sites);
    - data dependencies are identical on programs where every read site
      has the same coverage in all contexts that reach it, and
      conservative (a superset) otherwise;
    - control-only dependencies are not computed — the summary graphs
      capture data flow only, exactly as in ESP.

    Benchmark B4 compares the two. *)

open Minic
module Offset = Pointsto.Offset

type source =
  | Sparam of string            (** parameter of the summarized function *)
  | Ssite of Loc.t * string     (** unmonitored non-core read (site, region) *)
  | Ssocket of Loc.t * string   (** message received from a non-core socket *)

module Srcset = Set.Make (struct
  type t = source

  let compare = compare
end)

type state = {
  prog : Ssair.Ir.program;
  index : Ssair.Index.t;  (** of [prog]; phase 1's *)
  shm : Shm.t;
  p1 : Phase1.t;
  pts : Pointsto.t;
  config : Config.t;
  (* context reachability: per function, the monitoring-assumption sets of
     the call chains reaching it *)
  reach : (string, Assume.assumption list list) Hashtbl.t;
  (* uncovered non-core read sites (= the warnings) *)
  uncovered : (Loc.t * string, string) Hashtbl.t;  (* site -> function *)
  (* global memory-object taint *)
  node_src : (Pointsto.Node.t, Srcset.t) Hashtbl.t;
  (* per-function return summaries *)
  ret_sum : (string, Srcset.t) Hashtbl.t;
  (* sink summaries: critical sites inside a function whose value depends
     on a parameter — resolved by inlining at call sites, like ESP sink
     nodes in the summarized value-flow graphs *)
  sink_params : (string, ((string * string * Loc.t) * string) list) Hashtbl.t;
  noncore_sockets : (string, unit) Hashtbl.t;
  mutable changed : bool;
  mutable passes : int;
}

let node_get st n = Option.value ~default:Srcset.empty (Hashtbl.find_opt st.node_src n)

let node_add st n s =
  let old = node_get st n in
  let merged = Srcset.union old s in
  if Srcset.cardinal merged > Srcset.cardinal old then begin
    Hashtbl.replace st.node_src n merged;
    st.changed <- true
  end

let ret_get st f = Option.value ~default:Srcset.empty (Hashtbl.find_opt st.ret_sum f)

let ret_add st f s =
  let old = ret_get st f in
  let merged = Srcset.union old s in
  if Srcset.cardinal merged > Srcset.cardinal old then begin
    Hashtbl.replace st.ret_sum f merged;
    st.changed <- true
  end

(* -- context reachability ---------------------------------------------------- *)

let covers_region ctx region ~lo ~hi =
  List.exists
    (function
      | Assume.Aregion (r, l, h) -> String.equal r region && l <= lo && hi <= h
      | Assume.Anode _ -> false)
    ctx

let covers_node ctx node =
  List.exists (function Assume.Anode n -> n = node | _ -> false) ctx

(** Walk the call graph from the roots accumulating assumption sets; no
    per-instruction work happens per context. *)
let compute_reachability st =
  let own fx = List.sort_uniq compare (Assume.of_func ~shm:st.shm ~p1:st.p1 ~pts:st.pts fx) in
  let seen : (string * Assume.assumption list, unit) Hashtbl.t = Hashtbl.create 64 in
  let queue = Queue.create () in
  let push fname ctx =
    if not (Hashtbl.mem seen (fname, ctx)) then begin
      Hashtbl.replace seen (fname, ctx) ();
      let old = Option.value ~default:[] (Hashtbl.find_opt st.reach fname) in
      Hashtbl.replace st.reach fname (ctx :: old);
      Queue.add (fname, ctx) queue
    end
  in
  let index = st.index in
  let called = Array.make (Ssair.Index.length index) false in
  Array.iter (Array.iter (fun gx -> if gx >= 0 then called.(gx) <- true)) index.Ssair.Index.call_callees;
  Array.iteri
    (fun fx (f : Ssair.Ir.func) ->
      let name = f.Ssair.Ir.fname in
      if (String.equal name "main" || not called.(fx)) && not (Phase1.exempt_fx st.p1 fx) then
        push name (own fx))
    index.Ssair.Index.funcs;
  while not (Queue.is_empty queue) do
    let fname, ctx = Queue.pop queue in
    let fx = Ssair.Index.find index fname in
    if fx >= 0 then
      List.iter
        (fun (b : Ssair.Ir.block) ->
          List.iter
            (fun (i : Ssair.Ir.instr) ->
              match i.Ssair.Ir.idesc with
              | Ssair.Ir.Call { callee; _ } ->
                let gx = Ssair.Index.callee index fx i.Ssair.Ir.iid in
                if gx >= 0 && not (Phase1.exempt_fx st.p1 gx) then
                  push callee
                    (if st.config.Config.context_sensitive then List.sort_uniq compare (ctx @ own gx)
                     else own gx)
              | _ -> ())
            b.Ssair.Ir.instrs)
        (Ssair.Index.func index fx).Ssair.Ir.blocks
  done

let reaching st fname = Option.value ~default:[] (Hashtbl.find_opt st.reach fname)

(** is this (region, range) read uncovered in some context reaching [f]? *)
let region_read_uncovered st fname region ~lo ~hi =
  match reaching st fname with
  | [] -> true (* unreachable functions: conservative *)
  | ctxs -> List.exists (fun ctx -> not (covers_region ctx region ~lo ~hi)) ctxs

let node_read_clean st fname node =
  match reaching st fname with
  | [] -> false
  | ctxs -> List.for_all (fun ctx -> covers_node ctx node) ctxs

(* -- per-function summarization ------------------------------------------------ *)

type sink = { k_sink : string; k_func : string; k_loc : Loc.t; k_set : Srcset.t }

let register_sink_param st fname entry =
  let old = Option.value ~default:[] (Hashtbl.find_opt st.sink_params fname) in
  if not (List.mem entry old) then begin
    Hashtbl.replace st.sink_params fname (entry :: old);
    st.changed <- true
  end

let summarize_function st (f : Ssair.Ir.func) (sinks : sink list ref) =
  let env = st.prog.Ssair.Ir.env in
  let fname = f.Ssair.Ir.fname in
  let vals : (Ssair.Ir.vid, Srcset.t) Hashtbl.t = Hashtbl.create 64 in
  let vget id = Option.value ~default:Srcset.empty (Hashtbl.find_opt vals id) in
  let local_changed = ref true in
  let value_src (v : Ssair.Ir.value) : Srcset.t =
    match v with
    | Ssair.Ir.Vreg id -> vget id
    | Ssair.Ir.Vparam p -> Srcset.singleton (Sparam p)
    | _ -> Srcset.empty
  in
  let vset id s =
    let old = vget id in
    let merged = Srcset.union old s in
    if Srcset.cardinal merged > Srcset.cardinal old then begin
      Hashtbl.replace vals id merged;
      local_changed := true
    end
  in
  (* inline a callee's return summary at a call site *)
  let instantiate callee args =
    let gsum = ret_get st callee in
    match Ssair.Index.func_opt st.index callee with
    | None -> Srcset.empty
    | Some g ->
      let arg_of p =
        match List.find_index (fun (n, _) -> String.equal n p) g.Ssair.Ir.fparams with
        | Some k -> List.nth_opt args k
        | None -> None
      in
      (* resolve the callee's parameter-dependent sinks against the
         actual arguments *)
      List.iter
        (fun (((sk, sf, sl) as info), p) ->
          match arg_of p with
          | Some arg ->
            let aset = value_src arg in
            let live = Srcset.filter (function Sparam _ -> false | _ -> true) aset in
            if not (Srcset.is_empty live) then
              sinks :=
                { k_sink = sk; k_func = sf; k_loc = sl; k_set = live } :: !sinks;
            Srcset.iter
              (fun src ->
                match src with
                | Sparam q -> register_sink_param st fname (info, q)
                | _ -> ())
              aset
          | None -> ())
        (Option.value ~default:[] (Hashtbl.find_opt st.sink_params callee));
      Srcset.fold
        (fun src acc ->
          match src with
          | Sparam p -> (
            match arg_of p with
            | Some arg -> Srcset.union acc (value_src arg)
            | None -> acc)
          | s -> Srcset.add s acc)
        gsum Srcset.empty
  in
  while !local_changed do
    local_changed := false;
    List.iter
      (fun (b : Ssair.Ir.block) ->
        List.iter
          (fun (p : Ssair.Ir.phi) ->
            List.iter (fun (_, v) -> vset p.Ssair.Ir.pid (value_src v)) p.Ssair.Ir.incoming)
          b.Ssair.Ir.phis;
        List.iter
          (fun (i : Ssair.Ir.instr) ->
            match i.Ssair.Ir.idesc with
            | Ssair.Ir.Alloca _ -> ()
            | Ssair.Ir.Load { ptr; lty } ->
              let shm_targets = Phase1.shm_targets st.p1 f ptr in
              Phase1.Rset.iter
                (fun tgt ->
                  let rname = tgt.Phase1.Rtgt.region in
                  match Shm.region st.shm rname with
                  | None -> ()
                  | Some r ->
                    if r.Shm.r_noncore then begin
                      let lo, hi =
                        match tgt.Phase1.Rtgt.off with
                        | Offset.Byte b -> (b, b + Ty.sizeof env lty)
                        | Offset.Top -> (0, r.Shm.r_size)
                      in
                      if region_read_uncovered st fname rname ~lo ~hi then begin
                        if not (Hashtbl.mem st.uncovered (i.Ssair.Ir.iloc, rname)) then begin
                          Hashtbl.replace st.uncovered (i.Ssair.Ir.iloc, rname) fname;
                          st.changed <- true
                        end;
                        vset i.Ssair.Ir.iid (Srcset.singleton (Ssite (i.Ssair.Ir.iloc, rname)))
                      end
                    end
                    else
                      vset i.Ssair.Ir.iid (node_get st (Pointsto.Node.Nshm rname)))
                shm_targets;
              if Phase1.Rset.is_empty shm_targets then
                Pointsto.Tset.iter
                  (fun tgt ->
                    let node = tgt.Pointsto.Target.node in
                    if not (node_read_clean st fname node) then
                      vset i.Ssair.Ir.iid (node_get st node))
                  (Pointsto.points_to st.pts f ptr);
              vset i.Ssair.Ir.iid (value_src ptr)
            | Ssair.Ir.Store { ptr; sval; _ } ->
              let s = value_src sval in
              if not (Srcset.is_empty s) then begin
                let shm = Phase1.shm_targets st.p1 f ptr in
                if Phase1.Rset.is_empty shm then
                  Pointsto.Tset.iter
                    (fun tgt -> node_add st tgt.Pointsto.Target.node s)
                    (Pointsto.points_to st.pts f ptr)
                else
                  Phase1.Rset.iter
                    (fun tgt -> node_add st (Pointsto.Node.Nshm tgt.Phase1.Rtgt.region) s)
                    shm
              end
            | Ssair.Ir.Binop { lhs; rhs; _ } ->
              vset i.Ssair.Ir.iid (Srcset.union (value_src lhs) (value_src rhs))
            | Ssair.Ir.Unop { operand; _ } -> vset i.Ssair.Ir.iid (value_src operand)
            | Ssair.Ir.Cast { cval; _ } -> vset i.Ssair.Ir.iid (value_src cval)
            | Ssair.Ir.Gep { base; idx; _ } ->
              vset i.Ssair.Ir.iid (Srcset.union (value_src base) (value_src idx))
            | Ssair.Ir.Annotation _ -> ()
            | Ssair.Ir.Call { callee; args; _ } -> (
              match Ssair.Index.func_opt st.index callee with
              | Some _ -> vset i.Ssair.Ir.iid (instantiate callee args)
              | None ->
                (* message passing: recv through a non-core socket *)
                if List.mem callee st.config.Config.recv_functions then begin
                  let socket_is_noncore =
                    match args with
                    | sock :: _ -> (
                      match sock with
                      | Ssair.Ir.Vparam p -> Hashtbl.mem st.noncore_sockets p
                      | Ssair.Ir.Vreg id -> (
                        match Hashtbl.find_opt (Ssair.Ir.def_table f) id with
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
                          node_add st tgt.Pointsto.Target.node
                            (Srcset.singleton (Ssocket (i.Ssair.Ir.iloc, callee))))
                        (Pointsto.points_to st.pts f buf)
                    | _ -> ()
                end;
                vset i.Ssair.Ir.iid
                  (List.fold_left
                     (fun acc a -> Srcset.union acc (value_src a))
                     Srcset.empty args)))
          b.Ssair.Ir.instrs;
        match b.Ssair.Ir.termin with
        | Ssair.Ir.Ret (Some v) -> ret_add st fname (value_src v)
        | _ -> ())
      f.Ssair.Ir.blocks
  done;
  (* collect critical sinks with their final source sets *)
  List.iter
    (fun (b : Ssair.Ir.block) ->
      List.iter
        (fun (i : Ssair.Ir.instr) ->
          match i.Ssair.Ir.idesc with
          | Ssair.Ir.Annotation { clause = Annot.Assert_safe x; aval = Some v } ->
            let set = value_src v in
            sinks :=
              { k_sink = Fmt.str "assert(safe(%s))" x; k_func = fname;
                k_loc = i.Ssair.Ir.iloc; k_set = set }
              :: !sinks;
            Srcset.iter
              (fun src ->
                match src with
                | Sparam p ->
                  register_sink_param st fname
                    ((Fmt.str "assert(safe(%s))" x, fname, i.Ssair.Ir.iloc), p)
                | _ -> ())
              set
          | Ssair.Ir.Call { callee; args; _ } -> (
            match List.assoc_opt callee st.config.Config.critical_sinks with
            | Some indices ->
              List.iter
                (fun k ->
                  match List.nth_opt args k with
                  | Some arg ->
                    let set = value_src arg in
                    sinks :=
                      { k_sink = Fmt.str "argument %d of %s" k callee; k_func = fname;
                        k_loc = i.Ssair.Ir.iloc; k_set = set }
                      :: !sinks;
                    Srcset.iter
                      (fun src ->
                        match src with
                        | Sparam p ->
                          register_sink_param st fname
                            ((Fmt.str "argument %d of %s" k callee, fname, i.Ssair.Ir.iloc), p)
                        | _ -> ())
                      set
                  | None -> ())
                indices
            | None -> ())
          | _ -> ())
        b.Ssair.Ir.instrs)
    f.Ssair.Ir.blocks

(* -- entry point ------------------------------------------------------------------ *)

type result = {
  warnings : Report.warning list;
  dependencies : Report.dependency list;
  passes : int;
}

let pp_source ppf = function
  | Sparam p -> Fmt.pf ppf "parameter %s" p
  | Ssite (loc, r) -> Fmt.pf ppf "non-core region %s (read at %a)" r Loc.pp loc
  | Ssocket (loc, f) -> Fmt.pf ppf "non-core socket via %s at %a" f Loc.pp loc

let run ?(config = Config.default) (shm : Shm.t) (p1 : Phase1.t) (pts : Pointsto.t) : result =
  let index = p1.Phase1.index in
  let prog = index.Ssair.Index.prog in
  let st =
    {
      prog;
      index;
      shm;
      p1;
      pts;
      config;
      reach = Hashtbl.create 32;
      uncovered = Hashtbl.create 32;
      node_src = Hashtbl.create 64;
      ret_sum = Hashtbl.create 32;
      sink_params = Hashtbl.create 8;
      noncore_sockets = Hashtbl.create 4;
      changed = true;
      passes = 0;
    }
  in
  (* non-core sockets (§3.4.3) *)
  List.iter
    (fun (f : Ssair.Ir.func) ->
      List.iter
        (function
          | Annot.Noncore name when Shm.region shm name = None ->
            Hashtbl.replace st.noncore_sockets name ()
          | _ -> ())
        f.Ssair.Ir.fannot)
    prog.Ssair.Ir.funcs;
  compute_reachability st;
  (* bottom-up order over call-graph SCCs *)
  let callees fname =
    match Ssair.Index.func_opt st.index fname with
    | None -> []
    | Some f ->
      List.filter_map
        (fun i ->
          match i.Ssair.Ir.idesc with
          | Ssair.Ir.Call { callee; _ } when Ssair.Index.func_opt st.index callee <> None ->
            Some callee
          | _ -> None)
        (Ssair.Ir.all_instrs f)
  in
  let names = List.map (fun f -> f.Ssair.Ir.fname) prog.Ssair.Ir.funcs in
  let scc = Dataflow.Scc.compute names callees in
  let bottom_up = Dataflow.Scc.reverse_topological scc in
  let sinks = ref [] in
  (* outer loop: memory-object taint feeds back across the pass *)
  while st.changed do
    st.changed <- false;
    st.passes <- st.passes + 1;
    sinks := [];
    List.iter
      (fun component ->
        (* within an SCC, iterate until the members' summaries stabilize *)
        let scc_changed = ref true in
        while !scc_changed do
          scc_changed := false;
          let before = Hashtbl.length st.ret_sum in
          let cardinal_sum =
            List.fold_left
              (fun acc n -> acc + Srcset.cardinal (ret_get st n))
              0 component
          in
          List.iter
            (fun fname ->
              match Ssair.Index.func_opt st.index fname with
              | Some f when not (Phase1.is_exempt p1 fname) ->
                summarize_function st f sinks
              | _ -> ())
            component;
          let cardinal_sum' =
            List.fold_left
              (fun acc n -> acc + Srcset.cardinal (ret_get st n))
              0 component
          in
          if cardinal_sum' <> cardinal_sum || Hashtbl.length st.ret_sum <> before then
            scc_changed := true
        done)
      bottom_up
  done;
  let warnings =
    Hashtbl.fold
      (fun (loc, region) fname acc ->
        { Report.w_func = fname; w_region = region; w_loc = loc; w_context = [] } :: acc)
      st.uncovered []
    |> List.sort (fun (a : Report.warning) b -> Loc.compare a.w_loc b.w_loc)
  in
  let deps =
    List.filter_map
      (fun s ->
        (* a sink depends on non-core data iff its set holds a live source
           other than bare parameters *)
        let live =
          Srcset.filter (function Sparam _ -> false | _ -> true) s.k_set
        in
        if Srcset.is_empty live then None
        else
          let path =
            List.map
              (fun src -> Report.synthetic_step (Fmt.str "%a" pp_source src))
              (Srcset.elements live)
            @ [ Report.synthetic_step "(summary-mode flow)" ]
          in
          Some
            {
              Report.d_kind = Report.Data;
              d_sink = s.k_sink;
              d_func = s.k_func;
              d_loc = s.k_loc;
              d_trace = Report.path_strings path;
              d_path = path;
            })
      !sinks
    |> List.sort_uniq compare
  in
  (* deduplicate by (sink, loc) *)
  let seen = Hashtbl.create 16 in
  let deps =
    List.filter
      (fun (d : Report.dependency) ->
        let key = (d.Report.d_sink, d.Report.d_loc) in
        if Hashtbl.mem seen key then false
        else begin
          Hashtbl.replace seen key ();
          true
        end)
      deps
  in
  { warnings; dependencies = deps; passes = st.passes }
