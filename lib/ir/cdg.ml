(** Control-dependence graph (Ferrante–Ottenstein–Warren).

    Block B is control-dependent on block A iff A has successors S1, S2
    such that B post-dominates S1 but not A.  Computed from the
    post-dominator tree: for each CFG edge A→S where S does not
    post-dominate A, every node on the post-dominator-tree path from S up
    to (but excluding) ipostdom(A) is control-dependent on A.

    The whole computation runs on dense block indices (blocks numbered in
    [f.blocks] order, the virtual exit last) with int-array CHK
    post-dominators — this is called once per function on the phase-3
    pair walk, where per-function constant cost dominates on programs
    made of many small functions.  The dependence relation is therefore
    delivered primarily as dense slot arrays ([slot_bid], [ctrl_slots]);
    the bid-keyed hashtables are built lazily, only for consumers that
    ask for them (emission order and cons-list shape match the original
    hashtable construction exactly).

    Used by SafeFlow phase 3 to detect critical data that is control-
    dependent on unmonitored non-core values (§3.4.1). *)

type t = {
  deps : (Ir.bid, Ir.bid list) Hashtbl.t Lazy.t;
      (** block → blocks it is control-dependent on *)
  controls : (Ir.bid, Ir.bid list) Hashtbl.t Lazy.t;
      (** block → blocks control-dependent on it *)
  slot_of : Ir.bid -> int;
      (** block id → canonical dense slot (first block with that id), or
          [-1] when no block has that id *)
  slot_bid : int array;  (** dense slot → block id *)
  ctrl_slots : int list array;
      (** dense [controls] relation: slot → slots control-dependent on
          it; lets closure walks (phase 3 branch info) run on arrays
          instead of per-node hashtable probes *)
}

let compute (f : Ir.func) : t =
  let blocks = Array.of_list f.blocks in
  let n = Array.length blocks in
  if n = 0 then
    {
      deps = lazy (Hashtbl.create 1);
      controls = lazy (Hashtbl.create 1);
      slot_of = (fun _ -> -1);
      slot_bid = [||];
      ctrl_slots = [||];
    }
  else begin
    (* dense numbering; duplicate bbids resolve to the first block, as
       [Ir.block_opt] does.  Almost always bbids already ARE the block
       positions — detect that and skip the lookup table entirely. *)
    let identity_bids = ref true in
    Array.iteri
      (fun i (b : Ir.block) -> if b.bbid <> i then identity_bids := false)
      blocks;
    let slot_of, canon =
      if !identity_bids then
        ((fun bid -> if bid >= 0 && bid < n then bid else -1), None)
      else begin
        let idx_of = Hashtbl.create (2 * n) in
        Array.iteri
          (fun i (b : Ir.block) ->
            if not (Hashtbl.mem idx_of b.bbid) then Hashtbl.add idx_of b.bbid i)
          blocks;
        ( (fun bid ->
            match Hashtbl.find_opt idx_of bid with Some i -> i | None -> -1),
          Some
            (Array.map (fun (b : Ir.block) -> Hashtbl.find idx_of b.bbid) blocks)
        )
      end
    in
    (* canonical slot of a dense index (collapses duplicate bbids) *)
    let canon_of i = match canon with None -> i | Some c -> c.(i) in
    let succs =
      Array.map
        (fun (b : Ir.block) ->
          Array.of_list
            (List.filter_map
               (fun s ->
                 let i = slot_of s in
                 if i >= 0 then Some i else None)
               (Ir.successors f b)))
        blocks
    in
    let preds = Array.make n [] in
    Array.iteri
      (fun i sa -> Array.iter (fun s -> preds.(s) <- i :: preds.(s)) sa)
      succs;
    (* exits: [Ret]/[Unreachable] blocks, then promoted representatives
       of regions with no path to a return (e.g. the periodic "while(1)"
       control loop), in block order, so every block post-dominates
       something and the virtual exit post-dominates everything *)
    let is_exit = Array.make n false in
    let reaches = Array.make n false in
    let rec mark i =
      if not reaches.(i) then begin
        reaches.(i) <- true;
        List.iter mark preds.(i)
      end
    in
    Array.iteri
      (fun i (b : Ir.block) ->
        match b.termin with
        | Ir.Ret _ | Ir.Unreachable ->
          is_exit.(i) <- true;
          mark i
        | _ -> ())
      blocks;
    for i = 0 to n - 1 do
      if not reaches.(i) then begin
        is_exit.(i) <- true;
        mark i
      end
    done;
    (* post-dominators = dominators of the reversed CFG rooted at the
       virtual exit (index [n]); reverse postorder over reversed edges *)
    let exit_i = n in
    let nn = n + 1 in
    let order = ref [] in
    let visited = Array.make nn false in
    let rec dfs u =
      if not visited.(u) then begin
        visited.(u) <- true;
        if u = exit_i then
          for i = 0 to n - 1 do
            if is_exit.(i) then dfs i
          done
        else List.iter dfs preds.(u);
        order := u :: !order
      end
    in
    dfs exit_i;
    let rpo = Array.of_list !order in
    let rpo_num = Array.make nn (-1) in
    Array.iteri (fun i u -> rpo_num.(u) <- i) rpo;
    let undef = -1 in
    let idom = Array.make nn undef in
    idom.(exit_i) <- exit_i;
    let rec intersect b1 b2 =
      if b1 = b2 then b1
      else if rpo_num.(b1) > rpo_num.(b2) then intersect idom.(b1) b2
      else intersect b1 idom.(b2)
    in
    let changed = ref true in
    while !changed do
      changed := false;
      Array.iter
        (fun u ->
          if u <> exit_i then begin
            (* predecessors in the reversed graph = CFG successors, plus
               the virtual exit for exit blocks *)
            let nid = ref undef in
            let consider p =
              if idom.(p) <> undef then
                nid := if !nid = undef then p else intersect !nid p
            in
            if is_exit.(u) then consider exit_i;
            Array.iter consider succs.(u);
            if !nid <> undef && idom.(u) <> !nid then begin
              idom.(u) <- !nid;
              changed := true
            end
          end)
        rpo
    done;
    (* FOW: for each CFG edge a→s, everything on the post-dominator-tree
       path from s up to (excluding) ipostdom(a) is control-dependent on
       a.  Dependences accumulate in bid-canonical array slots (duplicate
       bbids share the first block's slot, merging exactly as the
       hashtable version did). *)
    let deps_a = Array.make n [] in
    let ctrl_a = Array.make n [] in
    let ctrl_s = Array.make n [] in
    let add b a =
      let bs = canon_of b and asl = canon_of a in
      let a_bid = blocks.(asl).Ir.bbid in
      if not (List.mem a_bid deps_a.(bs)) then begin
        deps_a.(bs) <- a_bid :: deps_a.(bs);
        ctrl_a.(asl) <- blocks.(bs).Ir.bbid :: ctrl_a.(asl);
        ctrl_s.(asl) <- bs :: ctrl_s.(asl)
      end
    in
    Array.iteri
      (fun a _ ->
        let stop = idom.(a) in
        Array.iter
          (fun s ->
            let rec walk u =
              if u <> stop && u <> exit_i then begin
                add u a;
                let p = idom.(u) in
                if p <> undef && p <> u then walk p
              end
            in
            walk s)
          succs.(a))
      blocks;
    let tbl_of arr =
      lazy
        (let t = Hashtbl.create 16 in
         Array.iteri
           (fun i l -> if l <> [] then Hashtbl.replace t blocks.(i).Ir.bbid l)
           arr;
         t)
    in
    {
      deps = tbl_of deps_a;
      controls = tbl_of ctrl_a;
      slot_of;
      slot_bid = Array.map (fun (b : Ir.block) -> b.Ir.bbid) blocks;
      ctrl_slots = ctrl_s;
    }
  end

(** Blocks that [b] is control-dependent on. *)
let deps_of t b = Option.value ~default:[] (Hashtbl.find_opt (Lazy.force t.deps) b)

(** Transitive closure of control dependence for [b] (not including [b]
    unless it controls itself through a loop). *)
let transitive_deps t b =
  let seen = Hashtbl.create 16 in
  let rec go n =
    List.iter
      (fun a ->
        if not (Hashtbl.mem seen a) then begin
          Hashtbl.replace seen a ();
          go a
        end)
      (deps_of t n)
  in
  go b;
  Hashtbl.fold (fun k () acc -> k :: acc) seen []
