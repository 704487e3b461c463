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
    made of many small functions.  The dependence relation is delivered
    as dense slot arrays ([slot_of], [slot_bid], [ctrl_slots]).

    Used by SafeFlow phase 3 to detect critical data that is control-
    dependent on unmonitored non-core values (§3.4.1). *)

type t = {
  slot_of : Ir.bid -> int;
      (** block id → canonical dense slot (first block with that id), or
          [-1] when no block has that id *)
  slot_bid : int array;  (** dense slot → block id *)
  ctrl_slots : int list array;
      (** dense direct [controls] relation: slot → slots control-dependent
          on it (its CDG children), each once; phase 3 wires one pc edge
          per entry, never a transitive closure *)
}

(* the successors with a slot: how many, and their slots in order *)
let rec count_slots slot_of k = function
  | [] -> k
  | s :: rest -> count_slots slot_of (if slot_of s >= 0 then k + 1 else k) rest

let rec fill_slots slot_of a j = function
  | [] -> ()
  | s :: rest ->
    let i = slot_of s in
    if i >= 0 then begin
      a.(j) <- i;
      fill_slots slot_of a (j + 1) rest
    end
    else fill_slots slot_of a j rest

let compute (f : Ir.func) : t =
  let blocks = Array.of_list f.blocks in
  let n = Array.length blocks in
  if n = 0 then
    {
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
          let l = Ir.successors f b in
          let a = Array.make (count_slots slot_of 0 l) 0 in
          fill_slots slot_of a 0 l;
          a)
        blocks
    in
    let preds = Array.make n [] in
    for i = 0 to n - 1 do
      let sa = succs.(i) in
      for j = 0 to Array.length sa - 1 do
        let s = sa.(j) in
        preds.(s) <- i :: preds.(s)
      done
    done;
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
      for k = 0 to Array.length rpo - 1 do
        let u = rpo.(k) in
        if u <> exit_i then begin
          (* predecessors in the reversed graph = CFG successors, plus
             the virtual exit for exit blocks *)
          let nid = ref (if is_exit.(u) && idom.(exit_i) <> undef then exit_i else undef) in
          let su = succs.(u) in
          for j = 0 to Array.length su - 1 do
            let p = su.(j) in
            if idom.(p) <> undef then nid := if !nid = undef then p else intersect !nid p
          done;
          if !nid <> undef && idom.(u) <> !nid then begin
            idom.(u) <- !nid;
            changed := true
          end
        end
      done
    done;
    (* FOW: for each CFG edge a→s, everything on the post-dominator-tree
       path from s up to (excluding) ipostdom(a) is control-dependent on
       a.  Dependences accumulate in bid-canonical array slots (duplicate
       bbids share the first block's slot, merging exactly as the
       hashtable version did). *)
    let ctrl_s = Array.make n [] in
    (* [asl] controlling [bs] is recorded once.  Without duplicate bids
       every slot records its controlled slots in one iteration of the
       loop below, so the controller [bs] was last recorded under tells
       whether it is recorded already *)
    let last = Array.make n (-1) in
    let add b a =
      let bs = canon_of b and asl = canon_of a in
      let fresh =
        match canon with
        | None -> last.(bs) <> asl
        | Some _ -> not (List.mem bs ctrl_s.(asl))
      in
      if fresh then begin
        last.(bs) <- asl;
        ctrl_s.(asl) <- bs :: ctrl_s.(asl)
      end
    in
    let rec walk stop a u =
      if u <> stop && u <> exit_i then begin
        add u a;
        let p = idom.(u) in
        if p <> undef && p <> u then walk stop a p
      end
    in
    for a = 0 to n - 1 do
      let stop = idom.(a) in
      let sa = succs.(a) in
      for j = 0 to Array.length sa - 1 do
        walk stop a sa.(j)
      done
    done;
    {
      slot_of;
      slot_bid = Array.map (fun (b : Ir.block) -> b.Ir.bbid) blocks;
      ctrl_slots = ctrl_s;
    }
  end
