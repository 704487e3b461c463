(* The classic SSA construction, kept as the test oracle for Build's
   on-the-fly construction: promotion of scalar stack slots of the
   memory-form lowering (Build.lower_memory) to registers, by
   Cytron-style phi insertion over dominance frontiers followed by
   renaming along the dominator tree.

   A slot is promotable when (a) its element type is scalar and (b) its
   address is used only as the pointer operand of loads and stores —
   address-taken slots (used in geps, casts, calls, or stored as values)
   stay in memory. *)

open Minic
module Ir = Ssair.Ir
module Dom = Ssair.Dom

type slot_info = {
  si_id : Ir.vid;       (* alloca instruction id *)
  si_ty : Ty.t;
  si_name : string;
  mutable def_blocks : Ir.bid list;
}

(** Dominance frontiers (Cytron et al.). *)
let frontiers (f : Ir.func) (t : Dom.tree) : (Ir.bid, Ir.bid list) Hashtbl.t =
  let df = Hashtbl.create 16 in
  let preds_tbl = Ir.predecessors f in
  List.iter
    (fun (b : Ir.block) ->
      let n = b.bbid in
      match Hashtbl.find_opt preds_tbl n with
      | Some (_ :: _ :: _ as preds) ->
        let idom_n = Dom.idom t n in
        List.iter
          (fun p ->
            let rec walk r =
              if Some r <> idom_n then begin
                let old = Option.value ~default:[] (Hashtbl.find_opt df r) in
                if not (List.mem n old) then Hashtbl.replace df r (n :: old);
                Option.iter walk (Dom.idom t r)
              end
            in
            if Dom.dominates t p p then walk p)
          preds
      | _ -> ())
    f.blocks;
  df

(** Dominator-tree children of every block. *)
let children (f : Ir.func) (t : Dom.tree) : Ir.bid -> Ir.bid list =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (b : Ir.block) ->
      Option.iter
        (fun p ->
          Hashtbl.replace tbl p
            (b.bbid :: Option.value ~default:[] (Hashtbl.find_opt tbl p)))
        (Dom.idom t b.bbid))
    (List.rev f.blocks);
  fun n -> Option.value ~default:[] (Hashtbl.find_opt tbl n)

(** Find promotable allocas in [f]. *)
let promotable_slots (f : Ir.func) : (Ir.vid, slot_info) Hashtbl.t =
  let slots = Hashtbl.create 16 in
  List.iter
    (fun b ->
      List.iter
        (fun i ->
          match i.Ir.idesc with
          | Ir.Alloca { aname; aty } when Ty.is_scalar aty ->
            Hashtbl.replace slots i.Ir.iid
              { si_id = i.Ir.iid; si_ty = aty; si_name = aname; def_blocks = [] }
          | _ -> ())
        b.Ir.instrs)
    f.blocks;
  (* disqualify address-escaping slots and record def blocks *)
  List.iter
    (fun b ->
      List.iter
        (fun i ->
          let disqualify v =
            match v with Ir.Vreg id -> Hashtbl.remove slots id | _ -> ()
          in
          match i.Ir.idesc with
          | Ir.Load _ -> ()
          | Ir.Store { ptr; sval; _ } -> (
            disqualify sval;
            match ptr with
            | Ir.Vreg id -> (
              match Hashtbl.find_opt slots id with
              | Some si ->
                if not (List.mem b.Ir.bbid si.def_blocks) then
                  si.def_blocks <- b.Ir.bbid :: si.def_blocks
              | None -> ())
            | _ -> ())
          | _ -> List.iter disqualify (Ir.operands_of_instr i))
        b.Ir.instrs;
      List.iter
        (fun v -> match v with Ir.Vreg id -> Hashtbl.remove slots id | _ -> ())
        (Ir.operands_of_term b.Ir.termin);
      List.iter
        (fun (p : Ir.phi) ->
          List.iter
            (fun (_, v) -> match v with Ir.Vreg id -> Hashtbl.remove slots id | _ -> ())
            p.incoming)
        b.Ir.phis)
    f.blocks;
  slots

(** Run promotion on one function.  Returns the number of slots promoted. *)
let run_func (f : Ir.func) : int =
  let slots = promotable_slots f in
  if Hashtbl.length slots = 0 then 0
  else begin
    let tree = Dom.compute f in
    let df = frontiers f tree in
    let children = children f tree in
    (* fresh ids continue after the maximum existing id *)
    let max_id = ref 0 in
    List.iter
      (fun b ->
        List.iter (fun (p : Ir.phi) -> max_id := max !max_id p.pid) b.Ir.phis;
        List.iter (fun i -> max_id := max !max_id i.Ir.iid) b.Ir.instrs)
      f.blocks;
    let fresh () =
      incr max_id;
      !max_id
    in
    (* phi insertion over iterated dominance frontiers *)
    let phi_var : (Ir.vid, Ir.vid) Hashtbl.t = Hashtbl.create 16 in
    (* phi id → slot id *)
    let has_phi : (Ir.bid * Ir.vid, unit) Hashtbl.t = Hashtbl.create 16 in
    Hashtbl.iter
      (fun slot_id si ->
        let work = Queue.create () in
        List.iter (fun b -> Queue.add b work) si.def_blocks;
        while not (Queue.is_empty work) do
          let b = Queue.pop work in
          let frontier = Option.value ~default:[] (Hashtbl.find_opt df b) in
          List.iter
            (fun fb ->
              if not (Hashtbl.mem has_phi (fb, slot_id)) then begin
                Hashtbl.replace has_phi (fb, slot_id) ();
                let blk = Ir.block f fb in
                let pid = fresh () in
                blk.phis <-
                  { Ir.pid; pty = si.si_ty; incoming = []; pname = si.si_name }
                  :: blk.phis;
                Hashtbl.replace phi_var pid slot_id;
                Queue.add fb work
              end)
            frontier
        done)
      slots;
    (* renaming *)
    let replacement : (Ir.vid, Ir.value) Hashtbl.t = Hashtbl.create 64 in
    let rec subst v =
      match v with
      | Ir.Vreg id -> (
        match Hashtbl.find_opt replacement id with Some v' -> subst v' | None -> v)
      | _ -> v
    in
    let deleted : (Ir.vid, unit) Hashtbl.t = Hashtbl.create 64 in
    let rec rename bid (current : (Ir.vid * Ir.value) list) =
      let blk = Ir.block f bid in
      let current = ref current in
      let set_current slot v = current := (slot, v) :: !current in
      let get_current slot ty =
        match List.assoc_opt slot !current with
        | Some v -> v
        | None -> Ir.Vundef ty
      in
      List.iter
        (fun (p : Ir.phi) ->
          match Hashtbl.find_opt phi_var p.pid with
          | Some slot -> set_current slot (Ir.Vreg p.pid)
          | None -> ())
        blk.phis;
      blk.instrs <-
        List.filter
          (fun i ->
            match i.Ir.idesc with
            | Ir.Load { ptr = Ir.Vreg sid; lty } when Hashtbl.mem slots sid ->
              Hashtbl.replace replacement i.Ir.iid (get_current sid lty);
              Hashtbl.replace deleted i.Ir.iid ();
              false
            | Ir.Store { ptr = Ir.Vreg sid; sval; _ } when Hashtbl.mem slots sid ->
              set_current sid (subst sval);
              Hashtbl.replace deleted i.Ir.iid ();
              false
            | Ir.Alloca _ when Hashtbl.mem slots i.Ir.iid ->
              Hashtbl.replace deleted i.Ir.iid ();
              false
            | _ ->
              i.Ir.idesc <- Ir.map_operands subst i.Ir.idesc;
              true)
          blk.instrs;
      blk.termin <- Ir.map_term_operands subst blk.termin;
      (* feed phi operands of successors *)
      List.iter
        (fun succ ->
          match Ir.block_opt f succ with
          | None -> ()
          | Some sblk ->
            List.iter
              (fun (p : Ir.phi) ->
                match Hashtbl.find_opt phi_var p.pid with
                | Some slot ->
                  let v = get_current slot p.pty in
                  p.incoming <- (bid, v) :: p.incoming
                | None -> ())
              sblk.phis)
        (Ir.successors f blk);
      (* recurse over dominator-tree children *)
      List.iter (fun child -> rename child !current) (children bid)
    in
    rename f.fentry [];
    Hashtbl.length slots
  end

(** Promote every function of [p]; returns total slots promoted. *)
let run (p : Ir.program) : int =
  List.fold_left (fun acc f -> acc + run_func f) 0 p.funcs

(* -- Comparing two SSA forms ----------------------------------------------- *)

(** Remove trivial phis (all operands one value or the phi itself) to a
    fixpoint, then dead phis (read by no instruction or terminator, even
    through other phis). *)
let cleanup (f : Ir.func) =
  let repl = Hashtbl.create 16 in
  let rec subst v =
    match v with
    | Ir.Vreg id -> (match Hashtbl.find_opt repl id with Some v' -> subst v' | None -> v)
    | _ -> v
  in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (b : Ir.block) ->
        List.iter
          (fun (p : Ir.phi) ->
            if not (Hashtbl.mem repl p.pid) then
              match
                List.filter_map
                  (fun (_, v) -> match subst v with Ir.Vreg id when id = p.pid -> None | v -> Some v)
                  p.incoming
                |> List.sort_uniq compare
              with
              | [] -> Hashtbl.replace repl p.pid (Ir.Vundef p.pty); changed := true
              | [ v ] -> Hashtbl.replace repl p.pid v; changed := true
              | _ -> ())
          b.phis)
      f.blocks
  done;
  let live = Hashtbl.create 16 in
  let phis = Hashtbl.create 16 in
  List.iter
    (fun (b : Ir.block) ->
      b.phis <- List.filter (fun (p : Ir.phi) -> not (Hashtbl.mem repl p.pid)) b.phis;
      List.iter
        (fun (p : Ir.phi) ->
          p.incoming <- List.map (fun (bid, v) -> (bid, subst v)) p.incoming;
          Hashtbl.replace phis p.pid p)
        b.phis;
      List.iter (fun (i : Ir.instr) -> i.idesc <- Ir.map_operands subst i.idesc) b.instrs;
      b.termin <- Ir.map_term_operands subst b.termin)
    f.blocks;
  let rec mark = function
    | Ir.Vreg id when Hashtbl.mem phis id && not (Hashtbl.mem live id) ->
      Hashtbl.replace live id ();
      List.iter (fun (_, v) -> mark v) (Hashtbl.find phis id).Ir.incoming
    | _ -> ()
  in
  List.iter
    (fun (b : Ir.block) ->
      List.iter (fun i -> List.iter mark (Ir.operands_of_instr i)) b.instrs;
      List.iter mark (Ir.operands_of_term b.termin))
    f.blocks;
  List.iter
    (fun (b : Ir.block) -> b.phis <- List.filter (fun (p : Ir.phi) -> Hashtbl.mem live p.pid) b.phis)
    f.blocks

let blank = Ir.Vundef Ty.Void

(** [None] when [a] and [b] are the same function up to the renaming of
    phis and the order of phis and their operands; otherwise the first
    difference.  Instructions must carry the same ids. *)
let diff_func (a : Ir.func) (b : Ir.func) : string option =
  let phi_table (f : Ir.func) =
    let t = Hashtbl.create 16 in
    List.iter (fun (blk : Ir.block) -> List.iter (fun (p : Ir.phi) -> Hashtbl.replace t p.pid (blk.bbid, p)) blk.phis) f.blocks;
    t
  in
  let pa = phi_table a and pb = phi_table b in
  let fwd = Hashtbl.create 16 and bwd = Hashtbl.create 16 in
  let pending = Queue.create () in
  let exception Differ of string in
  let differ fmt = Fmt.kstr (fun m -> raise (Differ m)) fmt in
  let value va vb =
    match (va, vb) with
    | Ir.Vreg x, Ir.Vreg y when Hashtbl.mem pa x || Hashtbl.mem pb y -> (
      match (Hashtbl.find_opt fwd x, Hashtbl.find_opt bwd y) with
      | Some y', _ when y' <> y -> differ "phi %%%d matched to %%%d and %%%d" x y' y
      | _, Some x' when x' <> x -> differ "phi %%%d matched to %%%d and %%%d" y x' x
      | Some _, _ -> ()
      | None, _ ->
        if not (Hashtbl.mem pa x && Hashtbl.mem pb y) then differ "%%%d vs %%%d: one is a phi" x y;
        Hashtbl.replace fwd x y;
        Hashtbl.replace bwd y x;
        Queue.add (x, y) pending)
    | _ -> if compare va vb <> 0 then differ "%a vs %a" Ir.pp_value va Ir.pp_value vb
  in
  let values where la lb =
    if List.length la <> List.length lb then differ "%s: operand counts differ" where;
    List.iter2 value la lb
  in
  try
    if List.map (fun (x : Ir.block) -> x.bbid) a.blocks <> List.map (fun (x : Ir.block) -> x.bbid) b.blocks then
      differ "block lists differ";
    List.iter2
      (fun (x : Ir.block) (y : Ir.block) ->
        if List.length x.instrs <> List.length y.instrs then differ "b%d: instruction counts differ" x.bbid;
        List.iter2
          (fun (i : Ir.instr) (j : Ir.instr) ->
            let where = Fmt.str "instr %%%d" i.iid in
            if i.iid <> j.iid || i.ity <> j.ity || i.iloc <> j.iloc
               || Ir.map_operands (fun _ -> blank) i.idesc <> Ir.map_operands (fun _ -> blank) j.idesc
            then differ "%s differs from %%%d" where j.iid;
            values where (Ir.operands_of_instr i) (Ir.operands_of_instr j))
          x.instrs y.instrs;
        let where = Fmt.str "term of b%d" x.bbid in
        if Ir.map_term_operands (fun _ -> blank) x.termin <> Ir.map_term_operands (fun _ -> blank) y.termin
        then differ "%s differs" where;
        values where (Ir.operands_of_term x.termin) (Ir.operands_of_term y.termin))
      a.blocks b.blocks;
    while not (Queue.is_empty pending) do
      let x, y = Queue.pop pending in
      let bx, px = Hashtbl.find pa x and by, py = Hashtbl.find pb y in
      let where = Fmt.str "phi %%%d ~ %%%d" x y in
      if bx <> by || px.pty <> py.pty || px.pname <> py.pname then differ "%s: block, type or name differ" where;
      let sorted (p : Ir.phi) = List.sort (fun (m, _) (n, _) -> compare m n) p.incoming in
      let ix = sorted px and iy = sorted py in
      if List.map fst ix <> List.map fst iy then differ "%s: incoming blocks differ" where;
      values where (List.map snd ix) (List.map snd iy)
    done;
    if Hashtbl.length fwd <> Hashtbl.length pa || Hashtbl.length bwd <> Hashtbl.length pb then
      differ "unmatched phis (%d/%d matched of %d/%d)" (Hashtbl.length fwd) (Hashtbl.length bwd)
        (Hashtbl.length pa) (Hashtbl.length pb);
    None
  with Differ m -> Some (Fmt.str "%s: %s" a.fname m)

(** Lower [tast] both ways, Build's SSA and the oracle's, and compare
    them once each side's trivial and dead phis are removed. *)
let diff_against_oracle (tast : Tast.program) : string option =
  let direct = Ssair.Build.lower tast in
  let oracle = Ssair.Build.lower_memory tast in
  ignore (run oracle);
  List.iter cleanup direct.funcs;
  List.iter cleanup oracle.funcs;
  List.find_map (fun (a, b) -> diff_func a b) (List.combine oracle.funcs direct.funcs)
