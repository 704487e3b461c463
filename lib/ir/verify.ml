(** IR well-formedness verifier, run on every prepared program and by
    tests.

    Checked invariants:
    - block ids are unique, the entry exists and all branch targets exist;
    - instruction/phi ids are unique within a function;
    - every [Vreg] use refers to a defined id;
    - in SSA form, each use is dominated by its definition and each phi
      has exactly one incoming value per CFG predecessor, none repeated.

    The state is a few arrays per function, indexed by block id and by
    value id; a message is formatted only for a violation. *)

type violation = { vfunc : string; vmsg : string }

let pp_violation ppf v = Fmt.pf ppf "[%s] %s" v.vfunc v.vmsg

let check_func ?(ssa = false) (f : Ir.func) : violation list =
  let errs = ref [] in
  let err fmt = Fmt.kstr (fun m -> errs := { vfunc = f.fname; vmsg = m } :: !errs) fmt in
  let nb = 1 + List.fold_left (fun m (b : Ir.block) -> max m b.bbid) f.fentry f.blocks in
  let present = Array.make nb false in
  let dup = ref false in
  List.iter
    (fun (b : Ir.block) ->
      if b.bbid >= 0 then begin
        if present.(b.bbid) then dup := true;
        present.(b.bbid) <- true
      end)
    f.blocks;
  let is_block t = t >= 0 && t < nb && present.(t) in
  if !dup then err "duplicate block ids";
  if not (is_block f.fentry) then err "entry block missing";
  List.iter
    (fun (b : Ir.block) ->
      List.iter
        (fun t -> if not (is_block t) then err "b%d: branch to unknown b%d" b.bbid t)
        (Ir.succs_of_term b.termin))
    f.blocks;
  (* each value id's defining block, and its position there (-1: a phi) *)
  let nv =
    1
    + List.fold_left
        (fun m (b : Ir.block) ->
          let m = List.fold_left (fun m (p : Ir.phi) -> max m p.pid) m b.phis in
          List.fold_left (fun m (i : Ir.instr) -> max m i.iid) m b.instrs)
        0 f.blocks
  in
  let def_block = Array.make nv (-1) in
  let def_pos = Array.make nv (-1) in
  let define id bid pos =
    if id >= 0 then begin
      if def_block.(id) >= 0 then err "duplicate id %%%d" id;
      def_block.(id) <- bid;
      def_pos.(id) <- pos
    end
  in
  List.iter
    (fun (b : Ir.block) ->
      List.iter (fun (p : Ir.phi) -> define p.pid b.bbid (-1)) b.phis;
      List.iteri (fun k i -> if Ir.defines i then define i.Ir.iid b.bbid k) b.instrs)
    f.blocks;
  let defined id = id >= 0 && id < nv && def_block.(id) >= 0 in
  List.iter
    (fun (b : Ir.block) ->
      List.iter
        (fun (p : Ir.phi) ->
          List.iter
            (function
              | _, Ir.Vreg id when not (defined id) ->
                err "phi %%%d: use of undefined %%%d" p.pid id
              | _ -> ())
            p.incoming)
        b.phis;
      List.iter
        (fun (i : Ir.instr) ->
          Ir.iter_operands
            (function
              | Ir.Vreg id when not (defined id) ->
                err "instr %%%d: use of undefined %%%d" i.iid id
              | _ -> ())
            i.idesc)
        b.instrs;
      List.iter
        (function
          | Ir.Vreg id when not (defined id) ->
            err "term of b%d: use of undefined %%%d" b.bbid id
          | _ -> ())
        (Ir.operands_of_term b.termin))
    f.blocks;
  if ssa then begin
    let tree = Dom.compute f in
    let preds = Array.make nb [] in
    List.iter
      (fun (b : Ir.block) ->
        List.iter
          (fun s -> if is_block s then preds.(s) <- b.bbid :: preds.(s))
          (Ir.succs_of_term b.termin))
      f.blocks;
    (* phi arity: one incoming per predecessor; sorted, not deduplicated,
       so a repeated predecessor is an error *)
    List.iter
      (fun (b : Ir.block) ->
        if b.phis <> [] then begin
          let ps = List.sort compare preds.(b.bbid) in
          List.iter
            (fun (p : Ir.phi) ->
              let inc = List.sort compare (List.map fst p.incoming) in
              if inc <> ps then
                err "phi %%%d in b%d: incoming %a but preds %a" p.pid b.bbid
                  Fmt.(Dump.list int) inc
                  Fmt.(Dump.list int) ps)
            b.phis
        end)
      f.blocks;
    (* defs dominate uses; a phi precedes every instruction of its block *)
    let dominates_use id ~use_block ~use_pos =
      defined id
      &&
      let db = def_block.(id) in
      if db = use_block then def_pos.(id) < use_pos else Dom.dominates tree db use_block
    in
    List.iter
      (fun (b : Ir.block) ->
        List.iteri
          (fun k (i : Ir.instr) ->
            Ir.iter_operands
              (function
                | Ir.Vreg id when not (dominates_use id ~use_block:b.bbid ~use_pos:k) ->
                  err "instr %%%d in b%d: operand %%%d does not dominate use" i.iid b.bbid id
                | _ -> ())
              i.idesc)
          b.instrs;
        (* phi incoming (bid, v): v must dominate the *end* of bid *)
        List.iter
          (fun (p : Ir.phi) ->
            List.iter
              (function
                | inb, Ir.Vreg id when not (dominates_use id ~use_block:inb ~use_pos:max_int) ->
                  err "phi %%%d: incoming %%%d via b%d does not dominate edge" p.pid id inb
                | _ -> ())
              p.incoming)
          b.phis)
      f.blocks
  end;
  List.rev !errs

let check_program ?ssa (p : Ir.program) : violation list =
  List.concat_map (check_func ?ssa) p.funcs
