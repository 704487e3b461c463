(** IR well-formedness verifier, used by tests and as a guard between
    pipeline stages.

    Checked invariants:
    - every block has exactly one terminator and all branch targets exist;
    - instruction/phi ids are unique within a function;
    - every [Vreg] use refers to a defined id;
    - after SSA construction, each use is dominated by its definition and
      each phi has exactly one incoming value per CFG predecessor. *)

type violation = { vfunc : string; vmsg : string }

let pp_violation ppf v = Fmt.pf ppf "[%s] %s" v.vfunc v.vmsg

let check_func ?(ssa = false) (f : Ir.func) : violation list =
  let errs = ref [] in
  let err fmt = Fmt.kstr (fun m -> errs := { vfunc = f.fname; vmsg = m } :: !errs) fmt in
  let block_ids = List.map (fun b -> b.Ir.bbid) f.blocks in
  (* unique block ids *)
  if List.length block_ids <> List.length (List.sort_uniq compare block_ids) then
    err "duplicate block ids";
  if not (List.mem f.fentry block_ids) then err "entry block missing";
  (* branch targets exist *)
  List.iter
    (fun b ->
      List.iter
        (fun t -> if not (List.mem t block_ids) then err "b%d: branch to unknown b%d" b.Ir.bbid t)
        (Ir.succs_of_term b.Ir.termin))
    f.blocks;
  (* unique value ids *)
  let def_ids = Hashtbl.create 64 in
  List.iter
    (fun b ->
      List.iter
        (fun (p : Ir.phi) ->
          if Hashtbl.mem def_ids p.pid then err "duplicate id %%%d" p.pid;
          Hashtbl.replace def_ids p.pid b.Ir.bbid)
        b.Ir.phis;
      List.iter
        (fun i ->
          if Ir.defines i then begin
            if Hashtbl.mem def_ids i.Ir.iid then err "duplicate id %%%d" i.Ir.iid;
            Hashtbl.replace def_ids i.Ir.iid b.Ir.bbid
          end)
        b.Ir.instrs)
    f.blocks;
  (* all uses defined; [where] names the user and is only formatted for
     a violation *)
  let check_use where v =
    match v with
    | Ir.Vreg id ->
      if not (Hashtbl.mem def_ids id) then err "%t: use of undefined %%%d" where id
    | _ -> ()
  in
  List.iter
    (fun b ->
      List.iter
        (fun (p : Ir.phi) ->
          let where ppf = Fmt.pf ppf "phi %%%d" p.pid in
          List.iter (fun (_, v) -> check_use where v) p.incoming)
        b.Ir.phis;
      List.iter
        (fun i ->
          List.iter (check_use (fun ppf -> Fmt.pf ppf "instr %%%d" i.Ir.iid))
            (Ir.operands_of_instr i))
        b.Ir.instrs;
      List.iter (check_use (fun ppf -> Fmt.pf ppf "term of b%d" b.Ir.bbid))
        (Ir.operands_of_term b.Ir.termin))
    f.blocks;
  if ssa then begin
    let tree = Dom.compute f in
    let preds_tbl = Ir.predecessors f in
    (* phi arity: one incoming per predecessor *)
    List.iter
      (fun b ->
        let preds =
          Option.value ~default:[] (Hashtbl.find_opt preds_tbl b.Ir.bbid)
          |> List.sort_uniq compare
        in
        List.iter
          (fun (p : Ir.phi) ->
            let inc = List.map fst p.incoming |> List.sort_uniq compare in
            if inc <> preds then
              err "phi %%%d in b%d: incoming %a but preds %a" p.pid b.Ir.bbid
                Fmt.(Dump.list int) inc
                Fmt.(Dump.list int) preds)
          b.Ir.phis)
      f.blocks;
    (* defs dominate uses *)
    let pos_in_block = Hashtbl.create 64 in
    List.iter
      (fun b ->
        List.iteri
          (fun k i -> if Ir.defines i then Hashtbl.replace pos_in_block i.Ir.iid k)
          b.Ir.instrs)
      f.blocks;
    let dominates_use def_id ~use_block ~use_pos =
      match Hashtbl.find_opt def_ids def_id with
      | None -> false
      | Some def_block ->
        if def_block = use_block then begin
          match Hashtbl.find_opt pos_in_block def_id with
          | None -> true (* phi defs precede all instrs in the block *)
          | Some def_pos -> def_pos < use_pos
        end
        else Dom.dominates tree def_block use_block
    in
    List.iter
      (fun b ->
        List.iteri
          (fun k i ->
            List.iter
              (fun v ->
                match v with
                | Ir.Vreg id ->
                  if not (dominates_use id ~use_block:b.Ir.bbid ~use_pos:k) then
                    err "instr %%%d in b%d: operand %%%d does not dominate use" i.Ir.iid
                      b.Ir.bbid id
                | _ -> ())
              (Ir.operands_of_instr i))
          b.Ir.instrs;
        (* phi incoming (bid, v): v must dominate the *end* of bid *)
        List.iter
          (fun (p : Ir.phi) ->
            List.iter
              (fun (inb, v) ->
                match v with
                | Ir.Vreg id ->
                  if
                    not
                      (dominates_use id ~use_block:inb ~use_pos:max_int)
                  then
                    err "phi %%%d: incoming %%%d via b%d does not dominate edge" p.pid id
                      inb
                | _ -> ())
              p.incoming)
          b.Ir.phis)
      f.blocks
  end;
  List.rev !errs

let check_program ?ssa (p : Ir.program) : violation list =
  List.concat_map (check_func ?ssa) p.funcs
