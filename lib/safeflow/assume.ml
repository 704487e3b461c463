(** Resolution of [assume(core(...))] annotations into monitoring
    assumptions — shared by the per-context phase 3 engine and coverage. *)

open Minic
module Offset = Pointsto.Offset

type assumption =
  | Aregion of string * int * int  (** region, byte range [lo, hi) assumed core *)
  | Anode of Pointsto.Node.t       (** memory object assumed core (recv buffers) *)

let pp ppf = function
  | Aregion (r, lo, hi) -> Fmt.pf ppf "core(%s[%d..%d))" r lo hi
  | Anode n -> Fmt.pf ppf "core(%a)" Pointsto.Node.pp n

(* Most functions have no [assume(core)] of their own: found out
   without allocating. *)
let rec has_assume_core = function
  | [] -> false
  | Annot.Assume_core _ :: _ -> true
  | _ :: rest -> has_assume_core rest

let rec instrs_assume_core = function
  | [] -> false
  | { Ssair.Ir.idesc = Ssair.Ir.Annotation { clause = Annot.Assume_core _; _ }; _ } :: _ -> true
  | _ :: rest -> instrs_assume_core rest

let rec blocks_assume_core = function
  | [] -> false
  | (b : Ssair.Ir.block) :: rest -> instrs_assume_core b.Ssair.Ir.instrs || blocks_assume_core rest

(** Monitoring assumptions contributed by the own annotations
    (function-level and statement-level) of function [fx] of the program
    index. *)
let of_func ~(shm : Shm.t) ~(p1 : Phase1.t) ~(pts : Pointsto.t) fx : assumption list =
  let f = Ssair.Index.func p1.Phase1.index fx in
  if not (has_assume_core f.Ssair.Ir.fannot || blocks_assume_core f.Ssair.Ir.blocks) then []
  else begin
    let env = p1.Phase1.index.Ssair.Index.prog.Ssair.Ir.env in
    let clause_assumptions = function
      | Annot.Assume_core { ptr; off; size } -> (
        let lo = Annot.eval_aexpr env off in
        let hi = lo + Annot.eval_aexpr env size in
        match Shm.region shm ptr with
        | Some _ -> [ Aregion (ptr, lo, hi) ]
        | None ->
          (* a parameter or local pointer: resolve through the shm facts and
             the points-to analysis *)
          let from_regions =
            Phase1.Rset.fold
              (fun tgt acc ->
                match tgt.Phase1.Rtgt.off with
                | Offset.Byte b -> Aregion (tgt.Phase1.Rtgt.region, b + lo, b + hi) :: acc
                | Offset.Top -> acc)
              (Phase1.param_targets p1 fx ptr)
              []
          in
          let from_nodes =
            Pointsto.Tset.fold
              (fun tgt acc -> Anode tgt.Pointsto.Target.node :: acc)
              (Pointsto.param_pts pts fx ptr)
              []
          in
          from_regions @ from_nodes)
      | _ -> []
    in
    let fn_level = List.concat_map clause_assumptions f.fannot in
    let stmt_level =
      List.concat_map
        (fun (b : Ssair.Ir.block) ->
          List.concat_map
            (fun (i : Ssair.Ir.instr) ->
              match i.Ssair.Ir.idesc with
              | Ssair.Ir.Annotation { clause; _ } -> clause_assumptions clause
              | _ -> [])
            b.Ssair.Ir.instrs)
        f.Ssair.Ir.blocks
    in
    fn_level @ stmt_level
  end
