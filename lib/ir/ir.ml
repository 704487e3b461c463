(** LLVM-flavoured typed intermediate representation.

    The analysis phases of the paper operate on "LLVM byte-code, a typed
    intermediate format in SSA form" (§3.3).  This module provides the
    equivalent substrate: functions are CFGs of basic blocks holding typed
    instructions; {!Build} lowers scalar locals whose address is never
    taken straight to SSA registers with phi nodes.

    Instruction results are identified by integer ids ([iid]); the value
    [Vreg iid] refers to the result of instruction or phi [iid]. *)

open Minic

type vid = int
type bid = int

type value =
  | Vreg of vid                (** result of an instruction or phi *)
  | Vparam of string           (** function parameter *)
  | Vint of int64 * Ty.t
  | Vfloat of float * Ty.t
  | Vglobal of string          (** address of a global *)
  | Vstr of string             (** address of a string literal *)
  | Vundef of Ty.t

type gep_kind =
  | Gfield of string * string  (** struct name, field name *)
  | Gindex of Ty.t             (** element type: base + idx * sizeof(elem) *)

type idesc =
  | Alloca of { aname : string; aty : Ty.t }
      (** stack slot for local [aname]; result type is [Ptr aty] *)
  | Load of { ptr : value; lty : Ty.t }
  | Store of { ptr : value; sval : value; sty : Ty.t }  (** stored type *)
  | Binop of { op : Ast.binop; bty : Ty.t; lhs : value; rhs : value }
  | Unop of { uop : Ast.unop; uty : Ty.t; operand : value }
  | Cast of { from_ty : Ty.t; to_ty : Ty.t; cval : value }
  | Gep of { base : value; kind : gep_kind; idx : value }
      (** address arithmetic; [idx] is [Vint 0] for field geps *)
  | Call of { callee : string; args : value list; rty : Ty.t }
  | Annotation of { clause : Annot.clause; aval : value option }
      (** SafeFlow annotation converted to a pseudo-instruction ("calls to
          external dummy functions" in the paper); [aval] is the value the
          clause talks about at this program point (e.g. the asserted
          local), so the reference survives SSA conversion *)

type instr = {
  iid : vid;
  mutable idesc : idesc;
  ity : Ty.t;         (** result type; [Ty.Void] when no result *)
  iloc : Loc.t;
}

type phi = {
  pid : vid;
  pty : Ty.t;
  mutable incoming : (bid * value) list;
  pname : string;  (** name hint (the promoted local) *)
}

type term =
  | Br of bid
  | Cbr of value * bid * bid
  | Switch of value * (int64 * bid) list * bid  (** cases, default *)
  | Ret of value option
  | Unreachable

type block = {
  bbid : bid;
  mutable phis : phi list;
  mutable instrs : instr list;
  mutable termin : term;
}

type func = {
  fname : string;
  fret : Ty.t;
  fparams : (string * Ty.t) list;
  mutable blocks : block list;  (** entry first; order otherwise arbitrary *)
  fentry : bid;
  fannot : Annot.t;
  floc : Loc.t;
}

type program = {
  env : Ty.env;
  globals : (string * Ty.t * Tast.ginit_elem list) list;
  externs : (string * Ty.t * Ty.t list) list;
  funcs : func list;
}

(* -- Accessors ---------------------------------------------------------- *)

let block f bid = List.find (fun b -> b.bbid = bid) f.blocks

let block_opt f bid = List.find_opt (fun b -> b.bbid = bid) f.blocks

(** [func_index p] builds a name index over [p.funcs] once; the returned
    lookup is O(1) and the first definition of a name wins.  Apply it
    once per pass, not per lookup. *)
let func_index p =
  let tbl = Hashtbl.create (List.length p.funcs) in
  List.iter (fun f -> if not (Hashtbl.mem tbl f.fname) then Hashtbl.add tbl f.fname f) p.funcs;
  Hashtbl.find_opt tbl

let succs_of_term = function
  | Br b -> [ b ]
  | Cbr (_, t, e) -> if t = e then [ t ] else [ t; e ]
  | Switch (_, cases, d) -> List.sort_uniq compare (d :: List.map snd cases)
  | Ret _ | Unreachable -> []

let successors _f b = succs_of_term b.termin

let predecessors f =
  let preds = Hashtbl.create 16 in
  List.iter (fun b -> Hashtbl.replace preds b.bbid []) f.blocks;
  List.iter
    (fun b ->
      List.iter
        (fun s ->
          let old = Option.value ~default:[] (Hashtbl.find_opt preds s) in
          Hashtbl.replace preds s (b.bbid :: old))
        (successors f b))
    f.blocks;
  preds

(** Reverse postorder of the reachable blocks, entry first. *)
let reverse_postorder f =
  let visited = Hashtbl.create 16 in
  let order = ref [] in
  let rec dfs bid =
    if not (Hashtbl.mem visited bid) then begin
      Hashtbl.replace visited bid ();
      (match block_opt f bid with
      | Some b -> List.iter dfs (successors f b)
      | None -> ());
      order := bid :: !order
    end
  in
  dfs f.fentry;
  !order

(** Apply [f] to each value an instruction reads, in operand order. *)
let iter_operands f = function
  | Alloca _ | Annotation { aval = None; _ } -> ()
  | Annotation { aval = Some v; _ } | Load { ptr = v; _ } | Unop { operand = v; _ }
  | Cast { cval = v; _ } ->
    f v
  | Store { ptr = v; sval = w; _ } | Binop { lhs = v; rhs = w; _ } | Gep { base = v; idx = w; _ } ->
    f v;
    f w
  | Call { args; _ } -> List.iter f args

(** Values read by an instruction. *)
let operands_of_instr i =
  let acc = ref [] in
  iter_operands (fun v -> acc := v :: !acc) i.idesc;
  List.rev !acc

(** [d] with every operand mapped through [f]; [d] itself when [f]
    returns each operand unchanged (physically). *)
let map_operands f d =
  let f1 v k = let v' = f v in if v' == v then d else k v' in
  let f2 v w k =
    let v' = f v and w' = f w in
    if v' == v && w' == w then d else k v' w'
  in
  match d with
  | Alloca _ | Annotation { aval = None; _ } -> d
  | Annotation { clause; aval = Some v } -> f1 v (fun v -> Annotation { clause; aval = Some v })
  | Load l -> f1 l.ptr (fun ptr -> Load { l with ptr })
  | Store s -> f2 s.ptr s.sval (fun ptr sval -> Store { s with ptr; sval })
  | Binop o -> f2 o.lhs o.rhs (fun lhs rhs -> Binop { o with lhs; rhs })
  | Unop u -> f1 u.operand (fun operand -> Unop { u with operand })
  | Cast c -> f1 c.cval (fun cval -> Cast { c with cval })
  | Gep g -> f2 g.base g.idx (fun base idx -> Gep { g with base; idx })
  | Call c ->
    let args = List.map f c.args in
    if List.for_all2 ( == ) args c.args then d else Call { c with args }

let map_term_operands f = function
  | Cbr (v, t, e) -> Cbr (f v, t, e)
  | Switch (v, cases, d) -> Switch (f v, cases, d)
  | Ret (Some v) -> Ret (Some (f v))
  | (Br _ | Ret None | Unreachable) as t -> t

let operands_of_term = function
  | Br _ | Ret None | Unreachable -> []
  | Cbr (v, _, _) -> [ v ]
  | Switch (v, _, _) -> [ v ]
  | Ret (Some v) -> [ v ]

(** Does instruction [i] define a value? *)
let defines i = not (Ty.equal i.ity Ty.Void)

(** All instructions of [f], in block order. *)
let all_instrs f = List.concat_map (fun b -> b.instrs) f.blocks

let all_phis f = List.concat_map (fun b -> b.phis) f.blocks

(** Map: vid → defining instruction (or phi) and its block. *)
type def_site = Def_instr of instr * bid | Def_phi of phi * bid

let def_table f =
  let t = Hashtbl.create 64 in
  List.iter
    (fun b ->
      List.iter (fun p -> Hashtbl.replace t p.pid (Def_phi (p, b.bbid))) b.phis;
      List.iter
        (fun i -> if defines i then Hashtbl.replace t i.iid (Def_instr (i, b.bbid)))
        b.instrs)
    f.blocks;
  t

(** Use sites of each vid: instructions, phis and terminators reading it. *)
type use_site = Use_instr of instr * bid | Use_phi of phi * bid | Use_term of bid

let use_table f =
  let t : (vid, use_site list) Hashtbl.t = Hashtbl.create 64 in
  let add v site =
    match v with
    | Vreg id ->
      let old = Option.value ~default:[] (Hashtbl.find_opt t id) in
      Hashtbl.replace t id (site :: old)
    | _ -> ()
  in
  List.iter
    (fun b ->
      List.iter
        (fun p -> List.iter (fun (_, v) -> add v (Use_phi (p, b.bbid))) p.incoming)
        b.phis;
      List.iter
        (fun i -> iter_operands (fun v -> add v (Use_instr (i, b.bbid))) i.idesc)
        b.instrs;
      List.iter (fun v -> add v (Use_term b.bbid)) (operands_of_term b.termin))
    f.blocks;
  t

(* -- Printer ------------------------------------------------------------ *)

let pp_value ppf = function
  | Vreg id -> Fmt.pf ppf "%%%d" id
  | Vparam p -> Fmt.pf ppf "%%%s" p
  | Vint (n, ty) -> Fmt.pf ppf "%Ld:%a" n Ty.pp ty
  | Vfloat (x, ty) -> Fmt.pf ppf "%g:%a" x Ty.pp ty
  | Vglobal g -> Fmt.pf ppf "@%s" g
  | Vstr s -> Fmt.pf ppf "str%S" s
  | Vundef _ -> Fmt.string ppf "undef"

let pp_idesc ppf = function
  | Alloca { aname; aty } -> Fmt.pf ppf "alloca %a ; %s" Ty.pp aty aname
  | Load { ptr; lty } -> Fmt.pf ppf "load %a, %a" Ty.pp lty pp_value ptr
  | Store { ptr; sval; sty } -> Fmt.pf ppf "store %a %a, %a" Ty.pp sty pp_value sval pp_value ptr
  | Binop { op; lhs; rhs; _ } ->
    Fmt.pf ppf "binop %a %a, %a" Ast.pp_binop op pp_value lhs pp_value rhs
  | Unop { uop; operand; _ } -> Fmt.pf ppf "unop %a %a" Ast.pp_unop uop pp_value operand
  | Cast { from_ty; to_ty; cval } ->
    Fmt.pf ppf "cast %a : %a -> %a" pp_value cval Ty.pp from_ty Ty.pp to_ty
  | Gep { base; kind = Gfield (s, fld); _ } ->
    Fmt.pf ppf "gep %a, %s.%s" pp_value base s fld
  | Gep { base; kind = Gindex ty; idx } ->
    Fmt.pf ppf "gep %a, [%a x %a]" pp_value base pp_value idx Ty.pp ty
  | Call { callee; args; _ } ->
    Fmt.pf ppf "call %s(%a)" callee Fmt.(list ~sep:comma pp_value) args
  | Annotation { clause; aval } ->
    Fmt.pf ppf "annot %a%a" Annot.pp_clause clause
      Fmt.(option (fun ppf v -> Fmt.pf ppf " on %a" pp_value v)) aval

let pp_term ppf = function
  | Br b -> Fmt.pf ppf "br b%d" b
  | Cbr (v, t, e) -> Fmt.pf ppf "cbr %a, b%d, b%d" pp_value v t e
  | Switch (v, cases, d) ->
    Fmt.pf ppf "switch %a [%a] default b%d" pp_value v
      Fmt.(list ~sep:comma (pair ~sep:(any ": b") int64 int))
      cases d
  | Ret None -> Fmt.string ppf "ret void"
  | Ret (Some v) -> Fmt.pf ppf "ret %a" pp_value v
  | Unreachable -> Fmt.string ppf "unreachable"

let pp_block ppf b =
  Fmt.pf ppf "b%d:@." b.bbid;
  List.iter
    (fun p ->
      Fmt.pf ppf "  %%%d = phi %a [%a] ; %s@." p.pid Ty.pp p.pty
        Fmt.(list ~sep:comma (fun ppf (bid, v) -> Fmt.pf ppf "b%d: %a" bid pp_value v))
        p.incoming p.pname)
    b.phis;
  List.iter
    (fun i ->
      if defines i then Fmt.pf ppf "  %%%d = %a@." i.iid pp_idesc i.idesc
      else Fmt.pf ppf "  %a@." pp_idesc i.idesc)
    b.instrs;
  Fmt.pf ppf "  %a@." pp_term b.termin

let pp_func ppf f =
  Fmt.pf ppf "func %a %s(%a) {@." Ty.pp f.fret f.fname
    Fmt.(list ~sep:comma (fun ppf (n, t) -> Fmt.pf ppf "%a %%%s" Ty.pp t n))
    f.fparams;
  List.iter (pp_block ppf) f.blocks;
  Fmt.pf ppf "}@."

let pp_program ppf p = List.iter (pp_func ppf) p.funcs

let func_to_string f = Fmt.str "%a" pp_func f
