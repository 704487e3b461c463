(** Reference interpreter for the IR.

    Serves three purposes:
    - differential testing (SSA lowering must preserve the semantics of
      the memory form);
    - executing the MiniC subject systems inside the examples, with
      external functions (shared memory, sensors, actuators) provided by
      OCaml callbacks — this is how the C core controllers run against the
      OCaml plant simulator;
    - executing the run-time [InitCheck] the paper inserts during shared
      memory initialization.

    Memory is byte-addressable per allocation block, using the same LP64
    layout as {!Minic.Ty.sizeof}, so struct/array offsets are exercised
    exactly as the static analysis sees them. *)

open Minic

exception Trap of string

let trap fmt = Fmt.kstr (fun m -> raise (Trap m)) fmt

type ptr = { pblk : int; poff : int }

type rtval =
  | VInt of int64   (** all integer widths, sign-extended to 64 bits *)
  | VFloat of float
  | VPtr of ptr
  | VUndef

type memblock = {
  mname : string;
  data : Bytes.t;
}

type state = {
  prog : Ir.program;
  find : string -> Ir.func option;  (** {!Ir.func_index} of [prog] *)
  mem : (int, memblock) Hashtbl.t;
  mutable next_blk : int;
  global_addr : (string, ptr) Hashtbl.t;
  string_addr : (string, ptr) Hashtbl.t;
  mutable extern_handler : state -> string -> rtval list -> rtval;
  mutable steps : int;
  max_steps : int;  (** fuel, to bound runaway control loops *)
  mutable next_fid : int;
  mutable hooks : hooks_ref option;
}

and hooks_ref = {
  mutable h_on_enter : state -> frame_ option -> rtval list -> frame_ -> unit;
  mutable h_on_exit : state -> frame_ -> rtval -> unit;
  mutable h_on_instr : state -> frame_ -> Ir.instr -> unit;
  mutable h_on_call : state -> frame_ -> Ir.instr -> unit;
      (** fires before a Call instruction executes (defined or extern) *)
}

and frame_ = {
  fid : int;  (** unique per activation, for instrumentation *)
  func : Ir.func;
  regs : (Ir.vid, rtval) Hashtbl.t;
  params : (string, rtval) Hashtbl.t;
}

let null_ptr = { pblk = 0; poff = 0 }

let alloc_block st name size =
  let id = st.next_blk in
  st.next_blk <- id + 1;
  Hashtbl.replace st.mem id { mname = name; data = Bytes.make (max size 1) '\000' };
  { pblk = id; poff = 0 }

let default_extern _st name _args =
  trap "call to unhandled external function %s" name

let create ?(max_steps = 50_000_000) ?(extern_handler = default_extern)
    (prog : Ir.program) : state =
  let st =
    {
      prog;
      find = Ir.func_index prog;
      mem = Hashtbl.create 64;
      next_blk = 1;
      global_addr = Hashtbl.create 32;
      string_addr = Hashtbl.create 16;
      extern_handler;
      steps = 0;
      max_steps;
      next_fid = 0;
      hooks = None;
    }
  in
  st

(* -- Typed memory access ------------------------------------------------- *)

let scalar_width env ty =
  match Ty.resolve env ty with
  | Ty.Char -> 1
  | Ty.Int | Ty.Float -> 4
  | Ty.Long | Ty.Double | Ty.Ptr _ -> 8
  | t -> trap "scalar_width of %a" Ty.pp t

(* pointers in memory are encoded as block*2^32 + off + 1 (0 = NULL) *)
let encode_ptr p =
  if p.pblk = 0 && p.poff = 0 then 0L
  else Int64.add (Int64.mul (Int64.of_int p.pblk) 0x1_0000_0000L) (Int64.of_int (p.poff + 1))

let decode_ptr bits =
  if Int64.equal bits 0L then null_ptr
  else
    let blk = Int64.to_int (Int64.div bits 0x1_0000_0000L) in
    let off = Int64.to_int (Int64.rem bits 0x1_0000_0000L) - 1 in
    { pblk = blk; poff = off }

let get_block st p =
  match Hashtbl.find_opt st.mem p.pblk with
  | Some b -> b
  | None -> trap "dangling pointer (block %d)" p.pblk

let check_bounds blk p width =
  if p.poff < 0 || p.poff + width > Bytes.length blk.data then
    trap "out-of-bounds access at %s+%d (size %d, width %d)" blk.mname p.poff
      (Bytes.length blk.data) width

let load_scalar st env ty p : rtval =
  if p.pblk = 0 then trap "null pointer dereference (load)";
  let blk = get_block st p in
  let w = scalar_width env ty in
  check_bounds blk p w;
  match Ty.resolve env ty with
  | Ty.Char ->
    let b = Char.code (Bytes.get blk.data p.poff) in
    let b = if b land 0x80 <> 0 then b - 256 else b in
    VInt (Int64.of_int b)
  | Ty.Int -> VInt (Int64.of_int32 (Bytes.get_int32_le blk.data p.poff))
  | Ty.Long -> VInt (Bytes.get_int64_le blk.data p.poff)
  | Ty.Float -> VFloat (Int32.float_of_bits (Bytes.get_int32_le blk.data p.poff))
  | Ty.Double -> VFloat (Int64.float_of_bits (Bytes.get_int64_le blk.data p.poff))
  | Ty.Ptr _ -> VPtr (decode_ptr (Bytes.get_int64_le blk.data p.poff))
  | t -> trap "load of non-scalar %a" Ty.pp t

let store_scalar st env ty p (v : rtval) =
  if p.pblk = 0 then trap "null pointer dereference (store)";
  let blk = get_block st p in
  let w = scalar_width env ty in
  check_bounds blk p w;
  let as_int = function
    | VInt n -> n
    | VFloat f -> Int64.of_float f
    | VPtr q -> encode_ptr q
    | VUndef -> trap "store of undef"
  in
  let as_float = function
    | VFloat f -> f
    | VInt n -> Int64.to_float n
    | VPtr _ -> trap "pointer stored as float"
    | VUndef -> trap "store of undef"
  in
  match Ty.resolve env ty with
  | Ty.Char -> Bytes.set blk.data p.poff (Char.chr (Int64.to_int (as_int v) land 0xff))
  | Ty.Int -> Bytes.set_int32_le blk.data p.poff (Int64.to_int32 (as_int v))
  | Ty.Long -> Bytes.set_int64_le blk.data p.poff (as_int v)
  | Ty.Float -> Bytes.set_int32_le blk.data p.poff (Int32.bits_of_float (as_float v))
  | Ty.Double -> Bytes.set_int64_le blk.data p.poff (Int64.bits_of_float (as_float v))
  | Ty.Ptr _ ->
    let bits = match v with VPtr q -> encode_ptr q | VInt n -> n | _ -> trap "bad ptr store" in
    Bytes.set_int64_le blk.data p.poff bits
  | t -> trap "store of non-scalar %a" Ty.pp t

(* struct assignment lowers to Load/Store with struct type: memcpy *)
let copy_aggregate st env ty ~src ~dst =
  let n = Ty.sizeof env ty in
  let sblk = get_block st src and dblk = get_block st dst in
  check_bounds sblk src n;
  check_bounds dblk dst n;
  Bytes.blit sblk.data src.poff dblk.data dst.poff n

(* -- Globals and strings -------------------------------------------------- *)

let string_ptr st s =
  match Hashtbl.find_opt st.string_addr s with
  | Some p -> p
  | None ->
    let p = alloc_block st (Fmt.str "str%S" s) (String.length s + 1) in
    let blk = get_block st p in
    Bytes.blit_string s 0 blk.data 0 (String.length s);
    Hashtbl.replace st.string_addr s p;
    p

let global_ptr st name =
  match Hashtbl.find_opt st.global_addr name with
  | Some p -> p
  | None -> trap "unknown global %s" name

(* -- Numeric semantics ----------------------------------------------------- *)

let wrap env ty (v : rtval) : rtval =
  match (Ty.resolve env ty, v) with
  | Ty.Char, VInt n ->
    let b = Int64.to_int (Int64.logand n 0xffL) in
    VInt (Int64.of_int (if b land 0x80 <> 0 then b - 256 else b))
  | Ty.Int, VInt n -> VInt (Int64.of_int32 (Int64.to_int32 n))
  | (Ty.Long | Ty.Ptr _), VInt n -> VInt n
  | Ty.Float, VFloat f -> VFloat (Int32.float_of_bits (Int32.bits_of_float f))
  | Ty.Double, VFloat f -> VFloat f
  | Ty.Float, VInt n -> VFloat (Int32.float_of_bits (Int32.bits_of_float (Int64.to_float n)))
  | Ty.Double, VInt n -> VFloat (Int64.to_float n)
  | (Ty.Char | Ty.Int | Ty.Long), VFloat f -> VInt (Int64.of_float f)
  | _, v -> v

let truthy = function
  | VInt n -> not (Int64.equal n 0L)
  | VFloat f -> f <> 0.0
  | VPtr p -> p.pblk <> 0 || p.poff <> 0
  | VUndef -> trap "branch on undef"

let rec eval_binop env op bty (a : rtval) (b : rtval) : rtval =
  let open Ast in
  let bool b = VInt (if b then 1L else 0L) in
  match (a, b) with
  | VPtr p, VPtr q -> (
    match op with
    | Eq -> bool (p = q)
    | Ne -> bool (p <> q)
    | Lt -> bool (p.pblk = q.pblk && p.poff < q.poff)
    | Le -> bool (p.pblk = q.pblk && p.poff <= q.poff)
    | Gt -> bool (p.pblk = q.pblk && p.poff > q.poff)
    | Ge -> bool (p.pblk = q.pblk && p.poff >= q.poff)
    | Sub -> VInt (Int64.of_int (p.poff - q.poff))
    | _ -> trap "invalid pointer binop")
  | VPtr p, VInt n | VInt n, VPtr p -> (
    match op with
    | Eq -> bool (Int64.equal n 0L && p.pblk = 0)
    | Ne -> bool (not (Int64.equal n 0L && p.pblk = 0))
    | _ -> trap "invalid pointer/int binop")
  | VFloat x, VFloat y -> (
    match op with
    | Add -> VFloat (x +. y)
    | Sub -> VFloat (x -. y)
    | Mul -> VFloat (x *. y)
    | Div -> VFloat (x /. y)
    | Eq -> bool (x = y)
    | Ne -> bool (x <> y)
    | Lt -> bool (x < y)
    | Le -> bool (x <= y)
    | Gt -> bool (x > y)
    | Ge -> bool (x >= y)
    | _ -> trap "invalid float binop")
  | VInt x, VInt y -> (
    let w v = wrap env bty (VInt v) in
    match op with
    | Add -> w (Int64.add x y)
    | Sub -> w (Int64.sub x y)
    | Mul -> w (Int64.mul x y)
    | Div -> if Int64.equal y 0L then trap "division by zero" else w (Int64.div x y)
    | Mod -> if Int64.equal y 0L then trap "modulo by zero" else w (Int64.rem x y)
    | Shl -> w (Int64.shift_left x (Int64.to_int y land 63))
    | Shr -> w (Int64.shift_right x (Int64.to_int y land 63))
    | Band -> w (Int64.logand x y)
    | Bor -> w (Int64.logor x y)
    | Bxor -> w (Int64.logxor x y)
    | Eq -> bool (Int64.equal x y)
    | Ne -> bool (not (Int64.equal x y))
    | Lt -> bool (Int64.compare x y < 0)
    | Le -> bool (Int64.compare x y <= 0)
    | Gt -> bool (Int64.compare x y > 0)
    | Ge -> bool (Int64.compare x y >= 0)
    | Land -> bool (x <> 0L && y <> 0L)
    | Lor -> bool (x <> 0L || y <> 0L)
  )
  | (VFloat _ as x), (VInt _ as y) -> (
    match (wrap env Ty.Double x, wrap env Ty.Double y) with
    | xf, yf -> eval_binop_float env op xf yf)
  | (VInt _ as x), (VFloat _ as y) ->
    eval_binop_float env op (wrap env Ty.Double x) (wrap env Ty.Double y)
  | VUndef, _ | _, VUndef -> trap "binop on undef"
  | _ -> trap "invalid binop operands"

and eval_binop_float env op a b =
  match (a, b) with
  | VFloat _, VFloat _ -> eval_binop env op Ty.Double a b
  | _ -> trap "invalid float binop operands"

let eval_cast env ~from_ty ~to_ty (v : rtval) : rtval =
  match (Ty.resolve env from_ty, Ty.resolve env to_ty, v) with
  | _, Ty.Ptr _, VPtr p -> VPtr p
  | _, Ty.Ptr _, VInt 0L -> VPtr null_ptr
  | _, Ty.Ptr _, VInt bits -> VPtr (decode_ptr bits)
  | Ty.Ptr _, t, VPtr p when Ty.is_integer t -> wrap env t (VInt (encode_ptr p))
  | _, t, v -> wrap env t v

(* -- Execution -------------------------------------------------------------- *)

type frame = frame_

(** Install instrumentation hooks (used by the dynamic taint tracker). *)
let set_hooks st ~on_enter ~on_exit ~on_instr ~on_call =
  st.hooks <-
    Some
      { h_on_enter = on_enter; h_on_exit = on_exit; h_on_instr = on_instr;
        h_on_call = on_call }

let value st frame (v : Ir.value) : rtval =
  match v with
  | Ir.Vreg id -> (
    match Hashtbl.find_opt frame.regs id with
    | Some v -> v
    | None -> trap "read of unset register %%%d in %s" id frame.func.Ir.fname)
  | Ir.Vparam p -> (
    match Hashtbl.find_opt frame.params p with
    | Some v -> v
    | None -> trap "unknown parameter %s" p)
  | Ir.Vint (n, ty) -> wrap st.prog.Ir.env ty (VInt n)
  | Ir.Vfloat (f, _) -> VFloat f
  | Ir.Vglobal g -> VPtr (global_ptr st g)
  | Ir.Vstr s -> VPtr (string_ptr st s)
  | Ir.Vundef _ -> VUndef

let rec call ?caller st fname (args : rtval list) : rtval =
  match st.find fname with
  | None -> st.extern_handler st fname args
  | Some f -> exec_func ?caller st f args

and exec_func ?caller st (f : Ir.func) (args : rtval list) : rtval =
  let env = st.prog.Ir.env in
  st.next_fid <- st.next_fid + 1;
  let frame =
    { fid = st.next_fid; func = f; regs = Hashtbl.create 64; params = Hashtbl.create 8 }
  in
  (if List.length args <> List.length f.fparams then
     trap "arity mismatch calling %s" f.fname);
  List.iter2
    (fun (name, ty) v -> Hashtbl.replace frame.params name (wrap env ty v))
    f.fparams args;
  (match st.hooks with
  | Some h -> h.h_on_enter st caller args frame
  | None -> ());
  let rec run_block prev_bid bid : rtval =
    st.steps <- st.steps + 1;
    if st.steps > st.max_steps then trap "out of fuel (%d steps)" st.max_steps;
    let blk = Ir.block f bid in
    (* phis evaluate simultaneously from the incoming edge *)
    let phi_vals =
      List.map
        (fun (p : Ir.phi) ->
          match List.assoc_opt prev_bid p.incoming with
          | Some v -> (p.pid, value st frame v)
          | None -> trap "phi %%%d missing incoming from b%d" p.pid prev_bid)
        blk.phis
    in
    List.iter (fun (pid, v) -> Hashtbl.replace frame.regs pid v) phi_vals;
    List.iter
      (fun i ->
        exec_instr st frame i;
        match st.hooks with Some h -> h.h_on_instr st frame i | None -> ())
      blk.instrs;
    match blk.termin with
    | Ir.Br next -> run_block bid next
    | Ir.Cbr (c, t, e) -> run_block bid (if truthy (value st frame c) then t else e)
    | Ir.Switch (v, cases, d) -> (
      match value st frame v with
      | VInt n -> (
        match List.assoc_opt n cases with
        | Some target -> run_block bid target
        | None -> run_block bid d)
      | _ -> trap "switch on non-integer")
    | Ir.Ret None ->
      (match st.hooks with Some h -> h.h_on_exit st frame VUndef | None -> ());
      VUndef
    | Ir.Ret (Some v) ->
      let r = value st frame v in
      (match st.hooks with Some h -> h.h_on_exit st frame r | None -> ());
      r
    | Ir.Unreachable -> trap "reached unreachable in %s b%d" f.fname bid
  in
  run_block (-1) f.fentry

and exec_instr st frame (i : Ir.instr) : unit =
  let env = st.prog.Ir.env in
  let set v = Hashtbl.replace frame.regs i.Ir.iid v in
  match i.Ir.idesc with
  | Ir.Alloca { aname; aty } -> set (VPtr (alloc_block st aname (Ty.sizeof env aty)))
  | Ir.Load { ptr; lty } -> (
    match value st frame ptr with
    | VPtr p ->
      if Ty.is_scalar (Ty.resolve env lty) then set (load_scalar st env lty p)
      else begin
        (* aggregate load: materialize a temporary block *)
        let tmp = alloc_block st "$agg" (Ty.sizeof env lty) in
        copy_aggregate st env lty ~src:p ~dst:tmp;
        set (VPtr tmp)
      end
    | VUndef -> trap "load through undef pointer"
    | _ -> trap "load through non-pointer")
  | Ir.Store { ptr; sval; sty } -> (
    match value st frame ptr with
    | VPtr p -> (
      match Ty.resolve env sty with
      | (Ty.Struct _ | Ty.Array _) as aggty -> (
        match value st frame sval with
        | VPtr q -> copy_aggregate st env aggty ~src:q ~dst:p
        | _ -> trap "aggregate store of non-pointer value")
      | _ -> store_scalar st env sty p (value st frame sval))
    | VUndef -> trap "store through undef pointer"
    | _ -> trap "store through non-pointer")
  | Ir.Binop { op; bty; lhs; rhs } ->
    set (eval_binop env op bty (value st frame lhs) (value st frame rhs))
  | Ir.Unop { uop; uty; operand } -> (
    let v = value st frame operand in
    match (uop, v) with
    | Ast.Neg, VInt n -> set (wrap env uty (VInt (Int64.neg n)))
    | Ast.Neg, VFloat f -> set (VFloat (-.f))
    | Ast.Lnot, v -> set (VInt (if truthy v then 0L else 1L))
    | Ast.Bnot, VInt n -> set (wrap env uty (VInt (Int64.lognot n)))
    | _ -> trap "invalid unop operand")
  | Ir.Cast { from_ty; to_ty; cval } ->
    set (eval_cast env ~from_ty ~to_ty (value st frame cval))
  | Ir.Gep { base; kind; idx } -> (
    match value st frame base with
    | VPtr p -> (
      match kind with
      | Ir.Gfield (sname, fname) -> (
        match Ty.field_offset env sname fname with
        | Some off -> set (VPtr { p with poff = p.poff + off })
        | None -> trap "unknown field %s.%s" sname fname)
      | Ir.Gindex elt -> (
        match value st frame idx with
        | VInt n ->
          set (VPtr { p with poff = p.poff + (Int64.to_int n * Ty.sizeof env elt) })
        | _ -> trap "non-integer gep index"))
    | VUndef -> trap "gep on undef pointer"
    | _ -> trap "gep on non-pointer")
  | Ir.Call { callee; args; rty } ->
    (match st.hooks with Some h -> h.h_on_call st frame i | None -> ());
    let vs = List.map (value st frame) args in
    let r = call ~caller:frame st callee vs in
    if not (Ty.equal rty Ty.Void) then set (wrap env rty r)
  | Ir.Annotation _ -> ()

(* -- Program setup and entry ------------------------------------------------ *)

(** Allocate global variables and apply their static initializers. *)
let init_globals (st : state) =
  let env = st.prog.Ir.env in
  List.iter
    (fun (name, ty, inits) ->
      let p = alloc_block st name (Ty.sizeof env ty) in
      Hashtbl.replace st.global_addr name p;
      List.iter
        (fun (gi : Tast.ginit_elem) ->
          let cell = { p with poff = p.poff + gi.gi_offset } in
          let v =
            let rec const_val (e : Tast.texpr) : rtval =
              match e.tdesc with
              | Tast.Tint n -> VInt n
              | Tast.Tfloat f -> VFloat f
              | Tast.Tcast (ty, inner) ->
                eval_cast env ~from_ty:inner.tty ~to_ty:ty (const_val inner)
              | Tast.Tunop (Ast.Neg, inner) -> (
                match const_val inner with
                | VInt n -> VInt (Int64.neg n)
                | VFloat f -> VFloat (-.f)
                | v -> v)
              | _ -> trap "non-constant global initializer for %s" name
            in
            const_val gi.gi_value
          in
          store_scalar st env gi.gi_value.tty cell v)
        inits)
    st.prog.Ir.globals

(** Run [main] (or a chosen entry) and return its result. *)
let run ?(entry = "main") ?extern_handler ?max_steps (prog : Ir.program) : rtval =
  let st = create ?max_steps ?extern_handler prog in
  init_globals st;
  call st entry []

(** Run an entry point with explicit arguments on a prepared state. *)
let run_state (st : state) ?(entry = "main") (args : rtval list) : rtval =
  call st entry args
