(** Type checker and elaborator: [Ast.program] → [Tast.program].

    Responsibilities:
    - build the struct/typedef environment;
    - resolve typedefs and fold [sizeof];
    - insert explicit array-to-pointer decay and implicit arithmetic
      conversions (as casts);
    - alpha-rename block-scoped locals to unique names and collect them;
    - desugar brace initializers of locals into element assignments and of
      globals into (offset, value) lists;
    - reject constructs outside the MiniC subset. *)

type scope = {
  parent : scope option;
  vars : (string, string * Ty.t) Hashtbl.t;  (* source name -> unique name, type *)
}

type fstate = {
  env : Ty.env;
  globals : (string, Ty.t) Hashtbl.t;
  funcs : (string, Ty.t * Ty.t list) Hashtbl.t;  (* defined + extern *)
  mutable locals : (string * Ty.t) list;  (* accumulated, reverse order *)
  counters : (string, int) Hashtbl.t;
  ret : Ty.t;
}

let err loc fmt = Loc.error loc ("type error: " ^^ fmt)

let rec lookup_scope scope name =
  match Hashtbl.find_opt scope.vars name with
  | Some r -> Some r
  | None -> ( match scope.parent with Some p -> lookup_scope p name | None -> None)

let fresh_name fs name =
  let n = Option.value ~default:0 (Hashtbl.find_opt fs.counters name) in
  Hashtbl.replace fs.counters name (n + 1);
  if n = 0 then name else Fmt.str "%s$%d" name n

(** Resolve a possibly-typedef'd type, erroring on unknown names. *)
let resolve_ty env loc ty =
  try Ty.resolve env ty
  with Not_found -> err loc "unknown type %a" Ty.pp ty

(* deep-resolve: rewrite Named nodes everywhere inside the type *)
let rec deep_resolve env loc ty =
  match resolve_ty env loc ty with
  | Ty.Ptr t -> Ty.Ptr (deep_resolve env loc t)
  | Ty.Array (t, n) -> Ty.Array (deep_resolve env loc t, n)
  | Ty.Fun (r, args) ->
    Ty.Fun (deep_resolve env loc r, List.map (deep_resolve env loc) args)
  | t -> t

let mk ?(loc = Loc.dummy) tdesc tty : Tast.texpr = { tdesc; tty; tloc = loc }

(** Insert array decay when an array-typed expression is used as a value. *)
let decay e =
  match e.Tast.tty with
  | Ty.Array (t, _) -> mk ~loc:e.Tast.tloc (Tast.Tdecay e) (Ty.Ptr t)
  | _ -> e

(** Usual arithmetic conversion: the common type of two arithmetic
    operands. *)
let common_arith a b =
  match (a, b) with
  | Ty.Double, _ | _, Ty.Double -> Ty.Double
  | Ty.Float, _ | _, Ty.Float -> Ty.Float
  | Ty.Long, _ | _, Ty.Long -> Ty.Long
  | _ -> Ty.Int

(** Coerce [e] to type [want], inserting a cast when needed.  Allows
    arithmetic conversions, void*-to-pointer adjustments and null-pointer
    constants. *)
let coerce env loc want e =
  let have = e.Tast.tty in
  if Ty.compatible env want have then e
  else
    match (Ty.resolve env want, Ty.resolve env have) with
    | a, b when Ty.is_arith a && Ty.is_arith b -> mk ~loc (Tast.Tcast (want, e)) want
    | Ty.Ptr _, Ty.Ptr Ty.Void | Ty.Ptr Ty.Void, Ty.Ptr _ ->
      mk ~loc (Tast.Tcast (want, e)) want
    | Ty.Ptr _, _ when (match e.Tast.tdesc with Tast.Tint 0L -> true | _ -> false) ->
      mk ~loc (Tast.Tcast (want, e)) want
    | _ ->
      err loc "cannot convert %a to %a" Ty.pp have Ty.pp want

let rec check_expr fs scope (e : Ast.expr) : Tast.texpr =
  let loc = e.eloc in
  let env = fs.env in
  match e.edesc with
  | Ast.Cint n -> mk ~loc (Tast.Tint n) Ty.Int
  | Ast.Cfloat f -> mk ~loc (Tast.Tfloat f) Ty.Double
  | Ast.Cchar c -> mk ~loc (Tast.Tint (Int64.of_int (Char.code c))) Ty.Char
  | Ast.Cstr s -> mk ~loc (Tast.Tstr s) (Ty.Ptr Ty.Char)
  | Ast.Var x -> (
    match lookup_scope scope x with
    | Some (uname, ty) -> mk ~loc (Tast.Tlocal uname) ty
    | None -> (
      match Hashtbl.find_opt fs.globals x with
      | Some ty -> mk ~loc (Tast.Tglobal x) ty
      | None -> err loc "unbound variable %s" x))
  | Ast.Sizeof ty ->
    let ty = deep_resolve env loc ty in
    mk ~loc (Tast.Tint (Int64.of_int (Ty.sizeof env ty))) Ty.Long
  | Ast.Unop (op, a) -> (
    let a = decay (check_expr fs scope a) in
    match op with
    | Ast.Neg ->
      if not (Ty.is_arith (Ty.resolve env a.tty)) then err loc "negation of non-arithmetic";
      mk ~loc (Tast.Tunop (op, a)) a.tty
    | Ast.Lnot ->
      if not (Ty.is_scalar (Ty.resolve env a.tty)) then err loc "! of non-scalar";
      mk ~loc (Tast.Tunop (op, a)) Ty.Int
    | Ast.Bnot ->
      if not (Ty.is_integer (Ty.resolve env a.tty)) then err loc "~ of non-integer";
      mk ~loc (Tast.Tunop (op, a)) a.tty)
  | Ast.Binop (op, a, b) -> check_binop fs scope loc op a b
  | Ast.Assign (lhs, rhs) ->
    let lhs = check_expr fs scope lhs in
    if not (Tast.is_lvalue lhs) then err loc "assignment to non-lvalue";
    (match Ty.resolve env lhs.tty with
    | Ty.Array _ -> err loc "assignment to array"
    | _ -> ());
    let rhs = decay (check_expr fs scope rhs) in
    let rhs = coerce env loc lhs.tty rhs in
    mk ~loc (Tast.Tassign (lhs, rhs)) lhs.tty
  | Ast.Call (fname, args) -> (
    match Hashtbl.find_opt fs.funcs fname with
    | None -> err loc "call to undeclared function %s" fname
    | Some (ret, ptys) ->
      if List.length ptys <> List.length args then
        err loc "wrong number of arguments to %s (expected %d, got %d)" fname
          (List.length ptys) (List.length args);
      let args =
        List.map2
          (fun pty arg -> coerce env loc pty (decay (check_expr fs scope arg)))
          ptys args
      in
      mk ~loc (Tast.Tcall (fname, args)) ret)
  | Ast.Deref p -> (
    let p = decay (check_expr fs scope p) in
    match Ty.resolve env p.tty with
    | Ty.Ptr t -> mk ~loc (Tast.Tderef p) (deep_resolve env loc t)
    | t -> err loc "dereference of non-pointer (%a)" Ty.pp t)
  | Ast.Addr a ->
    let a = check_expr fs scope a in
    if not (Tast.is_lvalue a) then err loc "address of non-lvalue";
    mk ~loc (Tast.Taddr a) (Ty.Ptr a.tty)
  | Ast.Index (base, idx) -> (
    let base = check_expr fs scope base in
    let idx = decay (check_expr fs scope idx) in
    if not (Ty.is_integer (Ty.resolve env idx.tty)) then err loc "non-integer array index";
    match Ty.resolve env base.tty with
    | Ty.Array (t, _) -> mk ~loc (Tast.Tindex (base, idx)) (deep_resolve env loc t)
    | Ty.Ptr t -> mk ~loc (Tast.Tindex (decay base, idx)) (deep_resolve env loc t)
    | t -> err loc "indexing non-array (%a)" Ty.pp t)
  | Ast.Field (s, f) -> (
    let s = check_expr fs scope s in
    match Ty.resolve env s.tty with
    | Ty.Struct sname -> (
      match Ty.field_type env sname f with
      | Some fty -> mk ~loc (Tast.Tfield (s, f)) (deep_resolve env loc fty)
      | None -> err loc "struct %s has no field %s" sname f)
    | t -> err loc "field access on non-struct (%a)" Ty.pp t)
  | Ast.Arrow (p, f) ->
    check_expr fs scope
      (Ast.mk_expr ~loc (Ast.Field (Ast.mk_expr ~loc (Ast.Deref p), f)))
  | Ast.Cast (ty, a) ->
    let ty = deep_resolve env loc ty in
    let a = decay (check_expr fs scope a) in
    mk ~loc (Tast.Tcast (ty, a)) ty
  | Ast.Cond (c, a, b) ->
    let c = decay (check_expr fs scope c) in
    if not (Ty.is_scalar (Ty.resolve env c.tty)) then err loc "non-scalar condition";
    let a = decay (check_expr fs scope a) in
    let b = decay (check_expr fs scope b) in
    let ty =
      if Ty.compatible env a.tty b.tty then a.tty
      else if Ty.is_arith (Ty.resolve env a.tty) && Ty.is_arith (Ty.resolve env b.tty)
      then common_arith (Ty.resolve env a.tty) (Ty.resolve env b.tty)
      else err loc "incompatible branches of ?:"
    in
    mk ~loc (Tast.Tcond (c, coerce env loc ty a, coerce env loc ty b)) ty

and check_binop fs scope loc op a b =
  let env = fs.env in
  let a = decay (check_expr fs scope a) in
  let b = decay (check_expr fs scope b) in
  let ra = Ty.resolve env a.tty and rb = Ty.resolve env b.tty in
  match op with
  | Ast.Add | Ast.Sub -> (
    match (ra, rb) with
    | ta, tb when Ty.is_arith ta && Ty.is_arith tb ->
      let ty = common_arith ta tb in
      mk ~loc (Tast.Tbinop (op, coerce env loc ty a, coerce env loc ty b)) ty
    | Ty.Ptr _, tb when Ty.is_integer tb -> mk ~loc (Tast.Tbinop (op, a, b)) a.tty
    | ta, Ty.Ptr _ when Ty.is_integer ta && op = Ast.Add ->
      mk ~loc (Tast.Tbinop (op, b, a)) b.tty
    | Ty.Ptr _, Ty.Ptr _ when op = Ast.Sub ->
      mk ~loc (Tast.Tbinop (op, a, b)) Ty.Long
    | _ -> err loc "invalid operands of +/-")
  | Ast.Mul | Ast.Div ->
    if not (Ty.is_arith ra && Ty.is_arith rb) then err loc "invalid operands of */";
    let ty = common_arith ra rb in
    mk ~loc (Tast.Tbinop (op, coerce env loc ty a, coerce env loc ty b)) ty
  | Ast.Mod | Ast.Shl | Ast.Shr | Ast.Band | Ast.Bor | Ast.Bxor ->
    if not (Ty.is_integer ra && Ty.is_integer rb) then
      err loc "invalid operands of integer operator";
    let ty = common_arith ra rb in
    mk ~loc (Tast.Tbinop (op, coerce env loc ty a, coerce env loc ty b)) ty
  | Ast.Eq | Ast.Ne | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge -> (
    match (ra, rb) with
    | ta, tb when Ty.is_arith ta && Ty.is_arith tb ->
      let ty = common_arith ta tb in
      mk ~loc (Tast.Tbinop (op, coerce env loc ty a, coerce env loc ty b)) Ty.Int
    | Ty.Ptr _, Ty.Ptr _ -> mk ~loc (Tast.Tbinop (op, a, b)) Ty.Int
    | Ty.Ptr _, tb when Ty.is_integer tb ->
      mk ~loc (Tast.Tbinop (op, a, coerce env loc a.tty b)) Ty.Int
    | ta, Ty.Ptr _ when Ty.is_integer ta ->
      mk ~loc (Tast.Tbinop (op, coerce env loc b.tty a, b)) Ty.Int
    | _ -> err loc "invalid comparison operands")
  | Ast.Land | Ast.Lor ->
    if not (Ty.is_scalar ra && Ty.is_scalar rb) then err loc "invalid logical operands";
    mk ~loc (Tast.Tbinop (op, a, b)) Ty.Int

(* -- Initializers ------------------------------------------------------- *)

(** Desugar a brace/scalar initializer for a local of type [ty] rooted at
    lvalue [lv] into assignment statements. *)
let rec lower_local_init fs scope loc (lv : Tast.texpr) ty (init : Ast.init) acc =
  let env = fs.env in
  match (init, Ty.resolve env ty) with
  | Ast.Iexpr e, _ ->
    let rhs = coerce env loc ty (decay (check_expr fs scope e)) in
    { Tast.tsdesc = Tast.TSexpr (mk ~loc (Tast.Tassign (lv, rhs)) ty); tsloc = loc } :: acc
  | Ast.Ilist items, Ty.Array (elt, n) ->
    if List.length items > n then err loc "too many initializers";
    List.fold_left
      (fun (acc, i) item ->
        let idx = mk ~loc (Tast.Tint (Int64.of_int i)) Ty.Int in
        let cell = mk ~loc (Tast.Tindex (lv, idx)) (deep_resolve env loc elt) in
        (lower_local_init fs scope loc cell elt item acc, i + 1))
      (acc, 0) items
    |> fst
  | Ast.Ilist items, Ty.Struct sname ->
    let fields = try Hashtbl.find env.Ty.structs sname with Not_found -> [] in
    if List.length items > List.length fields then err loc "too many initializers";
    List.fold_left2
      (fun acc item (f : Ty.field) ->
        let cell = mk ~loc (Tast.Tfield (lv, f.fname)) (deep_resolve env loc f.fty) in
        lower_local_init fs scope loc cell f.fty item acc)
      acc
      items
      (List.filteri (fun i _ -> i < List.length items) fields)
  | Ast.Ilist _, t -> err loc "brace initializer for non-aggregate %a" Ty.pp t

(** Flatten a global initializer into (offset, constant expression) pairs. *)
let rec flatten_global_init fs loc ty off (init : Ast.init) acc =
  let env = fs.env in
  match (init, Ty.resolve env ty) with
  | Ast.Iexpr e, _ ->
    let scope = { parent = None; vars = Hashtbl.create 1 } in
    let v = coerce env loc ty (decay (check_expr fs scope e)) in
    { Tast.gi_offset = off; gi_value = v } :: acc
  | Ast.Ilist items, Ty.Array (elt, n) ->
    if List.length items > n then err loc "too many initializers";
    let esz = Ty.sizeof env elt in
    List.fold_left
      (fun (acc, i) item ->
        (flatten_global_init fs loc elt (off + (i * esz)) item acc, i + 1))
      (acc, 0) items
    |> fst
  | Ast.Ilist items, Ty.Struct sname ->
    let fields = try Hashtbl.find env.Ty.structs sname with Not_found -> [] in
    List.fold_left2
      (fun acc item (f : Ty.field) ->
        let foff =
          match Ty.field_offset env sname f.fname with Some o -> o | None -> 0
        in
        flatten_global_init fs loc f.fty (off + foff) item acc)
      acc items
      (List.filteri (fun i _ -> i < List.length items) fields)
  | Ast.Ilist _, t -> err loc "brace initializer for non-aggregate %a" Ty.pp t

(* -- Statements ---------------------------------------------------------- *)

let rec check_stmts fs scope stmts = List.concat_map (check_stmt fs scope) stmts

and check_block fs scope stmts =
  let inner = { parent = Some scope; vars = Hashtbl.create 8 } in
  check_stmts fs inner stmts

and check_stmt fs scope (s : Ast.stmt) : Tast.tstmt list =
  let loc = s.sloc in
  let env = fs.env in
  let one tsdesc = [ { Tast.tsdesc; tsloc = loc } ] in
  match s.sdesc with
  | Ast.Sexpr e -> one (Tast.TSexpr (check_expr fs scope e))
  | Ast.Sdecl (ty, name, init) ->
    let ty = deep_resolve env loc ty in
    (match ty with Ty.Void -> err loc "void variable %s" name | _ -> ());
    let uname = fresh_name fs name in
    Hashtbl.replace scope.vars name (uname, ty);
    fs.locals <- (uname, ty) :: fs.locals;
    let decl = { Tast.tsdesc = Tast.TSdecl (uname, ty, None); tsloc = loc } in
    (match init with
    | None -> [ decl ]
    | Some (Ast.Iexpr e) ->
      let rhs = coerce env loc ty (decay (check_expr fs scope e)) in
      [ { Tast.tsdesc = Tast.TSdecl (uname, ty, Some rhs); tsloc = loc } ]
    | Some (Ast.Ilist _ as init) ->
      let lv = mk ~loc (Tast.Tlocal uname) ty in
      decl :: List.rev (lower_local_init fs scope loc lv ty init []))
  | Ast.Sif (c, t, e) ->
    let c = decay (check_expr fs scope c) in
    if not (Ty.is_scalar (Ty.resolve env c.tty)) then err loc "non-scalar if condition";
    one (Tast.TSif (c, check_block fs scope t, check_block fs scope e))
  | Ast.Swhile (c, body) ->
    let c = decay (check_expr fs scope c) in
    one (Tast.TSwhile (c, check_block fs scope body))
  | Ast.Sdo (body, c) ->
    let body = check_block fs scope body in
    let c = decay (check_expr fs scope c) in
    one (Tast.TSdo (body, c))
  | Ast.Sfor (init, cond, step, body) ->
    let inner = { parent = Some scope; vars = Hashtbl.create 4 } in
    let init =
      match init with
      | None -> None
      | Some s -> (
        match check_stmt fs inner s with
        | [ single ] -> Some single
        | many -> Some { Tast.tsdesc = Tast.TSblock many; tsloc = loc })
    in
    let cond = Option.map (fun c -> decay (check_expr fs inner c)) cond in
    let step =
      Option.map
        (fun s ->
          match check_stmt fs inner s with
          | [ single ] -> single
          | many -> { Tast.tsdesc = Tast.TSblock many; tsloc = loc })
        step
    in
    one (Tast.TSfor (init, cond, step, check_block fs inner body))
  | Ast.Sswitch (e, cases) ->
    let e = decay (check_expr fs scope e) in
    if not (Ty.is_integer (Ty.resolve env e.tty)) then err loc "non-integer switch";
    let cases =
      List.map
        (fun (c : Ast.case) ->
          { Tast.tcval = c.cval; tcbody = check_block fs scope c.cbody; tcloc = c.cloc })
        cases
    in
    one (Tast.TSswitch (e, cases))
  | Ast.Sreturn None ->
    if not (Ty.equal fs.ret Ty.Void) then err loc "return without value";
    one (Tast.TSreturn None)
  | Ast.Sreturn (Some e) ->
    if Ty.equal fs.ret Ty.Void then err loc "return with value in void function";
    let e = coerce env loc fs.ret (decay (check_expr fs scope e)) in
    one (Tast.TSreturn (Some e))
  | Ast.Sbreak -> one Tast.TSbreak
  | Ast.Scontinue -> one Tast.TScontinue
  | Ast.Sblock body -> one (Tast.TSblock (check_block fs scope body))
  | Ast.Sannot a -> one (Tast.TSannot a)

(* -- Programs ------------------------------------------------------------ *)

let builtin_externs : (string * Ty.t * Ty.t list) list =
  (* shared-memory and OS interface the paper's systems rely on; sizes use
     the LP64 model (int shmget(long,long,int), void* shmat(int,void*,int)) *)
  [ ("shmget", Ty.Int, [ Ty.Long; Ty.Long; Ty.Int ]);
    ("shmat", Ty.Ptr Ty.Void, [ Ty.Int; Ty.Ptr Ty.Void; Ty.Int ]);
    ("shmdt", Ty.Int, [ Ty.Ptr Ty.Void ]);
    ("shmctl", Ty.Int, [ Ty.Int; Ty.Int; Ty.Ptr Ty.Void ]);
    ("kill", Ty.Int, [ Ty.Int; Ty.Int ]);
    ("getpid", Ty.Int, []);
    ("InitCheck", Ty.Void, [ Ty.Ptr Ty.Void; Ty.Long ]);
  ]

let check_program (prog : Ast.program) : Tast.program =
  let env = Ty.empty_env () in
  let globals = Hashtbl.create 32 in
  let funcs = Hashtbl.create 32 in
  List.iter (fun (n, r, ps) -> Hashtbl.replace funcs n (r, ps)) builtin_externs;
  (* pass 1: collect type definitions and signatures; a function may be
     declared any number of times but defined once *)
  let bodies = Hashtbl.create 32 in
  List.iter
    (fun d ->
      match d with
      | Ast.Dfunc f when Hashtbl.mem bodies f.fname ->
        err f.floc "redefinition of function %s" f.fname
      | Ast.Dstruct (name, fields, _) -> Hashtbl.replace env.Ty.structs name fields
      | Ast.Dtypedef (name, ty, _) -> Hashtbl.replace env.Ty.typedefs name ty
      | Ast.Dextern (name, ret, params, _) -> Hashtbl.replace funcs name (ret, params)
      | Ast.Dglobal g -> Hashtbl.replace globals g.gname g.gty
      | Ast.Dfunc f ->
        Hashtbl.replace bodies f.fname ();
        Hashtbl.replace funcs f.fname (f.fret, List.map (fun p -> p.Ast.pty) f.fparams))
    prog;
  (* resolve struct field types and global/function types *)
  let fix_ty loc ty =
    let fs_dummy =
      { env; globals; funcs; locals = []; counters = Hashtbl.create 1; ret = Ty.Void }
    in
    ignore fs_dummy;
    deep_resolve env loc ty
  in
  Hashtbl.iter
    (fun name fields ->
      let fields =
        List.map (fun (f : Ty.field) -> { f with fty = fix_ty Loc.dummy f.fty }) fields
      in
      Hashtbl.replace env.Ty.structs name fields)
    (Hashtbl.copy env.Ty.structs);
  (* a struct that contains itself by value — directly, through an array
     or through another struct — has no finite layout: reject it before
     anything sizes it *)
  let state = Hashtbl.create 16 in
  let rec visit name loc =
    match Hashtbl.find_opt state name with
    | Some `Done -> ()
    | Some `Active -> Loc.error loc "struct %s contains itself" name
    | None ->
      Hashtbl.replace state name `Active;
      List.iter
        (fun (f : Ty.field) -> contained f.fty loc)
        (Option.value ~default:[] (Hashtbl.find_opt env.Ty.structs name));
      Hashtbl.replace state name `Done
  and contained ty loc =
    match ty with
    | Ty.Struct s -> visit s loc
    | Ty.Array (t, _) -> contained t loc
    | _ -> ()
  in
  List.iter (function Ast.Dstruct (name, _, loc) -> visit name loc | _ -> ()) prog;
  Hashtbl.iter
    (fun name ty -> Hashtbl.replace globals name (fix_ty Loc.dummy ty))
    (Hashtbl.copy globals);
  Hashtbl.iter
    (fun name (r, ps) ->
      Hashtbl.replace funcs name (fix_ty Loc.dummy r, List.map (fix_ty Loc.dummy) ps))
    (Hashtbl.copy funcs);
  (* pass 2: check bodies *)
  let tglobals = ref [] in
  let tfuncs = ref [] in
  let texterns = ref [] in
  List.iter
    (fun d ->
      match d with
      | Ast.Dstruct _ | Ast.Dtypedef _ -> ()
      | Ast.Dextern (name, ret, params, loc) ->
        texterns :=
          (name, fix_ty loc ret, List.map (fix_ty loc) params) :: !texterns
      | Ast.Dglobal g ->
        let ty = fix_ty g.gloc g.gty in
        let fs =
          { env; globals; funcs; locals = []; counters = Hashtbl.create 4; ret = Ty.Void }
        in
        let init =
          match g.ginit with
          | None -> []
          | Some i -> List.rev (flatten_global_init fs g.gloc ty 0 i [])
        in
        tglobals :=
          { Tast.tg_name = g.gname; tg_ty = ty; tg_init = init; tg_loc = g.gloc }
          :: !tglobals
      | Ast.Dfunc f ->
        let ret = fix_ty f.floc f.fret in
        let fs =
          { env; globals; funcs; locals = []; counters = Hashtbl.create 16; ret }
        in
        let scope = { parent = None; vars = Hashtbl.create 8 } in
        let params =
          List.map
            (fun (p : Ast.param) ->
              let ty = fix_ty f.floc p.pty in
              let uname = fresh_name fs p.pname in
              Hashtbl.replace scope.vars p.pname (uname, ty);
              (uname, ty))
            f.fparams
        in
        let body = check_stmts fs scope f.fbody in
        tfuncs :=
          { Tast.tf_name = f.fname; tf_ret = ret; tf_params = params;
            tf_locals = List.rev fs.locals; tf_body = body; tf_annot = f.fannot;
            tf_loc = f.floc }
          :: !tfuncs)
    prog;
  (* add built-ins that were not explicitly declared *)
  let declared = List.map (fun (n, _, _) -> n) !texterns in
  let defined = List.map (fun f -> f.Tast.tf_name) !tfuncs in
  List.iter
    (fun (n, r, ps) ->
      if not (List.mem n declared || List.mem n defined) then
        texterns := (n, r, ps) :: !texterns)
    builtin_externs;
  { Tast.p_env = env; p_globals = List.rev !tglobals; p_externs = List.rev !texterns;
    p_funcs = List.rev !tfuncs }
