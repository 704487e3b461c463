(** The program index every stage after the frontend reads: functions
    by dense index in program order, the name table (first definition
    wins), each function's value-id bound and each call site's callee.
    Built once per program; the stages share it instead of each building
    a name table of its own. *)

type t = {
  prog : Ir.program;
  funcs : Ir.func array;
  by_name : (string, int) Hashtbl.t;
  bounds : int array;
  call_iids : int array array;
  call_callees : int array array;
}

let find t name = match Hashtbl.find_opt t.by_name name with Some fx -> fx | None -> -1

(* The scan of one function: its value-id bound and its calls so far,
   (id, callee index) ascending by id in [ids]/[cs] (grown as needed).
   The walk is top-level recursion over this state, so scanning
   allocates nothing but the call arrays a function with calls keeps. *)
type scan = {
  find : string -> int;
  mutable bound : int;
  mutable ncalls : int;
  mutable ids : int array;
  mutable cs : int array;
}

let add_call sc iid callee =
  let k = sc.ncalls in
  if k = Array.length sc.ids then begin
    sc.ids <- Array.append sc.ids sc.ids;
    sc.cs <- Array.append sc.cs sc.cs
  end;
  (* insertion by id: ids mostly arrive ascending *)
  let j = ref k in
  while !j > 0 && sc.ids.(!j - 1) > iid do
    sc.ids.(!j) <- sc.ids.(!j - 1);
    sc.cs.(!j) <- sc.cs.(!j - 1);
    decr j
  done;
  sc.ids.(!j) <- iid;
  sc.cs.(!j) <- sc.find callee;
  sc.ncalls <- k + 1

let rec scan_phis sc = function
  | [] -> ()
  | (p : Ir.phi) :: rest ->
    if p.Ir.pid >= sc.bound then sc.bound <- p.Ir.pid + 1;
    scan_phis sc rest

let rec scan_instrs sc = function
  | [] -> ()
  | (i : Ir.instr) :: rest ->
    if i.Ir.iid >= sc.bound then sc.bound <- i.Ir.iid + 1;
    (match i.Ir.idesc with Ir.Call { callee; _ } -> add_call sc i.Ir.iid callee | _ -> ());
    scan_instrs sc rest

let rec scan_blocks sc = function
  | [] -> ()
  | (b : Ir.block) :: rest ->
    scan_phis sc b.Ir.phis;
    scan_instrs sc b.Ir.instrs;
    scan_blocks sc rest

let of_program (prog : Ir.program) : t =
  let funcs = Array.of_list prog.Ir.funcs in
  let n = Array.length funcs in
  let by_name = Hashtbl.create n in
  (* added last to first, so the first definition of a name wins *)
  for fx = n - 1 downto 0 do
    Hashtbl.replace by_name funcs.(fx).Ir.fname fx
  done;
  let t =
    { prog; funcs; by_name; bounds = Array.make n 0; call_iids = Array.make n [||];
      call_callees = Array.make n [||] }
  in
  let sc = { find = find t; bound = 0; ncalls = 0; ids = Array.make 8 0; cs = Array.make 8 0 } in
  for fx = 0 to n - 1 do
    sc.bound <- 0;
    sc.ncalls <- 0;
    scan_blocks sc funcs.(fx).Ir.blocks;
    t.bounds.(fx) <- sc.bound;
    if sc.ncalls > 0 then begin
      t.call_iids.(fx) <- Array.sub sc.ids 0 sc.ncalls;
      t.call_callees.(fx) <- Array.sub sc.cs 0 sc.ncalls
    end
  done;
  t

let length t = Array.length t.funcs

let func t fx = t.funcs.(fx)

let func_opt t name =
  let fx = find t name in
  if fx < 0 then None else Some t.funcs.(fx)

let bound t fx = t.bounds.(fx)

let param_pos (f : Ir.func) p =
  let rec go k = function
    | [] -> -1
    | (q, _) :: rest -> if String.equal q p then k else go (k + 1) rest
  in
  go 0 f.Ir.fparams

let callee t fx iid =
  let ids = t.call_iids.(fx) in
  let rec go lo hi =
    if lo >= hi then -1
    else
      let mid = (lo + hi) lsr 1 in
      let m = Array.unsafe_get ids mid in
      if m = iid then t.call_callees.(fx).(mid) else if m < iid then go (mid + 1) hi else go lo mid
  in
  go 0 (Array.length ids)
