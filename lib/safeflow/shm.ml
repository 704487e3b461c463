(** Shared-memory region model (paper §3.2.1).

    Regions are declared by the post-conditions of initializing functions
    (annotated [shminit]): [assume(shmvar(p, size))] binds the global
    pointer [p] to a fresh region of [size] bytes, and [assume(noncore(p))]
    marks that region writable by non-core components.

    The run-time [InitCheck] the paper inserts — verifying that the
    declared regions do not overlap — is implemented here by executing the
    initializing function in the IR interpreter with a simulated [shmat]
    and checking the resulting pointer layout. *)

open Minic

type region = {
  r_name : string;  (** the shm pointer global naming the region *)
  r_size : int;     (** bytes *)
  r_noncore : bool;
  r_elem : Ty.t;    (** pointee type of the region pointer *)
  r_loc : Loc.t;
}

type t = {
  regions : region list;
  init_funcs : string list;  (** functions annotated shminit *)
  by_name : (string, region) Hashtbl.t;
}

let region t name = Hashtbl.find_opt t.by_name name

let is_init_func t f = List.mem f t.init_funcs

(** Discover regions from the program's shminit functions. *)
let discover (prog : Ssair.Ir.program) : t =
  let env = prog.Ssair.Ir.env in
  let regions = ref [] in
  let init_funcs = ref [] in
  List.iter
    (fun (f : Ssair.Ir.func) ->
      (* function-level annotations plus statement-level post-conditions
         written at the end of the initializing function (Figure 3) *)
      let body_clauses =
        List.filter_map
          (fun (i : Ssair.Ir.instr) ->
            match i.Ssair.Ir.idesc with
            | Ssair.Ir.Annotation { clause; _ } -> Some clause
            | _ -> None)
          (Ssair.Ir.all_instrs f)
      in
      let clauses = f.fannot @ body_clauses in
      let is_init = List.exists (fun c -> c = Annot.Shminit) clauses in
      if is_init then begin
        init_funcs := f.fname :: !init_funcs;
        let noncore_names =
          List.filter_map (function Annot.Noncore p -> Some p | _ -> None) clauses
        in
        List.iter
          (function
            | Annot.Shmvar { ptr; size } ->
              let sz = Annot.eval_aexpr env size in
              let elem =
                match
                  List.find_opt (fun (g, _, _) -> String.equal g ptr) prog.Ssair.Ir.globals
                with
                | Some (_, Ty.Ptr t, _) -> Ty.resolve env t
                | _ -> Ty.Char
              in
              regions :=
                {
                  r_name = ptr;
                  r_size = sz;
                  r_noncore = List.mem ptr noncore_names;
                  r_elem = elem;
                  r_loc = f.floc;
                }
                :: !regions
            | _ -> ())
          clauses
      end)
    prog.Ssair.Ir.funcs;
  let by_name = Hashtbl.create 8 in
  List.iter (fun r -> Hashtbl.replace by_name r.r_name r) !regions;
  { regions = List.rev !regions; init_funcs = !init_funcs; by_name }

(* -- InitCheck -------------------------------------------------------------- *)

exception Init_check_failed of string

(** Execute the initializing function under the interpreter, providing
    [shmget]/[shmat] (one contiguous segment) and a tolerant stub for any
    other extern call, then verify that the regions bound to the shm
    globals are disjoint and within the attached segment.

    Returns the region layout [(name, start-offset, size)] on success.
    Raises [Init_check_failed], also when the initializing function
    traps or runs out of fuel — the paper terminates the core component
    before bootstrap in that case. *)
let run_init_check (prog : Ssair.Ir.program) (t : t) : (string * int * int) list =
  match t.init_funcs with
  | [] -> []
  | init :: _ ->
    let seg_size =
      List.fold_left (fun acc r -> acc + r.r_size) 0 t.regions + 4096
    in
    let seg = ref None in
    let handler st name args =
      match (name, args) with
      | "shmget", _ -> Ssair.Interp.VInt 42L
      | "shmat", _ ->
        let p = Ssair.Interp.alloc_block st "shm-segment" seg_size in
        seg := Some p;
        Ssair.Interp.VPtr p
      | _ ->
        (* other externs during init (locks, logging) are no-ops *)
        Ssair.Interp.VInt 0L
    in
    let st = Ssair.Interp.create ~extern_handler:handler prog in
    Ssair.Interp.init_globals st;
    (try ignore (Ssair.Interp.run_state st ~entry:init [])
     with Ssair.Interp.Trap m ->
       raise (Init_check_failed (Fmt.str "initializing function %s trapped: %s" init m)));
    let seg_block =
      match !seg with
      | Some p -> p.Ssair.Interp.pblk
      | None -> raise (Init_check_failed "initializing function never called shmat")
    in
    let layout =
      List.map
        (fun r ->
          let gp = Ssair.Interp.global_ptr st r.r_name in
          (* the global holds a pointer into the segment *)
          match
            Ssair.Interp.load_scalar st prog.Ssair.Ir.env
              (Ty.Ptr r.r_elem) gp
          with
          | Ssair.Interp.VPtr p when p.Ssair.Interp.pblk = seg_block ->
            if p.Ssair.Interp.poff + r.r_size > seg_size then
              raise
                (Init_check_failed
                   (Fmt.str "region %s exceeds the shared segment" r.r_name));
            (r.r_name, p.Ssair.Interp.poff, r.r_size)
          | Ssair.Interp.VPtr _ ->
            raise
              (Init_check_failed
                 (Fmt.str "region %s does not point into the shared segment" r.r_name))
          | _ ->
            raise
              (Init_check_failed (Fmt.str "region %s pointer left uninitialized" r.r_name)))
        t.regions
    in
    (* pairwise disjointness *)
    let rec pairs = function
      | [] -> ()
      | (n1, o1, s1) :: rest ->
        List.iter
          (fun (n2, o2, s2) ->
            let disjoint = o1 + s1 <= o2 || o2 + s2 <= o1 in
            if not disjoint then
              raise
                (Init_check_failed (Fmt.str "regions %s and %s overlap" n1 n2)))
          rest;
        pairs rest
    in
    pairs layout;
    layout
