(* Phase 1's sparse worklist against the dense fixpoint it replaced
   (test/phase1_oracle.ml): the same facts, parameter facts, return facts
   and exempt set on the paper's systems, their originals, Synth
   programs, random programs and token mutants; and a visit count that
   follows the facts, not the program size. *)

open Safeflow
module Ir = Ssair.Ir
module Rset = Phase1.Rset

let find_file rel =
  let candidates = [ "../../../" ^ rel; "../../" ^ rel; rel ] in
  match List.find_opt Sys.file_exists candidates with
  | Some p -> p
  | None -> Alcotest.fail ("cannot locate " ^ rel)

let systems = [ "figure2.c"; "ip_controller.c"; "double_ip.c"; "car_follow.c"; "generic_simplex.c" ]

let originals = [ "double_ip_orig.c"; "ip_controller_orig.c" ]

let pp_rset ppf s = Fmt.(list ~sep:comma Phase1.Rtgt.pp) ppf (Rset.elements s)

let configs =
  [ ("field-sensitive", Config.default);
    ("field-insensitive", { Config.default with Config.field_sensitive = false }) ]

(* The first disagreement between the library and the oracle on [p]
   under [config], if any. *)
let diff_config config (p : Driver.prepared) : string option =
  let shm = Driver.stage_shm p in
  let lib = Phase1.run ~config p.Driver.index shm and ora = Phase1_oracle.run ~config p.Driver.ir shm in
  let exception Diff of string in
  let differ fmt = Fmt.kstr (fun m -> raise (Diff m)) fmt in
  let same what l o = if not (Rset.equal l o) then differ "%s: {%a} against {%a}" what pp_rset l pp_rset o in
  try
    if Phase1.exempt_functions lib <> Phase1_oracle.exempt_functions ora then
      differ "exempt [%a] against [%a]"
        Fmt.(list ~sep:comma string) (Phase1.exempt_functions lib)
        Fmt.(list ~sep:comma string) (Phase1_oracle.exempt_functions ora);
    Array.iteri
      (fun fx (f : Ir.func) ->
        let fname = f.Ir.fname in
        if Phase1.is_exempt lib fname <> Phase1_oracle.is_exempt ora fname then differ "%s: exempt" fname;
        for vid = 0 to Ssair.Index.bound p.Driver.index fx - 1 do
          same (Fmt.str "%s %%%d" fname vid)
            (Phase1.shm_targets lib f (Ir.Vreg vid))
            (Phase1_oracle.fact_get ora (fname, vid))
        done;
        List.iter
          (fun (pname, _) ->
            same (Fmt.str "%s param %s" fname pname)
              (Phase1.param_targets lib fx pname)
              (Phase1_oracle.param_get ora (fname, pname)))
          f.Ir.fparams;
        same (Fmt.str "%s return" fname) (Phase1.ret_targets lib fx) (Phase1_oracle.ret_get ora fname))
      p.Driver.index.Ssair.Index.funcs;
    (* nothing the oracle derived lies outside what was compared *)
    Hashtbl.iter
      (fun (fname, vid) s ->
        match Ssair.Index.func_opt p.Driver.index fname with
        | Some f -> same (Fmt.str "%s %%%d" fname vid) (Phase1.shm_targets lib f (Ir.Vreg vid)) s
        | None -> differ "oracle fact in unknown function %s" fname)
      ora.Phase1_oracle.facts;
    None
  with Diff m -> Some m

let diff (p : Driver.prepared) =
  List.find_map
    (fun (name, config) -> Option.map (fun d -> name ^ ": " ^ d) (diff_config config p))
    configs

let check name p = match diff p with None -> () | Some d -> Alcotest.failf "%s: %s" name d

let test_systems () =
  List.iter (fun name -> check name (Driver.prepare_file (find_file ("systems/" ^ name)))) systems

let test_originals () =
  List.iter
    (fun name -> check name (Driver.prepare_file (find_file ("systems/originals/" ^ name))))
    originals

let test_synth () =
  List.iter
    (fun (seed, size) ->
      check (Fmt.str "synth seed %d size %d" seed size)
        (Driver.prepare_source ~file:"synth.c" (Synth.of_size ~seed size)))
    [ (1, 8); (2, 24); (3, 64); (1, 384) ]

(* A random body inside a program whose shared-memory pointers flow
   through parameters, phis, casts, geps and returns. *)
let wrap_sprog (p : Sprog.t) =
  Fmt.str
    "struct R { int a; int b[4]; };\n\
     typedef struct R R;\n\
     R *reg;\n\
     R *other;\n\
     void initShm()\n\
     /*** SafeFlow Annotation shminit ***/\n\
     {\n\
    \  int shmid;\n\
    \  void *shmStart;\n\
    \  shmid = shmget(9000, 2 * sizeof(R), 438);\n\
    \  shmStart = shmat(shmid, (void *) 0, 0);\n\
    \  reg = (R *) shmStart;\n\
    \  other = reg + 1;\n\
    \  InitCheck(shmStart, 2 * sizeof(R));\n\
    \  /*** SafeFlow Annotation\n\
    \       assume(shmvar(reg, sizeof(R)))\n\
    \       assume(shmvar(other, sizeof(R)))\n\
    \       assume(noncore(other)) ***/\n\
     }\n\
     R *pick(R *p, R *q, int c) { if (c > 0) return p; return q; }\n\
     int step(R *p, int x, int y) { %s R *q = pick(p, other, x); int *e = &q->b[x & 3]; return *e + q->a + x * 31 + y; }\n\
     int main() { int x = 3; int y = 17; R *p = reg; initShm(); %s if (x > y) p = other; return step(p, x, y) + step(reg, y, 4); }\n"
    p.Sprog.body p.Sprog.body

let test_wrapper_has_facts () =
  let src = wrap_sprog { Sprog.body = "x = x + 1;" } in
  let p = Driver.prepare_source ~file:"wrap.c" src in
  let lib = Phase1.run p.Driver.index (Driver.stage_shm p) in
  let step = Ssair.Index.find p.Driver.index "step" in
  Alcotest.(check bool) "a parameter fact" false
    (Rset.is_empty (Phase1.param_targets lib step "p"));
  check "wrapper" p

let prop_sprog =
  QCheck.Test.make ~name:"sparse = dense on random programs" ~count:100 Sprog.arbitrary (fun sp ->
      match Driver.prepare_source ~file:"random.c" (wrap_sprog sp) with
      | exception Minic.Loc.Error _ -> QCheck.assume_fail ()
      | p -> (
        match diff p with
        | None -> true
        | Some d -> QCheck.Test.fail_reportf "differs from the oracle: %s" d))

(* each system's source and the start offset of every token *)
let system_tokens =
  lazy
    (List.map
       (fun name ->
         let src = Minic.Loc.read_source (find_file ("systems/" ^ name)) in
         let line_start = Array.make (String.length src + 2) 0 in
         let nl = ref 1 in
         String.iteri
           (fun i c ->
             if c = '\n' then begin
               incr nl;
               line_start.(!nl) <- i + 1
             end)
           src;
         let starts =
           Minic.Lexer.tokenize ~file:name src
           |> List.map (fun (l : Minic.Lexer.lexed) ->
                  line_start.(l.loc.Minic.Loc.line) + l.loc.Minic.Loc.col - 1)
           |> Array.of_list
         in
         (name, src, starts))
       systems)

(* one token (its text up to the next token) deleted, doubled, or
   swapped with the next one *)
let gen_mutant =
  let open QCheck.Gen in
  let* k = int_bound (List.length systems - 1) in
  let name, src, starts = List.nth (Lazy.force system_tokens) k in
  let n = Array.length starts - 1 in
  let* i = int_bound (n - 2) and* op = int_bound 2 in
  let piece j = String.sub src starts.(j) (starts.(j + 1) - starts.(j)) in
  let before = String.sub src 0 starts.(i) in
  let after j = String.sub src starts.(j) (String.length src - starts.(j)) in
  return
    ( name,
      match op with
      | 0 -> before ^ after (i + 1)
      | 1 -> before ^ piece i ^ after i
      | _ -> before ^ piece (i + 1) ^ piece i ^ after (i + 2) )

let prop_mutants =
  QCheck.Test.make ~name:"sparse = dense on token mutants that pass the frontend" ~count:150
    (QCheck.make ~print:(fun (name, src) -> name ^ ":\n" ^ src) gen_mutant)
    (fun (file, src) ->
      match Driver.prepare_source ~file src with
      | exception Minic.Loc.Error _ -> QCheck.assume_fail ()
      | p -> (
        match diff p with
        | None -> true
        | Some d -> QCheck.Test.fail_reportf "differs from the oracle: %s" d))

(* The worklist revisits a value only when a fact it reads grows: on
   synth-384 its visits stay under a tenth of the instruction count,
   where the dense engine evaluates every instruction once per round. *)
let test_visits_bound () =
  let p = Driver.prepare_source ~file:"synth384.c" (Synth.of_size ~seed:1 384) in
  let shm = Driver.stage_shm p in
  let lib = Phase1.run p.Driver.index shm and ora = Phase1_oracle.run p.Driver.ir shm in
  let instrs =
    Array.fold_left (fun n f -> n + List.length (Ir.all_instrs f)) 0 p.Driver.index.Ssair.Index.funcs
  in
  if lib.Phase1.visits * 10 > instrs then
    Alcotest.failf "%d visits for %d instructions (dense: %d)" lib.Phase1.visits instrs
      ora.Phase1_oracle.visits;
  Alcotest.(check bool) "fewer visits than the dense engine" true
    (lib.Phase1.visits < ora.Phase1_oracle.visits)

let () =
  Alcotest.run "phase1"
    [ ( "oracle",
        [ Alcotest.test_case "five systems" `Quick test_systems;
          Alcotest.test_case "originals" `Quick test_originals;
          Alcotest.test_case "synth" `Quick test_synth;
          Alcotest.test_case "shm wrapper derives facts" `Quick test_wrapper_has_facts;
          QCheck_alcotest.to_alcotest prop_sprog;
          QCheck_alcotest.to_alcotest prop_mutants ] );
      ("cost", [ Alcotest.test_case "visits bounded on synth-384" `Quick test_visits_bound ]) ]
