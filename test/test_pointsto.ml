(* Tests for the points-to analysis: targets of allocas, globals, geps,
   loads/stores through the heap, call/return propagation, reachability
   and may-alias queries. *)

open Minic

let compile src =
  let ir = Ssair.Build.lower (Typecheck.check_program (Parser.parse_string src)) in
  (ir, Pointsto.analyze ir)

let func ir name = Option.get (Ssair.Ir.func_index ir name)

(* the points-to set of the value returned by [fname] *)
let ret_pts pts fname = Pointsto.pts_get pts (Pointsto.Kret fname)

let nodes_of set =
  Pointsto.Tset.elements set |> List.map (fun t -> t.Pointsto.Target.node)

let test_global_address () =
  let ir, pts = compile "int g; int *addr_of_g() { return &g; }" in
  ignore ir;
  match nodes_of (ret_pts pts "addr_of_g") with
  | [ Pointsto.Node.Nglobal "g" ] -> ()
  | other ->
    Alcotest.failf "unexpected targets: %a" Fmt.(Dump.list Pointsto.Node.pp) other

let test_alloca_address_taken () =
  let ir, pts = compile "int f() { int x = 1; int *p = &x; return *p; }" in
  let f = func ir "f" in
  (* some load in f goes through a stack node *)
  let through_stack = ref false in
  List.iter
    (fun i ->
      match i.Ssair.Ir.idesc with
      | Ssair.Ir.Load { ptr; _ } ->
        Pointsto.Tset.iter
          (fun t ->
            match t.Pointsto.Target.node with
            | Pointsto.Node.Nalloca ("f", _) -> through_stack := true
            | _ -> ())
          (Pointsto.points_to pts f ptr)
      | _ -> ())
    (Ssair.Ir.all_instrs f);
  Alcotest.(check bool) "load resolved to the stack slot" true !through_stack

let test_field_offsets_tracked () =
  let ir, pts =
    compile
      "struct S { double a; double b; }; struct S gs; \
       double *addr_b() { return &gs.b; }"
  in
  ignore ir;
  match Pointsto.Tset.elements (ret_pts pts "addr_b") with
  | [ { Pointsto.Target.node = Pointsto.Node.Nglobal "gs"; off = Pointsto.Offset.Byte 8 } ]
    -> ()
  | other ->
    Alcotest.failf "unexpected: %a" Fmt.(Dump.list Pointsto.Target.pp) other

let test_variable_index_top () =
  let ir, pts = compile "double ga[8]; double *cell(int i) { return &ga[i]; }" in
  ignore ir;
  match Pointsto.Tset.elements (ret_pts pts "cell") with
  | [ { Pointsto.Target.node = Pointsto.Node.Nglobal "ga"; off = Pointsto.Offset.Top } ] -> ()
  | other -> Alcotest.failf "unexpected: %a" Fmt.(Dump.list Pointsto.Target.pp) other

let test_heap_store_load () =
  let ir, pts =
    compile
      "int g1; int *slot; \
       void put() { slot = &g1; } \
       int *get() { return slot; } \
       int main() { put(); return *get(); }"
  in
  ignore ir;
  (* get() returns whatever was stored into the global slot *)
  let nodes = nodes_of (ret_pts pts "get") in
  Alcotest.(check bool) "g1 flows through the heap" true
    (List.mem (Pointsto.Node.Nglobal "g1") nodes)

let test_call_argument_binding () =
  let ir, pts =
    compile
      "int g2; int deref(int *p) { return *p; } int main() { return deref(&g2); }"
  in
  ignore ir;
  let param = Pointsto.pts_get pts (Pointsto.Kparam ("deref", "p")) in
  Alcotest.(check bool) "param bound to argument" true
    (List.mem (Pointsto.Node.Nglobal "g2") (nodes_of param))

let test_extern_opaque () =
  let ir, pts =
    compile "extern int *mystery(void); int use() { return *mystery(); }" in
  let f = func ir "use" in
  let has_extern = ref false in
  List.iter
    (fun i ->
      match i.Ssair.Ir.idesc with
      | Ssair.Ir.Load { ptr; _ } ->
        Pointsto.Tset.iter
          (fun t ->
            match t.Pointsto.Target.node with
            | Pointsto.Node.Nextern "mystery" -> has_extern := true
            | _ -> ())
          (Pointsto.points_to pts f ptr)
      | _ -> ())
    (Ssair.Ir.all_instrs f);
  Alcotest.(check bool) "extern result is opaque region" true !has_extern

let test_reachability () =
  let ir, pts =
    compile
      "int g3; int *inner; int **outer; \
       void build() { inner = &g3; outer = &inner; } \
       int main() { build(); return 0; }"
  in
  ignore ir;
  let roots =
    Pointsto.Tset.singleton
      { Pointsto.Target.node = Pointsto.Node.Nglobal "outer"; off = Pointsto.Offset.Byte 0 }
  in
  let reach = Pointsto.reachable pts roots in
  let nodes = nodes_of reach in
  Alcotest.(check bool) "inner reachable" true
    (List.mem (Pointsto.Node.Nglobal "inner") nodes);
  Alcotest.(check bool) "g3 transitively reachable" true
    (List.mem (Pointsto.Node.Nglobal "g3") nodes)

let test_may_alias () =
  let ir, pts =
    compile
      "int a; int b; \
       int *pick(int c) { if (c) { return &a; } return &b; } \
       int *left() { return &a; } \
       int *right() { return &b; }"
  in
  let fpick = func ir "pick" in
  ignore fpick;
  let pa = ret_pts pts "left" and pb = ret_pts pts "right" and pp = ret_pts pts "pick" in
  let inter x y =
    not
      (Pointsto.Tset.is_empty
         (Pointsto.Tset.inter
            (Pointsto.Tset.map (fun t -> { t with Pointsto.Target.off = Pointsto.Offset.Top }) x)
            (Pointsto.Tset.map (fun t -> { t with Pointsto.Target.off = Pointsto.Offset.Top }) y)))
  in
  Alcotest.(check bool) "left vs right disjoint" false (inter pa pb);
  Alcotest.(check bool) "pick may alias left" true (inter pp pa);
  Alcotest.(check bool) "pick may alias right" true (inter pp pb)

let () =
  Alcotest.run "pointsto"
    [ ( "targets",
        [ Alcotest.test_case "global address" `Quick test_global_address;
          Alcotest.test_case "alloca address" `Quick test_alloca_address_taken;
          Alcotest.test_case "field offsets" `Quick test_field_offsets_tracked;
          Alcotest.test_case "variable index top" `Quick test_variable_index_top ] );
      ( "flow",
        [ Alcotest.test_case "heap store/load" `Quick test_heap_store_load;
          Alcotest.test_case "call binding" `Quick test_call_argument_binding;
          Alcotest.test_case "extern opaque" `Quick test_extern_opaque ] );
      ( "queries",
        [ Alcotest.test_case "reachability" `Quick test_reachability;
          Alcotest.test_case "may alias" `Quick test_may_alias ] ) ]
