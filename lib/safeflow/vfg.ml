(** Value-flow-graph export.

    The paper requires the reported errors to be "verified using the value
    flow graphs manually" (§1, §4).  This module renders the taint state
    of a {!Phase3.result} as a DOT graph: nodes are tainted entities
    (values, parameters, returns, memory objects, non-core regions),
    edges follow the recorded propagation origins.  Nodes and edges are
    emitted in entity-id order and numbered per graph, so the bytes
    depend only on the result — a cached result renders identically. *)

let escape s =
  String.concat ""
    (List.map
       (fun c ->
         match c with '"' -> "\\\"" | '\\' -> "\\\\" | '\n' -> " " | c -> String.make 1 c)
       (List.init (String.length s) (String.get s)))

(** Render one taint table (data or control) as DOT. *)
let table_to_dot ~name (fl : Phase3.flat) (t : Phase3.table) : string =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Fmt.str "digraph %s {\n  rankdir=LR;\n  node [shape=box];\n" name);
  let n = Array.length fl.Phase3.keys in
  (* DOT node number per entity id, 0 = not yet declared *)
  let ids = Array.make n 0 in
  let next = ref 0 in
  let node_id id =
    if ids.(id) = 0 then begin
      incr next;
      ids.(id) <- !next;
      let e = Phase3.entity fl id in
      let shape =
        match e with
        | Phase3.Eregion _ -> "ellipse, style=filled, fillcolor=\"#f4cccc\""
        | Phase3.Enode _ -> "box, style=filled, fillcolor=\"#fff2cc\""
        | _ -> "box"
      in
      Buffer.add_string buf
        (Fmt.str "  n%d [label=\"%s\", shape=%s];\n" !next
           (escape (Fmt.str "%a" Phase3.pp_entity e))
           shape)
    end;
    ids.(id)
  in
  for id = 0 to n - 1 do
    if Bitset.get t.Phase3.bits id then begin
      let dst = node_id id in
      let p = t.Phase3.parent.(id) in
      if p >= 0 then
        Buffer.add_string buf
          (Fmt.str "  n%d -> n%d [label=\"%s\"];\n" (node_id p) dst
             (escape fl.Phase3.whys.(t.Phase3.why.(id))))
      else Buffer.add_string buf (Fmt.str "  n%d [color=red];\n" dst)
    end
  done;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

(** DOT rendering of the full value-flow graph of a phase-3 result
    (data-flow edges; control taint in a second cluster). *)
let to_dot (r : Phase3.result) : string =
  table_to_dot ~name:"value_flow" r.Phase3.flat r.Phase3.flat.Phase3.data

let control_to_dot (r : Phase3.result) : string =
  table_to_dot ~name:"control_flow" r.Phase3.flat r.Phase3.flat.Phase3.ctrl

let write_dot path (r : Phase3.result) =
  let oc = open_out path in
  output_string oc (to_dot r);
  close_out oc
