(** Value-flow-graph export.

    The paper requires the reported errors to be "verified using the value
    flow graphs manually" (§1, §4).  This module renders the taint state
    of a {!Phase3.result} as a DOT graph: nodes are data-tainted entities
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

(** DOT rendering of the data-flow taint graph of a phase-3 result. *)
let to_dot (r : Phase3.result) : string =
  let fl = r.Phase3.flat in
  let t = fl.Phase3.data in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "digraph value_flow {\n  rankdir=LR;\n  node [shape=box];\n";
  let n = fl.Phase3.entities in
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
             (escape (Phase3.why_text fl t.Phase3.why.(id))))
      else Buffer.add_string buf (Fmt.str "  n%d [color=red];\n" dst)
    end
  done;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let write_dot path (r : Phase3.result) =
  let oc = open_out path in
  output_string oc (to_dot r);
  close_out oc
