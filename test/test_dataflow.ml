(* Tests for the dataflow toolkit: Tarjan SCC. *)

let adj edges n =
  ( List.init n (fun i -> i),
    fun v -> List.filter_map (fun (a, b) -> if a = v then Some b else None) edges )

(* -- SCC -------------------------------------------------------------------- *)

let test_scc_dag () =
  let nodes, succs = adj [ (0, 1); (1, 2); (0, 2) ] 3 in
  let scc = Dataflow.Scc.compute nodes succs in
  Alcotest.(check int) "three singleton components" 3 (Array.length scc.components);
  (* reverse topological: sinks first *)
  let order = Dataflow.Scc.reverse_topological scc in
  Alcotest.(check (list int)) "sink first" [ 2 ] (List.hd order)

let test_scc_cycle () =
  let nodes, succs = adj [ (0, 1); (1, 2); (2, 0); (2, 3) ] 4 in
  let scc = Dataflow.Scc.compute nodes succs in
  Alcotest.(check int) "two components" 2 (Array.length scc.components);
  Alcotest.(check bool) "0,1,2 in one component" true
    (scc.index_of 0 = scc.index_of 1 && scc.index_of 1 = scc.index_of 2);
  Alcotest.(check bool) "3 separate" true (scc.index_of 3 <> scc.index_of 0)

let test_scc_self_loop () =
  let nodes, succs = adj [ (0, 0); (0, 1) ] 2 in
  let scc = Dataflow.Scc.compute nodes succs in
  Alcotest.(check bool) "self loop is a cycle" true (Dataflow.Scc.in_cycle scc succs 0);
  Alcotest.(check bool) "plain node is not" false (Dataflow.Scc.in_cycle scc succs 1)

let test_scc_topological_respects_edges () =
  let edges = [ (0, 1); (1, 2); (2, 3); (3, 1); (0, 4); (4, 3) ] in
  let nodes, succs = adj edges 5 in
  let scc = Dataflow.Scc.compute nodes succs in
  let topo = Dataflow.Scc.topological scc in
  let pos v =
    let rec go i = function
      | [] -> -1
      | comp :: rest -> if List.mem v comp then i else go (i + 1) rest
    in
    go 0 topo
  in
  List.iter
    (fun (a, b) ->
      if scc.index_of a <> scc.index_of b then
        Alcotest.(check bool) (Fmt.str "edge %d->%d ordered" a b) true (pos a < pos b))
    edges

(* random graphs: every node is in exactly one component *)
let prop_scc_partition =
  let gen =
    QCheck.Gen.(
      let* n = int_range 1 20 in
      let* m = int_range 0 40 in
      let* edges = list_size (return m) (pair (int_range 0 (n - 1)) (int_range 0 (n - 1))) in
      return (n, edges))
  in
  let arb = QCheck.make ~print:(fun (n, e) -> Fmt.str "n=%d edges=%d" n (List.length e)) gen in
  QCheck.Test.make ~name:"scc components partition the nodes" ~count:200 arb
    (fun (n, edges) ->
      let nodes, succs = adj edges n in
      let scc = Dataflow.Scc.compute nodes succs in
      let total = Array.fold_left (fun acc c -> acc + List.length c) 0 scc.components in
      total = n
      && List.for_all
           (fun v -> List.mem v scc.components.(scc.index_of v))
           nodes)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "dataflow"
    [ ( "scc",
        [ Alcotest.test_case "dag" `Quick test_scc_dag;
          Alcotest.test_case "cycle" `Quick test_scc_cycle;
          Alcotest.test_case "self loop" `Quick test_scc_self_loop;
          Alcotest.test_case "topological order" `Quick test_scc_topological_respects_edges;
          qt prop_scc_partition ] ) ]
