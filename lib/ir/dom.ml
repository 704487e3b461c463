(** Dominator tree of a function's CFG (Cooper, Harvey and Kennedy's
    iterative algorithm), over arrays indexed by block id. *)

type tree = {
  idom : int array;  (** immediate dominator; the root maps to itself, -1 if unreachable *)
  root : Ir.bid;
}

let compute (f : Ir.func) : tree =
  let n = 1 + List.fold_left (fun m (b : Ir.block) -> max m b.bbid) f.fentry f.blocks in
  let succs = Array.make n [] in
  List.iter
    (fun (b : Ir.block) ->
      succs.(b.bbid) <- List.filter (fun s -> s >= 0 && s < n) (Ir.succs_of_term b.termin))
    f.blocks;
  (* reverse postorder numbering from the entry; -1 marks unreachable *)
  let rpo = Array.make n (-1) in
  let order = Array.make n 0 in
  let count = ref 0 in
  let rec dfs v =
    rpo.(v) <- 0;
    List.iter (fun s -> if rpo.(s) < 0 then dfs s) succs.(v);
    order.(!count) <- v;
    incr count
  in
  dfs f.fentry;
  let count = !count in
  for k = 0 to count - 1 do
    rpo.(order.(k)) <- count - 1 - k
  done;
  let preds = Array.make n [] in
  for k = 0 to count - 1 do
    let v = order.(k) in
    List.iter (fun s -> preds.(s) <- v :: preds.(s)) succs.(v)
  done;
  let idom = Array.make n (-1) in
  idom.(f.fentry) <- f.fentry;
  let rec intersect a b =
    if a = b then a else if rpo.(a) > rpo.(b) then intersect idom.(a) b else intersect a idom.(b)
  in
  let changed = ref true in
  while !changed do
    changed := false;
    (* reverse postorder is [order] read backwards *)
    for k = count - 2 downto 0 do
      let v = order.(k) in
      let nd =
        List.fold_left
          (fun acc p -> if idom.(p) < 0 then acc else if acc < 0 then p else intersect p acc)
          (-1) preds.(v)
      in
      if nd >= 0 && idom.(v) <> nd then begin
        idom.(v) <- nd;
        changed := true
      end
    done
  done;
  { idom; root = f.fentry }

let in_tree t n = n >= 0 && n < Array.length t.idom && t.idom.(n) >= 0

let idom t n = if n = t.root || not (in_tree t n) then None else Some t.idom.(n)

(** Does [a] dominate [b] (reflexively)? *)
let dominates t a b =
  let rec go n = n = a || (n <> t.root && go t.idom.(n)) in
  in_tree t b && go b
