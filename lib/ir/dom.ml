(** Dominator tree of a function's CFG (Cooper, Harvey and Kennedy's
    iterative algorithm), over arrays indexed by block id. *)

type tree = {
  idom : int array;  (** immediate dominator; the root maps to itself, -1 if unreachable *)
  root : Ir.bid;
}

(* The state of one computation.  Its walks are top-level recursion
   over it, so computing a tree allocates its arrays and nothing else. *)
type st = {
  n : int;  (** one past the largest block id *)
  blocks : Ir.block array;  (** by block id; [no_block] where none *)
  rpo : int array;  (** reverse postorder number; -1 while unvisited *)
  order : int array;  (** postorder, [count] used *)
  mutable count : int;
  pred_off : int array;  (** predecessors of [v]: [pred_dst.(pred_off.(v) .. pred_off.(v+1) - 1)] *)
  mutable pred_dst : int array;
  dom : int array;  (** immediate dominator so far, -1 = none yet *)
}

let no_block = { Ir.bbid = -1; phis = []; instrs = []; termin = Ir.Unreachable }

(* depth-first from [v] over the successors within the id range: both
   targets of a two-way branch (once when equal), a switch's default
   then its cases; [order] gets the postorder *)
let rec dfs st v =
  st.rpo.(v) <- 0;
  (match st.blocks.(v).Ir.termin with
  | Ir.Br t -> enter st t
  | Ir.Cbr (_, t, e) ->
    enter st t;
    if e <> t then enter st e
  | Ir.Switch (_, cases, d) ->
    enter st d;
    enter_cases st cases
  | Ir.Ret _ | Ir.Unreachable -> ());
  st.order.(st.count) <- v;
  st.count <- st.count + 1

and enter st s = if s >= 0 && s < st.n && st.rpo.(s) < 0 then dfs st s

and enter_cases st = function
  | [] -> ()
  | (_, t) :: rest ->
    enter st t;
    enter_cases st rest

(* the edges out of block [v], each through [edge st v s] *)
let rec cases_edges edge st v = function
  | [] -> ()
  | (_, t) :: rest ->
    edge st v t;
    cases_edges edge st v rest

let out_edges edge st v =
  match st.blocks.(v).Ir.termin with
  | Ir.Br t -> edge st v t
  | Ir.Cbr (_, t, e) ->
    edge st v t;
    if e <> t then edge st v e
  | Ir.Switch (_, cases, d) ->
    edge st v d;
    cases_edges edge st v cases
  | Ir.Ret _ | Ir.Unreachable -> ()

let count_edge st _ s = if s >= 0 && s < st.n then st.pred_off.(s + 1) <- st.pred_off.(s + 1) + 1

(* [pred_off.(s)] serves as the fill cursor of row [s] *)
let fill_edge st v s =
  if s >= 0 && s < st.n then begin
    st.pred_dst.(st.pred_off.(s)) <- v;
    st.pred_off.(s) <- st.pred_off.(s) + 1
  end

let rec intersect st a b =
  if a = b then a
  else if st.rpo.(a) > st.rpo.(b) then intersect st st.dom.(a) b
  else intersect st a st.dom.(b)

(* the meet over the processed predecessors [j .. hi - 1] of a block *)
let rec meet st acc j hi =
  if j >= hi then acc
  else
    let p = st.pred_dst.(j) in
    meet st (if st.dom.(p) < 0 then acc else if acc < 0 then p else intersect st p acc) (j + 1) hi

let compute (f : Ir.func) : tree =
  let n = 1 + List.fold_left (fun m (b : Ir.block) -> max m b.bbid) f.fentry f.blocks in
  let st =
    { n; blocks = Array.make n no_block; rpo = Array.make n (-1); order = Array.make n 0;
      count = 0; pred_off = Array.make (n + 1) 0; pred_dst = [||]; dom = Array.make n (-1) }
  in
  (* later duplicate block ids win *)
  List.iter (fun (b : Ir.block) -> if b.bbid >= 0 then st.blocks.(b.bbid) <- b) f.blocks;
  (* reverse postorder numbering from the entry; -1 marks unreachable *)
  dfs st f.fentry;
  let count = st.count in
  for k = 0 to count - 1 do
    st.rpo.(st.order.(k)) <- count - 1 - k
  done;
  (* the reachable blocks' edges, by target *)
  for k = 0 to count - 1 do
    out_edges count_edge st st.order.(k)
  done;
  for s = 1 to n do
    st.pred_off.(s) <- st.pred_off.(s) + st.pred_off.(s - 1)
  done;
  st.pred_dst <- Array.make st.pred_off.(n) 0;
  for k = 0 to count - 1 do
    out_edges fill_edge st st.order.(k)
  done;
  (* the cursors ended at each row's end: shift them back to its start *)
  for s = n downto 1 do
    st.pred_off.(s) <- st.pred_off.(s - 1)
  done;
  st.pred_off.(0) <- 0;
  let idom = st.dom in
  idom.(f.fentry) <- f.fentry;
  let changed = ref true in
  while !changed do
    changed := false;
    (* reverse postorder is [order] read backwards *)
    for k = count - 2 downto 0 do
      let v = st.order.(k) in
      let nd = meet st (-1) st.pred_off.(v) st.pred_off.(v + 1) in
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
let rec dominated_from t a n = n = a || (n <> t.root && dominated_from t a t.idom.(n))

let dominates t a b = in_tree t b && dominated_from t a b
