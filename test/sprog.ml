(* Random structured MiniC programs for property tests: statement
   sequences over the locals x and y built from assignments, if/else and
   bounded while loops whose condition is a [&&].  Branch conditions
   compare a variable with a constant or an expression with 0, alone,
   negated or joined by [&&]/[||], so branch refinement has something to
   narrow.  Shared by test_ir (SSA construction) and test_absint (the
   value-range oracle). *)

type t = { body : string }

let gen =
  let open QCheck.Gen in
  let expr_leaf = oneof [ map (fun n -> string_of_int (abs n mod 100)) small_int; return "x"; return "y" ] in
  let expr =
    let* a = expr_leaf and* b = expr_leaf and* op = oneofl [ "+"; "-"; "*" ] in
    return (Fmt.str "(%s %s %s)" a op b)
  in
  let atom =
    let* v = oneofl [ "x"; "y" ]
    and* op = oneofl [ "<"; "<="; ">"; ">="; "=="; "!=" ]
    and* n = int_range (-5) 20 in
    return (Fmt.str "%s %s %d" v op n)
  in
  let cond =
    frequency
      [ (2, map (fun e -> Fmt.str "%s > 0" e) expr);
        (2, atom);
        ( 1,
          let* a = atom and* b = atom and* j = oneofl [ "&&"; "||" ] in
          return (Fmt.str "%s %s %s" a j b) );
        (1, map (fun a -> Fmt.str "!(%s)" a) atom) ]
  in
  let assign =
    let* v = oneofl [ "x"; "y" ] and* e = expr in
    return (Fmt.str "%s = %s;" v e)
  in
  let rec stmt n =
    if n <= 0 then assign
    else
      frequency
        [ (3, assign);
          ( 1,
            let* c = cond and* s1 = stmt (n / 2) and* s2 = stmt (n / 2) in
            return (Fmt.str "if (%s) { %s } else { %s }" c s1 s2) );
          ( 1,
            let* c = cond and* s1 = stmt (n / 2) in
            return (Fmt.str "if (%s) { %s }" c s1) );
          ( 1,
            let* s1 = stmt (n / 2) and* s2 = stmt (n / 2) in
            return (Fmt.str "%s %s" s1 s2) );
          ( 1,
            let* c = expr and* s1 = stmt (n / 2) in
            (* bounded loop via the counter k *)
            return
              (Fmt.str "{ int k = 0; while (k < 5 && (%s) > -999999) { %s k++; } }" c s1) ) ]
  in
  let* body = stmt 6 in
  return { body }

let arbitrary = QCheck.make ~print:(fun p -> p.body) gen

(* the body as the whole of [main], with x and y initialized *)
let wrap_main p = Fmt.str "int main() { int x = 3; int y = 17; %s return x * 31 + y; }" p.body
