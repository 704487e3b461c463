(** Pretty-printer from the AST back to C source; [parse ∘ print] is
    stable (round-trip tested). *)

val pp_expr : Format.formatter -> Ast.expr -> unit

val pp_program : Format.formatter -> Ast.program -> unit

val program_to_string : Ast.program -> string
