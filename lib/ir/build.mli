(** Lowering from the typed AST to SSA form: scalar locals whose address
    is never taken become SSA values as the code is lowered (Braun et
    al., CC 2013); every other local and parameter keeps a stack slot;
    short-circuit and ternary operators lower to control flow; SafeFlow
    annotations become pseudo-instructions. *)

val lower : Minic.Tast.program -> Ir.program

val lower_memory : Minic.Tast.program -> Ir.program
(** the same lowering with every local in memory (allocas, loads and
    stores, no phis), the input of the mem2reg test oracle *)

val func_lowering :
  Minic.Ty.env -> globals:(string -> Minic.Ty.t option) -> Minic.Tast.tfunc -> Ir.func
(** [func_lowering env ~globals] lowers one typed function at a time,
    as {!lower} does each function of a program whose type environment
    is [env] and whose globals have the types [globals] answers *)

val program : Minic.Tast.program -> Ir.func list -> Ir.program
(** the program of a typed program's declarations (its [p_funcs] are
    ignored) and the given lowered functions *)
