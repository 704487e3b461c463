(** Lowering from the typed AST to SSA form: scalar locals whose address
    is never taken become SSA values as the code is lowered (Braun et
    al., CC 2013); every other local and parameter keeps a stack slot;
    short-circuit and ternary operators lower to control flow; SafeFlow
    annotations become pseudo-instructions. *)

val lower : Minic.Tast.program -> Ir.program

val lower_memory : Minic.Tast.program -> Ir.program
(** the same lowering with every local in memory (allocas, loads and
    stores, no phis), the input of the mem2reg test oracle *)
