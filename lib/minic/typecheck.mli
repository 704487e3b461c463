(** Type checker and elaborator: {!Ast.program} → {!Tast.program}.
    Resolves typedefs, folds [sizeof], inserts array decay and implicit
    conversions, alpha-renames block-scoped locals, desugars brace
    initializers, and rejects constructs outside the MiniC subset. *)

val builtin_externs : (string * Ty.t * Ty.t list) list
(** implicitly declared OS interface: shmget/shmat/shmdt/kill/... *)

val check_program : Ast.program -> Tast.program
(** @raise Loc.Error on type errors *)

val scope_probes : unit -> int
(** hash-table probes made so far (by every {!check_program} of the
    process) to resolve variable names: one per visible-locals lookup
    and one per globals lookup, independent of the nesting depth *)

val check_program_map :
  ?body:(Ast.func -> Ast.stmt list) ->
  Ast.program ->
  start:(Ty.env -> (string -> Ty.t option) -> Tast.tfunc -> 'a) ->
  Tast.program * 'a list
(** {!check_program} handing each typed function to a consumer as soon
    as it is checked, so a caller can lower it while its typed AST is
    young, instead of keeping the whole typed program alive.
    [start env global_ty] is called once the signatures, types and
    globals are known ([global_ty] answers a global's resolved type) and
    returns the consumer; the result is the typed program without
    functions and the consumer's results in function order.  [body f],
    when given, supplies the statements of each function definition
    [f] in place of [f.fbody], when that function is checked.
    @raise Loc.Error on type errors *)
