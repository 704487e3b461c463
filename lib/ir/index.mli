(** The program index the stages after the frontend share: functions by
    dense index in program order, the name table, each function's
    value-id bound and each call site's callee.  Built once per program
    ({!of_program}); no stage builds a name table of its own. *)

type t = private {
  prog : Ir.program;
  funcs : Ir.func array;  (** [prog.funcs] in program order, by function index *)
  by_name : (string, int) Hashtbl.t;  (** name → function index, first definition wins *)
  bounds : int array;
      (** by function index: one past the largest id an instruction or
          phi of the function defines, so per-function arrays indexed by
          value id have this length *)
  call_iids : int array array;
      (** by function index: the ids of the function's [Call]
          instructions, ascending *)
  call_callees : int array array;
      (** parallel to [call_iids]: each call's callee index, -1 for an
          extern callee *)
}

val of_program : Ir.program -> t

val length : t -> int
(** the number of functions *)

val func : t -> int -> Ir.func

val find : t -> string -> int
(** the index of the first function of that name, -1 when none *)

val func_opt : t -> string -> Ir.func option

val bound : t -> int -> int

val param_pos : Ir.func -> string -> int
(** the position of the named parameter, -1 when the function has none
    of that name; per-function parameter arrays are indexed by it *)

val callee : t -> int -> Ir.vid -> int
(** [callee t fx iid]: the callee index of call instruction [iid] of
    function [fx]; -1 for an extern callee or an id that is no call *)
