(** Shared-memory region model (§3.2.1): regions are declared by the
    post-conditions of initializing functions ([shminit] / [shmvar] /
    [noncore]); {!run_init_check} implements the paper's one-time
    run-time InitCheck by executing the initializer on the interpreter
    and verifying the layout. *)

open Minic

type region = {
  r_name : string;   (** the shm-pointer global naming the region *)
  r_size : int;      (** bytes *)
  r_noncore : bool;  (** writable by non-core components *)
  r_elem : Ty.t;     (** pointee type (array element) *)
  r_loc : Loc.t;
}

type t = {
  regions : region list;
  init_funcs : string list;
  by_name : (string, region) Hashtbl.t;
}

val region : t -> string -> region option

val is_init_func : t -> string -> bool

val discover : Ssair.Ir.program -> t

exception Init_check_failed of string

val run_init_check : Ssair.Ir.program -> t -> (string * int * int) list
(** Execute the initializing function with a simulated [shmat]; return
    the verified layout [(region, offset, size)].
    @raise Init_check_failed on overlap, escape, missing initialization
    or a trap (running out of fuel included) in the initializing
    function — the paper terminates the core component before
    bootstrap. *)
