(** Structural digests of analysis inputs (see the interface).

    Canonical encoding: [Marshal.to_string v [Marshal.No_sharing]].  The
    IR is cycle-free pure data, so marshalling terminates and is
    deterministic for structurally equal values; [No_sharing] makes the
    byte stream independent of incidental sharing in the heap. *)

type t = {
  program : string;
  env : string;
}

let of_value v = Digest.to_hex (Digest.string (Marshal.to_string v [ Marshal.No_sharing ]))

let combine ds = Digest.to_hex (Digest.string (String.concat "\x00" ds))

let source_key ?(file = "<input>") src = of_value (file, src)

(* [verbose] deliberately omitted: it does not change reports. *)
let semantic_config (c : Config.t) =
  of_value
    ( c.Config.field_sensitive,
      c.Config.context_sensitive,
      c.Config.control_deps,
      c.Config.check_restrictions,
      c.Config.omega_fuel,
      c.Config.critical_sinks,
      c.Config.recv_functions,
      c.Config.absint )

let sorted_tbl tbl = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

let of_program (p : Ssair.Ir.program) : t =
  let env =
    of_value
      ( sorted_tbl p.Ssair.Ir.env.Minic.Ty.structs,
        sorted_tbl p.Ssair.Ir.env.Minic.Ty.typedefs )
  in
  let program =
    combine
      (env
      :: of_value (p.Ssair.Ir.globals, p.Ssair.Ir.externs)
      :: List.map of_value p.Ssair.Ir.funcs)
  in
  { program; env }
