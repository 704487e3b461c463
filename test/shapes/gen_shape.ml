(* Usage: gen_shape.exe (chain|nest|switch|loops) N
   Prints the Shapes program of that shape and size to stdout. *)

let usage () =
  prerr_endline "usage: gen_shape (chain|nest|switch|loops) N";
  exit 2

let () =
  match Sys.argv with
  | [| _; s; n |] -> (
    match (Shapes.of_name s, int_of_string_opt n) with
    | Some shape, Some n when n >= 1 -> print_string (Shapes.program shape n)
    | _ -> usage ())
  | _ -> usage ()
