(* Minimal JSON reader (and escape helper).  The repo deliberately has
   no JSON dependency — emitters are hand-rolled Buffer code — but the
   observability layer needs to *read* JSON back: NDJSON fleet events
   for [Progress], stats files in tests.  Recursive-descent parser over
   a string; numbers are kept as floats, which covers every value the
   tool itself emits. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse_error of string

type state = { src : string; mutable pos : int }

let fail st msg =
  raise (Parse_error (Printf.sprintf "%s at byte %d" msg st.pos))

let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

let advance st = st.pos <- st.pos + 1

let rec skip_ws st =
  match peek st with
  | Some (' ' | '\t' | '\n' | '\r') ->
    advance st;
    skip_ws st
  | _ -> ()

let expect st c =
  match peek st with
  | Some c' when c' = c -> advance st
  | _ -> fail st (Printf.sprintf "expected '%c'" c)

let literal st word v =
  let n = String.length word in
  if st.pos + n <= String.length st.src && String.sub st.src st.pos n = word then begin
    st.pos <- st.pos + n;
    v
  end
  else fail st (Printf.sprintf "expected '%s'" word)

let parse_string st =
  expect st '"';
  let b = Buffer.create 16 in
  let rec loop () =
    match peek st with
    | None -> fail st "unterminated string"
    | Some '"' -> advance st
    | Some '\\' -> (
      advance st;
      match peek st with
      | None -> fail st "unterminated escape"
      | Some c ->
        advance st;
        (match c with
        | '"' -> Buffer.add_char b '"'
        | '\\' -> Buffer.add_char b '\\'
        | '/' -> Buffer.add_char b '/'
        | 'b' -> Buffer.add_char b '\b'
        | 'f' -> Buffer.add_char b '\012'
        | 'n' -> Buffer.add_char b '\n'
        | 'r' -> Buffer.add_char b '\r'
        | 't' -> Buffer.add_char b '\t'
        | 'u' ->
          let hex4 () =
            if st.pos + 4 > String.length st.src then fail st "truncated \\u escape";
            let hex = String.sub st.src st.pos 4 in
            st.pos <- st.pos + 4;
            let ok =
              String.for_all
                (function '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true | _ -> false)
                hex
            in
            if not ok then fail st "bad \\u escape";
            int_of_string ("0x" ^ hex)
          in
          let code = hex4 () in
          (* surrogate pairs: a high surrogate must be followed by
             [\uDC00-\uDFFF]; together they name one supplementary-plane
             code point.  An unpaired surrogate is malformed input. *)
          let code =
            if code >= 0xD800 && code <= 0xDBFF then begin
              if
                not
                  (st.pos + 2 <= String.length st.src
                  && st.src.[st.pos] = '\\'
                  && st.src.[st.pos + 1] = 'u')
              then fail st "unpaired high surrogate";
              st.pos <- st.pos + 2;
              let low = hex4 () in
              if low < 0xDC00 || low > 0xDFFF then fail st "invalid low surrogate";
              0x10000 + ((code - 0xD800) lsl 10) + (low - 0xDC00)
            end
            else if code >= 0xDC00 && code <= 0xDFFF then
              fail st "unpaired low surrogate"
            else code
          in
          (* UTF-8 encode the code point (1-4 bytes) *)
          if code < 0x80 then Buffer.add_char b (Char.chr code)
          else if code < 0x800 then begin
            Buffer.add_char b (Char.chr (0xC0 lor (code lsr 6)));
            Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
          end
          else if code < 0x10000 then begin
            Buffer.add_char b (Char.chr (0xE0 lor (code lsr 12)));
            Buffer.add_char b (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
            Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
          end
          else begin
            Buffer.add_char b (Char.chr (0xF0 lor (code lsr 18)));
            Buffer.add_char b (Char.chr (0x80 lor ((code lsr 12) land 0x3F)));
            Buffer.add_char b (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
            Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
          end
        | c -> fail st (Printf.sprintf "bad escape '\\%c'" c));
        loop ())
    | Some c ->
      advance st;
      Buffer.add_char b c;
      loop ()
  in
  loop ();
  Buffer.contents b

let parse_number st =
  let start = st.pos in
  let is_num_char c =
    match c with
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  let rec loop () =
    match peek st with
    | Some c when is_num_char c ->
      advance st;
      loop ()
    | _ -> ()
  in
  loop ();
  let s = String.sub st.src start (st.pos - start) in
  match float_of_string_opt s with
  | Some f -> Num f
  | None -> fail st (Printf.sprintf "bad number '%s'" s)

let rec parse_value st =
  skip_ws st;
  match peek st with
  | None -> fail st "unexpected end of input"
  | Some '{' ->
    advance st;
    skip_ws st;
    if peek st = Some '}' then begin
      advance st;
      Obj []
    end
    else begin
      let rec members acc =
        skip_ws st;
        let k = parse_string st in
        skip_ws st;
        expect st ':';
        let v = parse_value st in
        skip_ws st;
        match peek st with
        | Some ',' ->
          advance st;
          members ((k, v) :: acc)
        | Some '}' ->
          advance st;
          List.rev ((k, v) :: acc)
        | _ -> fail st "expected ',' or '}'"
      in
      Obj (members [])
    end
  | Some '[' ->
    advance st;
    skip_ws st;
    if peek st = Some ']' then begin
      advance st;
      Arr []
    end
    else begin
      let rec elems acc =
        let v = parse_value st in
        skip_ws st;
        match peek st with
        | Some ',' ->
          advance st;
          elems (v :: acc)
        | Some ']' ->
          advance st;
          List.rev (v :: acc)
        | _ -> fail st "expected ',' or ']'"
      in
      Arr (elems [])
    end
  | Some '"' -> Str (parse_string st)
  | Some 't' -> literal st "true" (Bool true)
  | Some 'f' -> literal st "false" (Bool false)
  | Some 'n' -> literal st "null" Null
  | Some _ -> parse_number st

let parse s =
  let st = { src = s; pos = 0 } in
  match parse_value st with
  | v ->
    skip_ws st;
    if st.pos <> String.length s then Error (Printf.sprintf "trailing data at byte %d" st.pos)
    else Ok v
  | exception Parse_error msg -> Error msg

let parse_exn s =
  match parse s with Ok v -> v | Error msg -> raise (Parse_error msg)

(* -- Accessors -------------------------------------------------------------- *)

let member name = function
  | Obj fields -> List.assoc_opt name fields
  | _ -> None

let to_string = function Str s -> Some s | _ -> None

let to_float = function Num f -> Some f | _ -> None

let to_int = function
  | Num f when Float.is_integer f -> Some (int_of_float f)
  | _ -> None

let to_bool = function Bool b -> Some b | _ -> None

let to_list = function Arr l -> Some l | _ -> None

let to_obj = function Obj l -> Some l | _ -> None

let escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let emit (j : t) : string =
  let b = Buffer.create 256 in
  let rec go = function
    | Null -> Buffer.add_string b "null"
    | Bool true -> Buffer.add_string b "true"
    | Bool false -> Buffer.add_string b "false"
    | Num f ->
      if Float.is_integer f && Float.abs f <= 9.007199254740992e15 then
        Buffer.add_string b (Printf.sprintf "%.0f" f)
      else Buffer.add_string b (Printf.sprintf "%.17g" f)
    | Str s ->
      Buffer.add_char b '"';
      Buffer.add_string b (escape s);
      Buffer.add_char b '"'
    | Arr l ->
      Buffer.add_char b '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char b ',';
          go x)
        l;
      Buffer.add_char b ']'
    | Obj fields ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          Buffer.add_char b '"';
          Buffer.add_string b (escape k);
          Buffer.add_string b "\":";
          go v)
        fields;
      Buffer.add_char b '}'
  in
  go j;
  Buffer.contents b
