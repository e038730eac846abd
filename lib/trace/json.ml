(* Minimal JSON reader: the daemon's request reader ([Ace_serve.Proto]
   parses every `aced` request line with it, so its accept/reject
   decisions and error positions are part of the protocol), and the
   validator of exported Chrome traces in tests and the fuzz harness.
   Not a general-purpose library: no streaming, integers read as floats,
   \u escapes outside the BMP are not paired. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse_error of string

type state = { src : string; mutable pos : int }

let fail st msg = raise (Parse_error (Printf.sprintf "%s at byte %d" msg st.pos))

let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

let skip_ws st =
  while
    st.pos < String.length st.src
    &&
    match st.src.[st.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    st.pos <- st.pos + 1
  done

let expect st c =
  match peek st with
  | Some d when d = c -> st.pos <- st.pos + 1
  | _ -> fail st (Printf.sprintf "expected '%c'" c)

let literal st word value =
  let n = String.length word in
  if
    st.pos + n <= String.length st.src
    && String.sub st.src st.pos n = word
  then begin
    st.pos <- st.pos + n;
    value
  end
  else fail st (Printf.sprintf "expected '%s'" word)

let utf8_of_code b code =
  if code < 0x80 then Buffer.add_char b (Char.chr code)
  else if code < 0x800 then begin
    Buffer.add_char b (Char.chr (0xC0 lor (code lsr 6)));
    Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
  end
  else begin
    Buffer.add_char b (Char.chr (0xE0 lor (code lsr 12)));
    Buffer.add_char b (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
    Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
  end

(* Runs between escapes are copied whole: request CIF and cached
   wirelists are megabytes of plain text with an escape per line, and
   [Swar] finds each run's end 8 bytes at a time. *)
let parse_string st =
  expect st '"';
  let src = st.src in
  let n = String.length src in
  let b = Buffer.create 16 in
  let rec loop () =
    let start = st.pos in
    st.pos <- Swar.json_plain_end src start n;
    Buffer.add_substring b src start (st.pos - start);
    if st.pos >= n then fail st "unterminated string";
    let c = src.[st.pos] in
    st.pos <- st.pos + 1;
    match c with
    | '"' -> Buffer.contents b
    | '\\' ->
        (if st.pos >= String.length st.src then fail st "unterminated escape";
         let e = st.src.[st.pos] in
         st.pos <- st.pos + 1;
         match e with
         | '"' -> Buffer.add_char b '"'
         | '\\' -> Buffer.add_char b '\\'
         | '/' -> Buffer.add_char b '/'
         | 'b' -> Buffer.add_char b '\b'
         | 'f' -> Buffer.add_char b '\012'
         | 'n' -> Buffer.add_char b '\n'
         | 'r' -> Buffer.add_char b '\r'
         | 't' -> Buffer.add_char b '\t'
         | 'u' ->
             if st.pos + 4 > String.length st.src then fail st "short \\u";
             let hex = String.sub st.src st.pos 4 in
             st.pos <- st.pos + 4;
             let code =
               try int_of_string ("0x" ^ hex)
               with _ -> fail st "bad \\u escape"
             in
             utf8_of_code b code
         | _ -> fail st "bad escape");
        loop ()
    | _ -> fail st "control character in string"
  in
  loop ()

let parse_number st =
  let start = st.pos in
  let is_num_char c =
    match c with
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while
    st.pos < String.length st.src && is_num_char st.src.[st.pos]
  do
    st.pos <- st.pos + 1
  done;
  if st.pos = start then fail st "expected number";
  let tok = String.sub st.src start (st.pos - start) in
  match float_of_string_opt tok with
  | Some f -> f
  | None -> fail st (Printf.sprintf "bad number %S" tok)

let rec parse_value st =
  skip_ws st;
  match peek st with
  | None -> fail st "unexpected end of input"
  | Some '{' ->
      st.pos <- st.pos + 1;
      skip_ws st;
      if peek st = Some '}' then begin
        st.pos <- st.pos + 1;
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
              st.pos <- st.pos + 1;
              members ((k, v) :: acc)
          | Some '}' ->
              st.pos <- st.pos + 1;
              Obj (List.rev ((k, v) :: acc))
          | _ -> fail st "expected ',' or '}'"
        in
        members []
      end
  | Some '[' ->
      st.pos <- st.pos + 1;
      skip_ws st;
      if peek st = Some ']' then begin
        st.pos <- st.pos + 1;
        Arr []
      end
      else begin
        let rec elems acc =
          let v = parse_value st in
          skip_ws st;
          match peek st with
          | Some ',' ->
              st.pos <- st.pos + 1;
              elems (v :: acc)
          | Some ']' ->
              st.pos <- st.pos + 1;
              Arr (List.rev (v :: acc))
          | _ -> fail st "expected ',' or ']'"
        in
        elems []
      end
  | Some '"' -> Str (parse_string st)
  | Some 't' -> literal st "true" (Bool true)
  | Some 'f' -> literal st "false" (Bool false)
  | Some 'n' -> literal st "null" Null
  | Some _ -> Num (parse_number st)

let parse src =
  let st = { src; pos = 0 } in
  match parse_value st with
  | v ->
      skip_ws st;
      if st.pos <> String.length src then Error "trailing garbage"
      else Ok v
  | exception Parse_error msg -> Error msg

let member name = function
  | Obj fields -> List.assoc_opt name fields
  | _ -> None
