type severity = Error | Warning | Hint

type span = { start : int; stop : int }

type t = {
  severity : severity;
  code : string;
  span : span option;
  message : string;
}

let make ?span severity ~code message =
  Ace_trace.Trace.incr Ace_trace.Trace.Counter.Diags;
  { severity; code; span; message }
let error ?span ~code message = make ?span Error ~code message
let warning ?span ~code message = make ?span Warning ~code message
let hint ?span ~code message = make ?span Hint ~code message

let errorf ?span ~code fmt =
  Format.kasprintf (fun message -> error ?span ~code message) fmt

let warningf ?span ~code fmt =
  Format.kasprintf (fun message -> warning ?span ~code message) fmt

let severity_to_string = function
  | Error -> "error"
  | Warning -> "warning"
  | Hint -> "hint"

let severity_rank = function Error -> 2 | Warning -> 1 | Hint -> 0
let compare_severity a b = Int.compare (severity_rank a) (severity_rank b)
let is_error d = d.severity = Error

let max_severity = function
  | [] -> None
  | d :: rest ->
      Some
        (List.fold_left
           (fun acc { severity; _ } ->
             if compare_severity severity acc > 0 then severity else acc)
           d.severity rest)

let line_col ~source pos =
  let pos = max 0 (min pos (String.length source)) in
  let line = ref 1 and col = ref 1 in
  for i = 0 to pos - 1 do
    if source.[i] = '\n' then (
      incr line;
      col := 1)
    else incr col
  done;
  (!line, !col)

(* The source line containing [pos], without its newline. *)
let source_line ~source pos =
  let len = String.length source in
  let pos = max 0 (min pos (max 0 (len - 1))) in
  if len = 0 then ("", 0)
  else begin
    let first = ref pos in
    while !first > 0 && source.[!first - 1] <> '\n' do
      decr first
    done;
    let last = ref pos in
    while !last < len && source.[!last] <> '\n' do
      incr last
    done;
    (String.sub source !first (!last - !first), pos - !first)
  end

let to_string ?source d =
  let head = Printf.sprintf "%s[%s]" (severity_to_string d.severity) d.code in
  match (d.span, source) with
  | None, _ -> Printf.sprintf "%s: %s" head d.message
  | Some { start; _ }, None ->
      Printf.sprintf "%s at byte %d: %s" head start d.message
  | Some { start; _ }, Some source ->
      let line, col = line_col ~source start in
      let text, offset = source_line ~source start in
      (* clip very long lines so the caret stays on screen *)
      let text, offset =
        if String.length text <= 120 then (text, offset)
        else
          let from = max 0 (offset - 60) in
          let len = min 120 (String.length text - from) in
          (String.sub text from len, offset - from)
      in
      let caret = String.make offset ' ' ^ "^" in
      Printf.sprintf "%s at line %d, column %d: %s\n  %s\n  %s" head line col
        d.message text caret

(* The escape of each byte that needs one: ['"'], ['\\'] and the control
   bytes, exactly the bytes [Swar.json_plain_end] stops at; [""] for the
   rest. *)
let escapes =
  Array.init 256 (fun i ->
      match Char.chr i with
      | '"' -> "\\\""
      | '\\' -> "\\\\"
      | '\n' -> "\\n"
      | '\r' -> "\\r"
      | '\t' -> "\\t"
      | _ when i < 0x20 -> Printf.sprintf "\\u%04x" i
      | _ -> "")

(* Runs of bytes that need no escape are copied whole, and found 8 bytes
   at a time. *)
let json_escape_into buf s =
  let n = String.length s in
  let rec go from =
    let stop = Ace_trace.Swar.json_plain_end s from n in
    Buffer.add_substring buf s from (stop - from);
    if stop < n then begin
      Buffer.add_string buf escapes.(Char.code (String.unsafe_get s stop));
      go (stop + 1)
    end
  in
  go 0

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  json_escape_into buf s;
  Buffer.contents buf

(* Two passes over the runs: the first sizes the result, the second fills
   it, so a multi-megabyte string is copied once. *)
let json_quote s =
  let n = String.length s in
  let plain_end i = Ace_trace.Swar.json_plain_end s i n in
  let escape i = escapes.(Char.code (String.unsafe_get s i)) in
  let len = ref (n + 2) and i = ref (plain_end 0) in
  while !i < n do
    len := !len + String.length (escape !i) - 1;
    i := plain_end (!i + 1)
  done;
  let b = Bytes.create !len in
  Bytes.unsafe_set b 0 '"';
  let rec fill from j =
    let stop = plain_end from in
    Bytes.unsafe_blit_string s from b j (stop - from);
    let j = j + stop - from in
    if stop < n then begin
      let e = escape stop in
      Bytes.unsafe_blit_string e 0 b j (String.length e);
      fill (stop + 1) (j + String.length e)
    end
    else Bytes.unsafe_set b j '"'
  in
  fill 0 1;
  Bytes.unsafe_to_string b

let to_json ?source d =
  let buf = Buffer.create 128 in
  Buffer.add_string buf
    (Printf.sprintf "{\"severity\":\"%s\",\"code\":\"%s\",\"message\":\"%s\""
       (severity_to_string d.severity)
       (json_escape d.code) (json_escape d.message));
  (match d.span with
  | None -> ()
  | Some { start; stop } ->
      Buffer.add_string buf (Printf.sprintf ",\"start\":%d,\"end\":%d" start stop);
      match source with
      | None -> ()
      | Some source ->
          let line, col = line_col ~source start in
          Buffer.add_string buf
            (Printf.sprintf ",\"line\":%d,\"column\":%d" line col));
  Buffer.add_char buf '}';
  Buffer.contents buf
