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

(* Runs of characters that need no escape are copied as one substring. *)
let json_escape_into buf s =
  let n = String.length s in
  let rec go from i =
    if i = n then Buffer.add_substring buf s from (i - from)
    else
      match String.unsafe_get s i with
      | ('"' | '\\' | '\000' .. '\031') as c ->
          Buffer.add_substring buf s from (i - from);
          (match c with
          | '"' -> Buffer.add_string buf "\\\""
          | '\\' -> Buffer.add_string buf "\\\\"
          | '\n' -> Buffer.add_string buf "\\n"
          | '\r' -> Buffer.add_string buf "\\r"
          | '\t' -> Buffer.add_string buf "\\t"
          | c -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c)));
          go (i + 1) (i + 1)
      | _ -> go from (i + 1)
  in
  go 0 0

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  json_escape_into buf s;
  Buffer.contents buf

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
