open Ace_geom
module Diag = Ace_diag.Diag
module Collector = Ace_diag.Collector

exception Error of { position : int; message : string }

(* Internal failure carrying the stable diagnostic code; the public strict
   entry point re-raises it as {!Error}, the lenient one records it and
   resynchronizes. *)
exception Perror of { position : int; code : string; message : string }

let fail ~code pos fmt =
  Format.kasprintf
    (fun message -> raise (Perror { position = pos; code; message }))
    fmt

(* The lexer works on byte codes ([Char.code]), with -1 for end of input,
   so looking at a byte allocates nothing. *)
let eof = -1
let is_digit c = c >= Char.code '0' && c <= Char.code '9'
let is_upper c = c >= Char.code 'A' && c <= Char.code 'Z'

type def_state = {
  def_id : int;
  scale_num : int;
  scale_den : int;
  mutable def_name : string option;
  mutable def_elements : Ast.element list;  (** reversed *)
}

(* [pos] is the literal's first digit, where an overflowing product is
   reported. *)
let scale st ~pos n =
  match st with
  | None -> n
  | Some d ->
      (* [n] is never [min_int] (literals are at most [max_int] in
         magnitude), so [abs n] is exact *)
      if abs n > max_int / d.scale_num then
        fail ~code:"cif-integer-overflow" pos
          "coordinate %d scaled by %d/%d is out of range" n d.scale_num
          d.scale_den;
      (* round-half-away-from-zero on the (rare) non-exact case *)
      let v = n * d.scale_num in
      if v mod d.scale_den = 0 then v / d.scale_den
      else
        let q = float_of_int v /. float_of_int d.scale_den in
        int_of_float (Float.round q)

(* The lexer is generic in how it reads characters, so the same code path
   serves an in-memory string and a memory-mapped file without copying
   either.  Each instantiation is compiled separately; the cursor logic
   below never indexes past [length] (every access is guarded by a bounds
   check or a preceding [peek]). *)
module type CHARS = sig
  type t

  val length : t -> int
  val get : t -> int -> char
  val sub : t -> int -> int -> string
end

(* Layer names are shared within one parse: an [L] command whose name was
   seen before reuses that string instead of copying the bytes again.
   Real files use a handful of layers; past this many distinct names the
   rest are copied per use, so a hostile file cannot make lookups slow. *)
let max_interned_layers = 32

module Make (S : CHARS) = struct
  type cursor = {
    src : S.t;
    len : int;
    mutable pos : int;
    mutable lit : int;  (** first digit of the last integer literal read *)
    mutable layers : string list;  (** interned layer names *)
    mutable n_layers : int;
  }

  let peek cur =
    if cur.pos < cur.len then Char.code (S.get cur.src cur.pos) else eof

  (* For matching on command letters: end of input reads as NUL, which
     no command starts with. *)
  let peek_char cur =
    let c = peek cur in
    if c = eof then '\000' else Char.unsafe_chr c

  (* Skip CIF blanks: anything that is not a digit, uppercase letter, '-',
     '(', ')' or ';'.  Parenthesized comments nest and count as blank. *)
  let rec skip_blanks cur =
    let c = peek cur in
    if c = Char.code '(' then begin
      let opened = cur.pos in
      let depth = ref 0 in
      let continue = ref true in
      while !continue do
        let c = peek cur in
        if c = eof then
          fail ~code:"cif-unterminated-comment" opened "unterminated comment"
        else if c = Char.code '(' then incr depth
        else if c = Char.code ')' then
          if !depth = 1 then continue := false else decr depth;
        cur.pos <- cur.pos + 1
      done;
      skip_blanks cur
    end
    else if
      c = eof || is_digit c || is_upper c
      || c = Char.code '-' || c = Char.code ';' || c = Char.code ')'
    then ()
    else begin
      cur.pos <- cur.pos + 1;
      skip_blanks cur
    end

  (* Digits accumulate in place; only an overflowing literal is copied, to
     quote it in the error. *)
  let read_int cur =
    skip_blanks cur;
    let neg = peek cur = Char.code '-' in
    if neg then cur.pos <- cur.pos + 1;
    let start = cur.pos in
    let n = ref 0 and overflow = ref false in
    let c = ref (peek cur) in
    while is_digit !c do
      let d = !c - Char.code '0' in
      if !n > (max_int - d) / 10 then overflow := true else n := (!n * 10) + d;
      cur.pos <- cur.pos + 1;
      c := peek cur
    done;
    if cur.pos = start then
      fail ~code:"cif-expected-integer" cur.pos "expected an integer";
    if !overflow then
      fail ~code:"cif-integer-overflow" start
        "integer literal '%s%s' out of range"
        (if neg then "-" else "")
        (S.sub cur.src start (cur.pos - start));
    cur.lit <- start;
    if neg then - !n else !n

  (* An integer read inside a definition, scaled by its [DS] factor. *)
  let read_scaled cur st =
    let n = read_int cur in
    scale st ~pos:cur.lit n

  (* Does an integer (possibly negative) start at the next token? *)
  let at_int cur =
    skip_blanks cur;
    let c = peek cur in
    is_digit c || c = Char.code '-'

  let read_point cur st =
    let x = read_scaled cur st in
    let y = read_scaled cur st in
    Point.make x y

  let expect_semi cur =
    skip_blanks cur;
    let c = peek cur in
    if c = Char.code ';' then cur.pos <- cur.pos + 1
    else if c = eof then
      fail ~code:"cif-expected-semi" cur.pos "expected ';', found end of input"
    else
      fail ~code:"cif-expected-semi" cur.pos "expected ';', found %c"
        (Char.chr c)

  (* Read the rest of the command verbatim (for user extensions). *)
  let read_to_semi cur =
    let start = cur.pos in
    while
      let c = peek cur in
      if c = eof then
        fail ~code:"cif-unterminated-command" start "unterminated command";
      c <> Char.code ';'
    do
      cur.pos <- cur.pos + 1
    done;
    let text = S.sub cur.src start (cur.pos - start) in
    cur.pos <- cur.pos + 1;
    String.trim text

  let rec same_bytes cur start n s i =
    i >= n
    || Char.code (S.get cur.src (start + i)) = Char.code (String.unsafe_get s i)
       && same_bytes cur start n s (i + 1)

  let rec find_layer cur start n = function
    | [] -> raise_notrace Not_found
    | s :: rest ->
        if String.length s = n && same_bytes cur start n s 0 then s
        else find_layer cur start n rest

  let read_layer_name cur =
    skip_blanks cur;
    let start = cur.pos in
    while
      let c = peek cur in
      is_upper c || is_digit c
    do
      cur.pos <- cur.pos + 1
    done;
    let n = cur.pos - start in
    if n = 0 then
      fail ~code:"cif-expected-layer-name" cur.pos "expected a layer name";
    match find_layer cur start n cur.layers with
    | s -> s
    | exception Not_found ->
        let s = S.sub cur.src start n in
        if cur.n_layers < max_interned_layers then begin
          cur.layers <- s :: cur.layers;
          cur.n_layers <- cur.n_layers + 1
        end;
        s

  let read_points_until_semi cur st =
    let rec go acc =
      if at_int cur then
        let p = read_point cur st in
        go (p :: acc)
      else List.rev acc
    in
    go []

  (* Translations are scaled as they are read, so an overflow is reported
     at its literal. *)
  let read_transform_ops cur st =
    let rec go acc =
      skip_blanks cur;
      match peek_char cur with
      | 'T' ->
          cur.pos <- cur.pos + 1;
          let dx = read_scaled cur st in
          let dy = read_scaled cur st in
          go (Ast.Translate (dx, dy) :: acc)
      | 'M' -> (
          cur.pos <- cur.pos + 1;
          skip_blanks cur;
          match peek_char cur with
          | 'X' ->
              cur.pos <- cur.pos + 1;
              go (Ast.Mirror_x :: acc)
          | 'Y' ->
              cur.pos <- cur.pos + 1;
              go (Ast.Mirror_y :: acc)
          | _ -> fail ~code:"cif-bad-transform" cur.pos "expected X or Y after M")
      | 'R' ->
          cur.pos <- cur.pos + 1;
          let a = read_int cur in
          let b = read_int cur in
          go (Ast.Rotate (a, b) :: acc)
      | _ -> List.rev acc
    in
    go []

  (* A word of uppercase letters (used after a label position for an optional
     layer name); returns None at ';'. *)
  let try_read_word cur =
    skip_blanks cur;
    if is_upper (peek cur) then Some (read_layer_name cur) else None

  (* Labels in extension 94: a name is any run of non-blank, non-';'
     characters starting at the first non-blank position. *)
  let read_label_name cur =
    let rec skip_soft () =
      match peek_char cur with
      | ' ' | '\t' | '\n' | '\r' | ',' ->
          cur.pos <- cur.pos + 1;
          skip_soft ()
      | _ -> ()
    in
    skip_soft ();
    let start = cur.pos in
    while
      let c = peek cur in
      c <> eof && c <> Char.code ';' && c <> Char.code ' '
      && c <> Char.code '\t' && c <> Char.code '\n' && c <> Char.code '\r'
    do
      cur.pos <- cur.pos + 1
    done;
    if cur.pos = start then
      fail ~code:"cif-expected-label-name" cur.pos "expected a label name";
    S.sub cur.src start (cur.pos - start)

  (* Recovery: skip forward to just past the next ';'.  Stop (without
     consuming) at an 'E' or "DF" that follows at least one consumed
     character, so end-of-definition and end-of-file markers inside garbage
     still close their scopes.  Raw byte scan on purpose: after an error the
     comment/blank structure cannot be trusted. *)
  let resync cur =
    let start = cur.pos in
    let len = cur.len in
    (* a marker only counts when it is not a prefix of a longer word *)
    let word_ends_at i =
      i >= len
      ||
      let c = Char.code (S.get cur.src i) in
      not (is_upper c || is_digit c)
    in
    let stop = ref false in
    while not !stop do
      if cur.pos >= len then stop := true
      else
        match S.get cur.src cur.pos with
        | ';' ->
            cur.pos <- cur.pos + 1;
            stop := true
        | 'E' when cur.pos > start && word_ends_at (cur.pos + 1) -> stop := true
        | 'D'
          when cur.pos > start
               && cur.pos + 1 < len
               && S.get cur.src (cur.pos + 1) = 'F'
               && word_ends_at (cur.pos + 2) ->
            stop := true
        | _ -> cur.pos <- cur.pos + 1
    done;
    (* guarantee progress even when the error position itself is the marker *)
    if cur.pos = start && start < len then cur.pos <- start + 1

  (* [collector = None] is strict mode: the first [Perror] propagates.  With
     a collector every error is recorded and parsing resumes at the next
     synchronization point, so the returned AST covers everything that could
     be salvaged. *)
  let parse ?collector src =
    let cur =
      { src; len = S.length src; pos = 0; lit = 0; layers = []; n_layers = 0 }
    in
    let symbols = ref [] in
    let top = ref [] in
    let current_def : def_state option ref = ref None in
    (* "" until the first L command: layer names are never empty *)
    let current_layer = ref "" in
    let add_element e =
      match !current_def with
      | Some d -> d.def_elements <- e :: d.def_elements
      | None -> top := e :: !top
    in
    let require_layer pos =
      if !current_layer = "" then
        fail ~code:"cif-no-layer" pos "geometry before any L (layer) command";
      !current_layer
    in
    let add_shape layer shape = add_element (Ast.Shape { layer; shape }) in
    let commit_def (d : def_state) =
      symbols :=
        { Ast.id = d.def_id; name = d.def_name; elements = List.rev d.def_elements }
        :: !symbols;
      current_def := None;
      (* CIF: the current layer does not survive a definition *)
      current_layer := ""
    in
    let finished = ref false in
    let step () =
      skip_blanks cur;
      (* skip_blanks consumed every NUL byte, so NUL here is end of input *)
      match peek_char cur with
      | '\000' -> (
          match !current_def with
          | Some _ ->
              fail ~code:"cif-unterminated-definition" cur.pos
                "end of input inside a symbol definition (missing DF)"
          | None -> fail ~code:"cif-missing-end" cur.pos "missing E (end) command")
      | ';' -> cur.pos <- cur.pos + 1 (* empty command *)
      | 'P' ->
          let layer = require_layer cur.pos in
          cur.pos <- cur.pos + 1;
          let pts = read_points_until_semi cur !current_def in
          expect_semi cur;
          add_shape layer (Ast.Polygon pts)
      | 'B' ->
          let layer = require_layer cur.pos in
          cur.pos <- cur.pos + 1;
          let st = !current_def in
          let length = read_scaled cur st in
          let width = read_scaled cur st in
          let center = read_point cur st in
          let direction =
            if at_int cur then begin
              let a = read_int cur in
              let b = read_int cur in
              Some (Point.make a b)
            end
            else None
          in
          expect_semi cur;
          add_shape layer (Ast.Box { length; width; center; direction })
      | 'W' ->
          let layer = require_layer cur.pos in
          cur.pos <- cur.pos + 1;
          let st = !current_def in
          let width = read_scaled cur st in
          let path = read_points_until_semi cur st in
          expect_semi cur;
          add_shape layer (Ast.Wire { width; path })
      | 'R' ->
          let layer = require_layer cur.pos in
          cur.pos <- cur.pos + 1;
          let st = !current_def in
          let diameter = read_scaled cur st in
          let center = read_point cur st in
          expect_semi cur;
          add_shape layer (Ast.Round_flash { diameter; center })
      | 'L' ->
          cur.pos <- cur.pos + 1;
          let name = read_layer_name cur in
          expect_semi cur;
          current_layer := name
      | 'D' ->
          cur.pos <- cur.pos + 1;
          skip_blanks cur;
          (match peek_char cur with
          | 'S' ->
              if !current_def <> None then
                fail ~code:"cif-nested-definition" cur.pos
                  "nested DS (symbol definitions cannot nest)";
              cur.pos <- cur.pos + 1;
              let id = read_int cur in
              let scale_num, scale_den =
                if at_int cur then begin
                  let a = read_int cur in
                  let b = read_int cur in
                  if a <= 0 || b <= 0 then
                    fail ~code:"cif-bad-scale" cur.pos
                      "DS scale factors must be positive";
                  (a, b)
                end
                else (1, 1)
              in
              expect_semi cur;
              current_def :=
                Some
                  {
                    def_id = id;
                    scale_num;
                    scale_den;
                    def_name = None;
                    def_elements = [];
                  }
          | 'F' ->
              cur.pos <- cur.pos + 1;
              (match !current_def with
              | None ->
                  fail ~code:"cif-df-without-ds" cur.pos "DF without matching DS"
              | Some d ->
                  expect_semi cur;
                  commit_def d)
          | 'D' ->
              cur.pos <- cur.pos + 1;
              let n = read_int cur in
              expect_semi cur;
              (* Delete definitions >= n.  Rare; honored literally. *)
              symbols := List.filter (fun (s : Ast.symbol_def) -> s.id < n) !symbols
          | _ ->
              fail ~code:"cif-bad-d-command" cur.pos "expected S, F or D after D")
      | 'C' ->
          cur.pos <- cur.pos + 1;
          let symbol = read_int cur in
          let ops = read_transform_ops cur !current_def in
          expect_semi cur;
          add_element (Ast.Call { symbol; ops })
      | 'E' ->
          cur.pos <- cur.pos + 1;
          if !current_def <> None then
            fail ~code:"cif-end-in-definition" (cur.pos - 1)
              "E inside a symbol definition";
          finished := true
      | '9' -> (
          cur.pos <- cur.pos + 1;
          match peek_char cur with
          | '4' ->
              cur.pos <- cur.pos + 1;
              let name = read_label_name cur in
              let position = read_point cur !current_def in
              let layer = try_read_word cur in
              expect_semi cur;
              add_element (Ast.Label { name; position; layer })
          | _ ->
              (* 9 name; — names the current symbol *)
              let name = read_label_name cur in
              expect_semi cur;
              (match !current_def with
              | Some d -> d.def_name <- Some name
              | None -> add_element (Ast.Comment_ext ("9 " ^ name))))
      | '0' .. '8' ->
          let text = read_to_semi cur in
          add_element (Ast.Comment_ext text)
      | c -> fail ~code:"cif-unknown-command" cur.pos "unknown command '%c'" c
    in
    (match collector with
    | None -> while not !finished do step () done
    | Some c ->
        while not !finished do
          try step ()
          with Perror { position; code; message } ->
            let stop = min (S.length src) (position + 1) in
            Collector.add c
              (Diag.error ~span:{ Diag.start = position; stop } ~code message);
            (match code with
            | "cif-end-in-definition" ->
                (* the designer forgot DF: close the definition and end *)
                (match !current_def with Some d -> commit_def d | None -> ());
                finished := true
            | "cif-missing-end" -> finished := true
            | "cif-unterminated-definition" ->
                (match !current_def with Some d -> commit_def d | None -> ());
                finished := true
            | _ -> resync cur);
            if Collector.saturated c && not !finished then begin
              Collector.add c
                (Diag.hint ~code:"too-many-errors"
                   "error cap reached: the rest of the input was not parsed");
              finished := true
            end
        done);
    { Ast.symbols = List.rev !symbols; top_level = List.rev !top }
end

module Of_string = Make (struct
  type t = string

  let length = String.length
  let get = String.get
  let sub = String.sub
end)

(* A read-only view of a memory-mapped file: the bytes stay in the page
   cache, nothing is copied onto the OCaml heap. *)
type bigstring =
  (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

module Of_bigstring = Make (struct
  type t = bigstring

  let length = Bigarray.Array1.dim

  (* The annotation matters: bound without its element kind,
     [Bigarray.Array1.get] compiles to a generic C call per byte instead of
     an inline load. *)
  let get (ba : t) i = Bigarray.Array1.get ba i

  let sub ba pos len =
    let b = Bytes.create len in
    for i = 0 to len - 1 do
      Bytes.unsafe_set b i (Bigarray.Array1.unsafe_get ba (pos + i))
    done;
    Bytes.unsafe_to_string b
end)

type input = In_memory of string | Mapped of bigstring

let input_of_string s = In_memory s
let input_is_mapped = function Mapped _ -> true | In_memory _ -> false

let input_length = function
  | In_memory s -> String.length s
  | Mapped ba -> Bigarray.Array1.dim ba

let input_to_string = function
  | In_memory s -> s
  | Mapped ba ->
      let n = Bigarray.Array1.dim ba in
      let b = Bytes.create n in
      for i = 0 to n - 1 do
        Bytes.unsafe_set b i (Bigarray.Array1.unsafe_get ba i)
      done;
      Bytes.unsafe_to_string b

let read_all_channel ic = In_memory (In_channel.input_all ic)

(* Open a CIF input for parsing.  Regular files are memory-mapped —
   zero-copy: the lexer's cursor walks the mapping directly.  Anything
   else (a pipe, a FIFO, stdin via /dev/fd, a device) cannot be mapped and
   falls back to draining the stream into a string.  The fd is closed on
   every exit path — [Fun.protect] below — and closing it immediately is
   safe: a POSIX mapping survives its descriptor, and the mapping itself
   is released when the bigarray is collected.  Failures surface as
   [Sys_error], exactly like [open_in_bin]. *)
let open_file path =
  let fd =
    try Unix.openfile path [ Unix.O_RDONLY ] 0
    with Unix.Unix_error (e, _, _) ->
      raise (Sys_error (path ^ ": " ^ Unix.error_message e))
  in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      try
        let st = Unix.fstat fd in
        if st.Unix.st_kind = Unix.S_REG && st.Unix.st_size > 0 then
          match
            Unix.map_file fd Bigarray.char Bigarray.c_layout false
              [| st.Unix.st_size |]
          with
          | genarray -> Mapped (Bigarray.array1_of_genarray genarray)
          | exception Unix.Unix_error _ ->
              (* exotic filesystems can refuse mmap; fall back to reading *)
              read_all_channel (Unix.in_channel_of_descr fd)
        else if st.Unix.st_kind = Unix.S_REG then In_memory ""
        else read_all_channel (Unix.in_channel_of_descr fd)
      with Unix.Unix_error (e, _, _) ->
        raise (Sys_error (path ^ ": " ^ Unix.error_message e)))

let parse_input input =
  Ace_trace.Trace.with_span "cif.parse" @@ fun () ->
  try
    match input with
    | In_memory s -> Of_string.parse s
    | Mapped ba -> Of_bigstring.parse ba
  with Perror { position; message; _ } -> raise (Error { position; message })

let parse_input_lenient ?max_errors input =
  Ace_trace.Trace.with_span "cif.parse" @@ fun () ->
  let collector = Collector.create ?max_errors () in
  let file =
    match input with
    | In_memory s -> Of_string.parse ~collector s
    | Mapped ba -> Of_bigstring.parse ~collector ba
  in
  (file, Collector.to_list collector)

let parse_string src = parse_input (In_memory src)
let parse_string_lenient ?max_errors src = parse_input_lenient ?max_errors (In_memory src)
let parse_file path = parse_input (open_file path)

let describe_error ~source ~position ~message =
  let line, col = Diag.line_col ~source position in
  Printf.sprintf "CIF parse error at line %d, column %d: %s" line col message
