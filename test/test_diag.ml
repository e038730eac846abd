(* Malformed-input behavior of the CIF front-end: structured diagnostics,
   parser recovery, lenient semantic checking, and the strict-vs-lenient
   agreement property. *)

module Diag = Ace_diag.Diag
module Collector = Ace_diag.Collector
module Parser = Ace_cif.Parser
module Design = Ace_cif.Design

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let codes diags = List.map (fun (d : Diag.t) -> d.code) diags
let has_code c diags = List.mem c (codes diags)
let errors diags = List.filter Diag.is_error diags

let lenient = Parser.parse_string_lenient
let strict_ok s = match Parser.parse_string s with _ -> true | exception Parser.Error _ -> false

(* ------------------------------------------------------------------ *)
(* Diag / Collector                                                     *)
(* ------------------------------------------------------------------ *)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let test_diag_text () =
  let src = "L ND;\nB 2 2 0;\nE" in
  let d = Diag.error ~span:{ Diag.start = 12; stop = 13 } ~code:"x-test" "boom" in
  let s = Diag.to_string ~source:src d in
  check "has severity and code" true (contains s "error[x-test]");
  check "has line 2" true (contains s "line 2");
  check "has caret" true (contains s "^");
  check "has source line" true (contains s "B 2 2 0;")

let test_diag_json () =
  let d =
    Diag.warning ~span:{ Diag.start = 3; stop = 4 } ~code:"x-json"
      "say \"hi\"\n"
  in
  let j = Diag.to_json ~source:"abc def" d in
  check_string "json"
    "{\"severity\":\"warning\",\"code\":\"x-json\",\"message\":\"say \\\"hi\\\"\\n\",\"start\":3,\"end\":4,\"line\":1,\"column\":4}"
    j

let test_diag_severity () =
  check "max severity" true
    (Diag.max_severity
       [ Diag.hint ~code:"a" "h"; Diag.warning ~code:"b" "w" ]
    = Some Diag.Warning);
  check "empty" true (Diag.max_severity [] = None)

let test_collector_cap () =
  let c = Collector.create ~max_errors:3 () in
  for i = 1 to 10 do
    Collector.add c (Diag.error ~code:"e" (string_of_int i))
  done;
  Collector.add c (Diag.warning ~code:"w" "kept");
  check "saturated" true (Collector.saturated c);
  check_int "errors capped" 3 (Collector.error_count c);
  let l = Collector.to_list c in
  (* 3 errors + 1 warning + trailing too-many-errors hint *)
  check_int "list length" 5 (List.length l);
  check "hint last" true
    (match List.rev l with
    | last :: _ -> last.Diag.code = "too-many-errors"
    | [] -> false)

(* ------------------------------------------------------------------ *)
(* Parser recovery                                                      *)
(* ------------------------------------------------------------------ *)

let test_unterminated_comment () =
  let ast, diags = lenient "L ND; B 2 2 0 0; (oops E" in
  check "diagnosed" true (has_code "cif-unterminated-comment" diags);
  check "missing end too" true (has_code "cif-missing-end" diags);
  check_int "box survived" 1 (List.length ast.Ace_cif.Ast.top_level)

let test_truncated_command () =
  let ast, diags = lenient "L ND; B 2 2 0; B 4 4 1 1; E" in
  check "diagnosed" true (has_code "cif-expected-integer" diags);
  (* the malformed box is dropped, the following one survives *)
  check_int "one box" 1 (List.length ast.Ace_cif.Ast.top_level)

let test_multiple_errors_one_run () =
  let _, diags = lenient "Q; L ND; B 2 2 0; W Q 1 1; B 2 2 0 0; E" in
  check_int "three errors" 3 (List.length (errors diags));
  check "unknown command" true (has_code "cif-unknown-command" diags);
  check "expected integer" true (has_code "cif-expected-integer" diags)

let test_integer_overflow_regression () =
  (* a huge literal used to escape as a bare [Failure _] from
     [int_of_string]; it must be a positioned parse error in strict mode
     and a diagnostic in lenient mode *)
  let src = "L ND; B 99999999999999999999 2 0 0; E" in
  (match Parser.parse_string src with
  | exception Parser.Error { message; _ } ->
      check "mentions range" true (contains message "out of range")
  | exception e ->
      Alcotest.failf "expected Parser.Error, got %s" (Printexc.to_string e)
  | _ -> Alcotest.fail "expected an error");
  let _, diags = lenient src in
  check "lenient code" true (has_code "cif-integer-overflow" diags)

(* Lenient parse through both inputs (a string and a mapped file); the
   two must agree on the AST and the diagnostics. *)
let lenient_both src =
  let path = Filename.temp_file "ace_diag" ".cif" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Out_channel.with_open_bin path (fun oc -> output_string oc src);
      let r = lenient src in
      check "mapped input agrees" true
        (Parser.parse_input_lenient (Parser.open_file path) = r);
      r)

let test_lexer_boundaries () =
  (* an overflowing literal is one diagnostic at its first digit, and the
     parser resumes at the next command *)
  List.iter
    (fun literal ->
      let src = "L ND; B " ^ literal ^ " 2 0 0; B 2 2 0 0; E" in
      let digit = if literal.[0] = '-' then 9 else 8 in
      let ast, diags = lenient_both src in
      check_int (literal ^ ": one diagnostic") 1 (List.length diags);
      let d = List.hd diags in
      check_string "code" "cif-integer-overflow" d.code;
      check "at the first digit" true
        (d.span = Some { Diag.start = digit; stop = digit + 1 });
      check_string "message"
        (Printf.sprintf "integer literal '%s' out of range" literal)
        d.message;
      check_int "next box kept" 1 (List.length ast.Ace_cif.Ast.top_level))
    [ "4611686018427387904"; "-4611686018427387904"; "99999999999999999999" ];
  (* max_int, leading zeros, NUL and high bytes: no diagnostics *)
  List.iter
    (fun src ->
      let _, diags = lenient_both src in
      check (String.escaped src ^ ": clean") true (diags = []))
    [
      "L ND; B 4611686018427387903 0004 -0 0; E";
      "L\000ND;\x80B\xff2 2\0000\xc3\xa90;\x7f\x01E";
      "(a (b) c)L ND;(x(y(z)))B 2 2 0 0;(()) E";
    ];
  (* a comment closing on the last byte: the only problem is the missing E *)
  let src = "L ND; B 2 2 0 0; (tail (nested))" in
  let _, diags = lenient_both src in
  check "missing E only" true (codes diags = [ "cif-missing-end" ]);
  (* layer names with digits survive to the semantic check verbatim, as do
     many distinct names *)
  let names = List.init 300 (fun i -> Printf.sprintf "N%dD" i) in
  let src =
    String.concat ""
      (List.map (fun n -> Printf.sprintf "L %s; B 2 2 0 0; L ND; B 2 2 0 0;" n) names)
    ^ "E"
  in
  let ast, pdiags = lenient_both src in
  check "parse clean" true (pdiags = []);
  let _, sdiags = Design.of_ast_lenient ~max_errors:1000 ast in
  check "one unknown-layer diagnostic per name" true
    (List.map (fun (d : Diag.t) -> d.message) sdiags
    = List.map
        (fun n ->
          Printf.sprintf
            "top level: unknown layer name %S (NMOS layers are ND NP NC NM NI \
             NB NG)"
            n)
        names)

let test_resync_at_df () =
  (* the error inside the definition must not swallow the DF *)
  let ast, diags = lenient "DS 1; L ND; B 2 2 Q Q; DF; C 1; E" in
  check "has error" true (errors diags <> []);
  check_int "symbol committed" 1 (List.length ast.Ace_cif.Ast.symbols)

let test_end_inside_definition () =
  let ast, diags = lenient "DS 1; L ND; B 2 2 0 0; E" in
  check "diagnosed" true (has_code "cif-end-in-definition" diags);
  check_int "symbol committed" 1 (List.length ast.Ace_cif.Ast.symbols)

let test_unterminated_definition () =
  let ast, diags = lenient "DS 1; L ND; B 2 2 0 0;" in
  check "diagnosed" true (has_code "cif-unterminated-definition" diags);
  check_int "symbol committed" 1 (List.length ast.Ace_cif.Ast.symbols)

let test_max_errors_cap () =
  let soup = String.concat "" (List.init 50 (fun _ -> "Q; ")) ^ "E" in
  let _, diags = lenient ~max_errors:5 soup in
  check_int "five errors" 5 (List.length (errors diags));
  check "hint" true (has_code "too-many-errors" diags)

let test_lenient_never_raises_on_garbage () =
  List.iter
    (fun s ->
      match lenient s with
      | (_ : Ace_cif.Ast.file * Diag.t list) -> ()
      | exception e ->
          Alcotest.failf "lenient raised %s on %S" (Printexc.to_string e) s)
    [
      ""; ";"; "("; ")"; "D"; "DS"; "DF"; "DD"; "9"; "94"; "E in garbage";
      "L;"; "C;"; "B;"; "W;"; "R;"; "P;"; "M X;"; "-"; "--1"; "\x00\xff";
      "DS 0 0 0;"; "94 x 1;"; "9;"; "((((((";
      "DS 1; DS 2; DF; E"; "B 1 1 1 1; E";
    ]

(* ------------------------------------------------------------------ *)
(* Lenient semantic checking                                            *)
(* ------------------------------------------------------------------ *)

let design_lenient s =
  let ast, pdiags = lenient s in
  let d, sdiags = Design.of_ast_lenient ast in
  (d, pdiags @ sdiags)

let test_unknown_layer () =
  let d, diags = design_lenient "L ZZ; B 2 2 0 0; L ND; B 4 4 0 0; E" in
  check "diagnosed" true (has_code "sem-unknown-layer" diags);
  (* the ZZ shape is dropped, the ND shape survives *)
  check_int "one box" 1 (Design.count_boxes d)

let test_undefined_symbol_call () =
  let d, diags = design_lenient "L ND; B 2 2 0 0; C 7; E" in
  check "diagnosed" true (has_code "sem-undefined-symbol" diags);
  check_int "call dropped" 0 (Design.count_instances d)

let test_recursive_symbols () =
  let d, diags =
    design_lenient "DS 1; L ND; B 2 2 0 0; C 2; DF; DS 2; C 1; DF; C 1; E"
  in
  check "diagnosed" true (has_code "sem-recursive-symbol" diags);
  (* the cycle is broken but symbol 1's geometry is still reachable *)
  check_int "one box" 1 (Design.count_boxes d)

let test_self_recursion () =
  let _, diags = design_lenient "DS 1; C 1; DF; C 1; E" in
  check "diagnosed" true (has_code "sem-recursive-symbol" diags)

let test_duplicate_symbol () =
  let d, diags =
    design_lenient
      "DS 1; L ND; B 2 2 0 0; DF; DS 1; L ND; B 4 4 0 0; B 6 6 9 9; DF; C 1; E"
  in
  check "diagnosed" true (has_code "sem-duplicate-symbol" diags);
  (* first definition wins, as documented *)
  check_int "one box" 1 (Design.count_boxes d)

let test_degenerate_box () =
  let _, diags = design_lenient "L ND; B 0 2 0 0; E" in
  check "warned" true (has_code "sem-degenerate-box" diags);
  check "not an error" true (errors diags = [])

let test_degenerate_wire_and_flash () =
  (* found by the fuzz harness: zero-width wires pass of_ast but raise
     Invalid_argument deep in the box decomposer; the lenient design must
     drop them so extraction stays total *)
  let d, diags = design_lenient "L ND; W 0 0 0 10 0; R -4 5 5; B 2 2 0 0 0 0; E" in
  check "warned" true (has_code "sem-degenerate-box" diags);
  check "not an error" true (errors diags = []);
  check_int "all dropped" 0 (Design.count_boxes d);
  let circuit = Ace_core.Extractor.extract d in
  check "extraction total" true (Ace_netlist.Circuit.validate circuit = [])

let test_coordinate_overflow_guard () =
  let d, diags = design_lenient "L ND; B 2 2 2305843009213693951 0; E" in
  check "warned" true (has_code "sem-coordinate-overflow" diags);
  check_int "dropped" 0 (Design.count_boxes d);
  check "not an error" true (errors diags = [])

(* Coordinates whose arithmetic used to wrap: a DS factor times a length,
   a scaled centre landing on [min_int] (whose [abs] is negative), and a
   top-level centre past the range that only the lenient path checked.
   Strict mode must fail with a parse or semantic error, never an
   [Invalid_argument] from the geometry; lenient mode must report a stable
   code and still extract. *)
let test_coordinate_wraparound () =
  List.iter
    (fun (src, code) ->
      (match Design.of_ast (Parser.parse_string src) with
      | exception Parser.Error _ -> ()
      | exception Design.Semantic_error _ -> ()
      | exception e ->
          Alcotest.failf "%s: strict raised %s" src (Printexc.to_string e)
      | _ -> Alcotest.failf "%s: strict mode accepted it" src);
      let d, diags = design_lenient src in
      check (src ^ ": " ^ code) true (has_code code diags);
      let circuit = Ace_core.Extractor.extract d in
      check (src ^ ": extracts") true (Ace_netlist.Circuit.validate circuit = []);
      check_int (src ^ ": no device") 0
        (Array.length circuit.Ace_netlist.Circuit.devices))
    [
      ( "DS 1 3074457345618258603 1; L ND; B 3 3 0 0; L NP; B 3 3 0 0; DF; C 1; E",
        "cif-integer-overflow" );
      ("DS 1 2 1; L ND; B 3 3 2305843009213693952 0; DF; C 1; E", "cif-integer-overflow");
      ("L ND; B 4 4 4611686018427387902 0; E", "sem-coordinate-overflow");
    ]

let test_bad_rotation () =
  let _, diags = design_lenient "DS 1; L ND; B 2 2 0 0; DF; C 1 R 1 1; E" in
  check "diagnosed" true (has_code "sem-bad-rotation" diags)

let test_lenient_design_extracts () =
  (* a recovered design must survive the full extraction pipeline *)
  let dir = List.find Sys.file_exists [ "../data"; "data" ] in
  let ic = open_in_bin (Filename.concat dir "broken.cif") in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let ast, pdiags = lenient text in
  let design, sdiags = Design.of_ast_lenient ast in
  check "parse diagnostics" true (errors pdiags <> []);
  check "semantic diagnostics" true (errors sdiags <> []);
  let circuit = Ace_core.Extractor.extract design in
  check "valid circuit" true (Ace_netlist.Circuit.validate circuit = []);
  (* the surviving good geometry is present *)
  check "salvaged geometry" true (Design.count_boxes design > 0)

(* ------------------------------------------------------------------ *)
(* Strict-vs-lenient agreement                                          *)
(* ------------------------------------------------------------------ *)

let agree_on_clean_source name text =
  match Parser.parse_string text with
  | exception Parser.Error _ -> Alcotest.failf "%s does not parse" name
  | strict_ast ->
      let lenient_ast, diags = lenient text in
      check (name ^ ": no diagnostics") true (diags = []);
      check (name ^ ": same AST") true (strict_ast = lenient_ast);
      let strict_design = Design.of_ast strict_ast in
      let lenient_design, sdiags = Design.of_ast_lenient lenient_ast in
      check (name ^ ": no semantic diagnostics") true (sdiags = []);
      check (name ^ ": same boxes") true
        (Design.count_boxes strict_design = Design.count_boxes lenient_design);
      check (name ^ ": same bbox") true
        (Design.bbox strict_design = Design.bbox lenient_design);
      check (name ^ ": same instances") true
        (Design.count_instances strict_design
        = Design.count_instances lenient_design)

let test_agreement_corpus () =
  let dir = List.find Sys.file_exists [ "../data"; "data" ] in
  let cifs =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f ->
           Filename.check_suffix f ".cif"
           && not (String.starts_with ~prefix:"broken" f))
  in
  check "all four corpus files" true (List.length cifs >= 4);
  List.iter
    (fun f ->
      let ic = open_in_bin (Filename.concat dir f) in
      let text = really_input_string ic (in_channel_length ic) in
      close_in ic;
      agree_on_clean_source f text)
    cifs

let test_agreement_errors () =
  (* on malformed inputs: strict fails iff lenient reports an error *)
  List.iter
    (fun s ->
      let _, diags = lenient s in
      let lenient_errs = errors diags <> [] in
      check (Printf.sprintf "agree on %S" s) true (strict_ok s = not lenient_errs))
    [
      "L ND; B 2 2 0 0; E"; "E"; ""; "Q; E"; "L ND; B 2 2 0; E";
      "DS 1; DF; E"; "DF; E"; "(x; E"; "L ND; B 2 2 0 0;";
    ]

(* ------------------------------------------------------------------ *)
(* JSON escaping and the daemon's reply renderers                       *)
(* ------------------------------------------------------------------ *)

module Proto = Ace_serve.Proto

(* The per-character escaper and the [^]-chained renderers the buffered
   ones replaced: the output must stay byte-identical. *)
let escape_per_char s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let concat_str s = "\"" ^ escape_per_char s ^ "\""
let concat_arr xs = "[" ^ String.concat "," xs ^ "]"

let concat_obj fields =
  "{"
  ^ String.concat "," (List.map (fun (k, v) -> concat_str k ^ ":" ^ v) fields)
  ^ "}"

(* Strings rich in the characters that need escapes. *)
let gen_json_text =
  let open QCheck2.Gen in
  string_size
    ~gen:
      (frequency
         [
           (6, printable);
           (3, char_range '\000' '\031');
           (1, return '"');
           (1, return '\\');
           (1, char);
         ])
    (int_range 0 200)

let prop_str_escapes s =
  Proto.str s = "\"" ^ Diag.json_escape s ^ "\"" && Proto.str s = concat_str s

let prop_escape_into_appends (prefix, s) =
  let buf = Buffer.create 4 in
  Buffer.add_string buf prefix;
  Diag.json_escape_into buf s;
  Buffer.contents buf = prefix ^ escape_per_char s

let prop_arr_obj_unchanged kvs =
  let vs = List.map snd kvs in
  Proto.arr vs = concat_arr vs && Proto.obj kvs = concat_obj kvs

let test_render_edges () =
  check_string "empty arr" "[]" (Proto.arr []);
  check_string "empty obj" "{}" (Proto.obj []);
  check_string "nested" {|{"a":[1,"x\n"],"b\u0001":{}}|}
    (Proto.obj
       [
         ("a", Proto.arr [ Proto.int 1; Proto.str "x\n" ]);
         ("b\001", Proto.obj []);
       ])

(* The per-character string decoder [Json] used before it copied runs
   between escapes: the oracle for decoded values and for error messages
   with their byte positions.  It reads a document holding one string
   literal, as [Json.parse] does. *)
exception Oracle_error of string

let decode_per_char src =
  let n = String.length src in
  let pos = ref 0 in
  let fail msg =
    raise (Oracle_error (Printf.sprintf "%s at byte %d" msg !pos))
  in
  let b = Buffer.create 16 in
  let utf8_of_code code =
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
  in
  let rec loop () =
    if !pos >= n then fail "unterminated string";
    let c = src.[!pos] in
    incr pos;
    match c with
    | '"' -> Buffer.contents b
    | '\\' ->
        (if !pos >= n then fail "unterminated escape";
         let e = src.[!pos] in
         incr pos;
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
             if !pos + 4 > n then fail "short \\u";
             let hex = String.sub src !pos 4 in
             pos := !pos + 4;
             let code =
               try int_of_string ("0x" ^ hex) with _ -> fail "bad \\u escape"
             in
             utf8_of_code code
         | _ -> fail "bad escape");
        loop ()
    | c when Char.code c < 0x20 -> fail "control character in string"
    | c ->
        Buffer.add_char b c;
        loop ()
  in
  match
    if n = 0 || src.[0] <> '"' then fail "expected '\"'";
    incr pos;
    loop ()
  with
  | s ->
      while !pos < n && String.contains " \t\n\r" src.[!pos] do
        incr pos
      done;
      if !pos <> n then Error "trailing garbage" else Ok s
  | exception Oracle_error msg -> Error msg

let decode_runs src =
  match Ace_trace.Json.parse src with
  | Ok (Ace_trace.Json.Str s) -> Ok s
  | Ok _ -> Error "not a string"
  | Error msg -> Error msg

let show = function Ok s -> "Ok " ^ String.escaped s | Error m -> "Error " ^ m

let test_decode_cases () =
  let big = String.make 1_000_000 'x' in
  List.iter
    (fun src ->
      let name =
        if String.length src > 40 then
          String.escaped (String.sub src 0 40) ^ "..."
        else String.escaped src
      in
      Alcotest.(check string)
        name
        (show (decode_per_char src))
        (show (decode_runs src)))
    [
      {|"\" \\ \/ \b \f \n \r \t"|};
      {|"\u0041\u00e9\u20ac"|};
      {|"a\u0041b\u00E9c\u20ACd"|};
      "\"raw\001control\"";
      "\"tab\there\"";
      "\"new\nline\"";
      "\"\031\"";
      {|"unterminated|};
      {|"|};
      {|"unterminated escape\|};
      {|"short \u12"|};
      {|"short \u12|};
      {|"\u|};
      {|"bad \uzzzz"|};
      {|"bad \u-123"|};
      {|"underscored \u_123"|};
      {|"bad \q escape"|};
      {|""|};
      {|"" |};
      {|"a" x|};
      "\"caf\xc3\xa9 \xe2\x82\xac\"";
      "\"\\n" ^ big ^ "\\t\"";
      "\"\\\"" ^ big ^ "\\u20ac" ^ big ^ "\\\\\"";
      "\"" ^ big ^ "\\";
    ]

(* Random literals over the fragments the decoder branches on. *)
let gen_json_literal =
  let open QCheck2.Gen in
  let fragment =
    oneofl
      [
        "a"; "plain text "; "\""; "\\"; "\\\""; "\\\\"; "\\/"; "\\b"; "\\f";
        "\\n"; "\\r"; "\\t"; "\\u0041"; "\\u00e9"; "\\u20ac"; "\\u12";
        "\\uzz"; "\\q"; "\001"; "\n"; "\xc3\xa9"; " ";
      ]
  in
  map
    (fun fs -> "\"" ^ String.concat "" fs)
    (list_size (int_range 0 30) fragment)

let prop_decode_matches_oracle src = decode_per_char src = decode_runs src

(* The SWAR scanners against the byte loops they stand in front of, and
   [Proto.str], which escapes the runs they find, against the per-char
   escape.  Plain text with bytes >= 0x80 mixed in, then a few stop
   bytes ('"', '\\', '\n' and other control bytes) at random offsets;
   the last one falls in the final 7 bytes half the time, where no whole
   word is left.  The scan starts and stops anywhere inside the string. *)
let json_plain_end_bytes s i stop =
  let i = ref i in
  while
    !i < stop
    && (let c = s.[!i] in c <> '"' && c <> '\\' && Char.code c >= 0x20)
  do
    incr i
  done;
  !i

let newline_end_bytes s i stop =
  let i = ref i in
  while !i < stop && s.[!i] <> '\n' do
    incr i
  done;
  !i

let gen_scan_input =
  let open QCheck2.Gen in
  let plain =
    frequency
      [
        (8, map Char.chr (int_range 0x20 0x7f));
        (2, map Char.chr (int_range 0x80 0xff));
      ]
  in
  let stop_byte =
    oneof
      [
        oneofl [ '"'; '\\'; '\n'; '\t'; '\r'; '\000'; '\x1f' ];
        map Char.chr (int_range 0 0x1f);
      ]
  in
  let* n = int_range 0 70 in
  let* base = string_size ~gen:plain (return n) in
  let* stops = list_size (int_range 0 3) (pair (int_bound 1_000_000) stop_byte) in
  let* tail = opt (pair (int_range 1 7) stop_byte) in
  let b = Bytes.of_string base in
  if n > 0 then begin
    List.iter (fun (k, c) -> Bytes.set b (k mod n) c) stops;
    Option.iter (fun (k, c) -> if k <= n then Bytes.set b (n - k) c) tail
  end;
  let* i = int_range 0 n in
  let* stop = int_range i n in
  return (Bytes.to_string b, i, stop)

let prop_swar_scans (s, i, stop) =
  Proto.str s = concat_str s
  && Ace_trace.Swar.json_plain_end s i stop = json_plain_end_bytes s i stop
  && Ace_trace.Swar.newline_end s i stop = newline_end_bytes s i stop
  && Ace_trace.Swar.json_plain_end s 0 (String.length s)
     = json_plain_end_bytes s 0 (String.length s)
  && Ace_trace.Swar.newline_end s 0 (String.length s)
     = newline_end_bytes s 0 (String.length s)

let () =
  Alcotest.run "diag"
    [
      ( "json",
        [
          Tutil.qtest ~count:500 "Proto.str = quoted json_escape" gen_json_text
            prop_str_escapes;
          Tutil.qtest ~count:300 "json_escape_into appends the escape"
            QCheck2.Gen.(pair gen_json_text gen_json_text)
            prop_escape_into_appends;
          Tutil.qtest ~count:300 "arr and obj byte-identical to concat"
            QCheck2.Gen.(small_list (pair gen_json_text gen_json_text))
            prop_arr_obj_unchanged;
          Alcotest.test_case "render edge cases" `Quick test_render_edges;
          Alcotest.test_case "string decoder cases match per-char oracle"
            `Quick test_decode_cases;
          Tutil.qtest ~count:1000 "string decoder matches per-char oracle"
            gen_json_literal prop_decode_matches_oracle;
          Tutil.qtest ~count:3000 "SWAR scans return the byte loops' index"
            gen_scan_input prop_swar_scans;
        ] );
      ( "diag",
        [
          Alcotest.test_case "text rendering" `Quick test_diag_text;
          Alcotest.test_case "json rendering" `Quick test_diag_json;
          Alcotest.test_case "severity order" `Quick test_diag_severity;
          Alcotest.test_case "collector cap" `Quick test_collector_cap;
        ] );
      ( "parser-recovery",
        [
          Alcotest.test_case "unterminated comment" `Quick
            test_unterminated_comment;
          Alcotest.test_case "truncated command" `Quick test_truncated_command;
          Alcotest.test_case "multiple errors, one run" `Quick
            test_multiple_errors_one_run;
          Alcotest.test_case "integer overflow (regression)" `Quick
            test_integer_overflow_regression;
          Alcotest.test_case "lexer boundaries, both inputs" `Quick
            test_lexer_boundaries;
          Alcotest.test_case "resync at DF" `Quick test_resync_at_df;
          Alcotest.test_case "E inside definition" `Quick
            test_end_inside_definition;
          Alcotest.test_case "unterminated definition" `Quick
            test_unterminated_definition;
          Alcotest.test_case "max-errors cap" `Quick test_max_errors_cap;
          Alcotest.test_case "never raises on garbage" `Quick
            test_lenient_never_raises_on_garbage;
        ] );
      ( "lenient-design",
        [
          Alcotest.test_case "unknown layer" `Quick test_unknown_layer;
          Alcotest.test_case "undefined symbol" `Quick
            test_undefined_symbol_call;
          Alcotest.test_case "recursive symbols" `Quick test_recursive_symbols;
          Alcotest.test_case "self recursion" `Quick test_self_recursion;
          Alcotest.test_case "duplicate symbol" `Quick test_duplicate_symbol;
          Alcotest.test_case "degenerate box" `Quick test_degenerate_box;
          Alcotest.test_case "degenerate wire and flash" `Quick
            test_degenerate_wire_and_flash;
          Alcotest.test_case "coordinate overflow" `Quick
            test_coordinate_overflow_guard;
          Alcotest.test_case "coordinate wraparound" `Quick
            test_coordinate_wraparound;
          Alcotest.test_case "bad rotation" `Quick test_bad_rotation;
          Alcotest.test_case "broken.cif extracts" `Quick
            test_lenient_design_extracts;
        ] );
      ( "agreement",
        [
          Alcotest.test_case "clean corpus" `Quick test_agreement_corpus;
          Alcotest.test_case "malformed snippets" `Quick test_agreement_errors;
        ] );
    ]
