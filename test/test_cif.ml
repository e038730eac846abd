open Ace_geom
open Ace_tech

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let parse = Ace_cif.Parser.parse_string
let design_of s = Ace_cif.Design.of_ast (parse s)

(* ------------------------------------------------------------------ *)
(* Parser                                                               *)
(* ------------------------------------------------------------------ *)

let test_parse_box () =
  let f = parse "L ND; B 4 2 10 20; E" in
  match f.Ace_cif.Ast.top_level with
  | [ Ace_cif.Ast.Shape { layer = "ND"; shape = Ace_cif.Ast.Box b } ] ->
      check_int "length" 4 b.length;
      check_int "width" 2 b.width;
      check "center" true (Point.equal b.center (Point.make 10 20));
      check "no direction" true (b.direction = None)
  | _ -> Alcotest.fail "unexpected AST"

let test_parse_box_direction () =
  let f = parse "L NP; B 4 2 0 0 0 -1; E" in
  match f.Ace_cif.Ast.top_level with
  | [ Ace_cif.Ast.Shape { shape = Ace_cif.Ast.Box b; _ } ] ->
      check "direction" true (b.direction = Some (Point.make 0 (-1)))
  | _ -> Alcotest.fail "unexpected AST"

let test_parse_polygon_wire_flash () =
  let f = parse "L NM; P 0 0 10 0 10 10; W 2 0 0 5 0; R 6 3 3; E" in
  check_int "three shapes" 3 (List.length f.Ace_cif.Ast.top_level)

let test_parse_separators () =
  (* CIF allows exotic blank characters and comma separators *)
  let f = parse "L ND;\n  B4 2 10,20;\n(a (nested) comment;) E" in
  check_int "one shape" 1 (List.length f.Ace_cif.Ast.top_level)

let test_parse_symbols () =
  let f = parse "DS 1; 9 cell; L ND; B 2 2 0 0; DF; C 1 T 10 0; E" in
  (match f.Ace_cif.Ast.symbols with
  | [ { Ace_cif.Ast.id = 1; name = Some "cell"; elements = [ _ ] } ] -> ()
  | _ -> Alcotest.fail "symbol not parsed");
  match f.Ace_cif.Ast.top_level with
  | [ Ace_cif.Ast.Call { symbol = 1; ops = [ Ace_cif.Ast.Translate (10, 0) ] } ]
    -> ()
  | _ -> Alcotest.fail "call not parsed"

let test_parse_scale () =
  (* DS 1 2 1: distances inside are doubled *)
  let f = parse "DS 1 2 1; L ND; B 2 2 5 5; DF; C 1; E" in
  match f.Ace_cif.Ast.symbols with
  | [ { Ace_cif.Ast.elements = [ Ace_cif.Ast.Shape { shape = Ace_cif.Ast.Box b; _ } ]; _ } ] ->
      check_int "scaled length" 4 b.length;
      check "scaled center" true (Point.equal b.center (Point.make 10 10))
  | _ -> Alcotest.fail "unexpected AST"

let test_parse_transform_chain () =
  let f = parse "DS 1; L ND; B 2 2 0 0; DF; C 1 M X T 4 0 R 0 1; E" in
  match f.Ace_cif.Ast.top_level with
  | [ Ace_cif.Ast.Call { ops; _ } ] ->
      check_int "three ops" 3 (List.length ops)
  | _ -> Alcotest.fail "unexpected AST"

let test_parse_label () =
  let f = parse "L NM; B 2 2 0 0; 94 VDD 0 0 NM; 94 foo -3 4; E" in
  let labels =
    List.filter_map
      (function
        | Ace_cif.Ast.Label { name; position; layer } ->
            Some (name, position, layer)
        | Ace_cif.Ast.Shape _ | Ace_cif.Ast.Call _ | Ace_cif.Ast.Comment_ext _ ->
            None)
      f.Ace_cif.Ast.top_level
  in
  check_int "two labels" 2 (List.length labels);
  match labels with
  | [ (_, _, layer_a); (_, pos_b, layer_b) ] ->
      check "named layer" true (layer_a = Some "NM");
      check "layerless" true (layer_b = None);
      check "negative coords" true (Point.equal pos_b (Point.make (-3) 4))
  | _ -> assert false

let test_parse_user_extension () =
  let f = parse "0 arbitrary user text 1 2 3; L ND; B 2 2 0 0; E" in
  check_int "kept verbatim" 2 (List.length f.Ace_cif.Ast.top_level)

let expect_parse_error src =
  match parse src with
  | exception Ace_cif.Parser.Error _ -> ()
  | _ -> Alcotest.failf "expected a parse error for %S" src

let test_parse_errors () =
  expect_parse_error "L ND; B 2 2 0; E";
  (* missing coordinate *)
  expect_parse_error "B 2 2 0 0; E";
  (* geometry before any layer *)
  expect_parse_error "DS 1; L ND; B 2 2 0 0; E";
  (* unterminated definition *)
  expect_parse_error "DF; E";
  (* DF without DS *)
  expect_parse_error "L ND; B 2 2 0 0;";
  (* missing E *)
  expect_parse_error "Q 1 2; E";
  (* unknown command *)
  expect_parse_error "(unterminated comment E"

let contains_substring hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let test_describe_error () =
  let src = "L ND;\nB 2 2 0;\nE" in
  match parse src with
  | exception Ace_cif.Parser.Error { position; message } ->
      let d = Ace_cif.Parser.describe_error ~source:src ~position ~message in
      check "mentions line 2" true (contains_substring d "line 2")
  | _ -> Alcotest.fail "expected error"

(* ------------------------------------------------------------------ *)
(* Writer round-trip                                                    *)
(* ------------------------------------------------------------------ *)

let prop_roundtrip =
  Tutil.qtest ~count:200 "writer/parser round-trip" Tutil.gen_design
    (fun file ->
      let text = Ace_cif.Writer.to_string file in
      let file' = parse text in
      file = file')

let test_roundtrip_labels () =
  let src = "DS 1; L ND; B 2 2 0 0; 94 OUT 1 1 ND; DF; C 1 T 4 4; 94 IN 0 0; E" in
  let f = parse src in
  let f' = parse (Ace_cif.Writer.to_string f) in
  check "stable" true (f = f')

(* ------------------------------------------------------------------ *)
(* Design semantic checks                                               *)
(* ------------------------------------------------------------------ *)

let expect_semantic_error src =
  match design_of src with
  | exception Ace_cif.Design.Semantic_error _ -> ()
  | _ -> Alcotest.failf "expected a semantic error for %S" src

let test_semantic_errors () =
  expect_semantic_error "L XX; B 2 2 0 0; E";
  (* unknown layer *)
  expect_semantic_error "C 7; E";
  (* undefined symbol *)
  expect_semantic_error "DS 1; C 1; DF; C 1; E";
  (* recursion *)
  expect_semantic_error "DS 1; L ND; B 2 2 0 0; DF; DS 1; DF; C 1; E";
  (* duplicate definition *)
  expect_semantic_error "DS 1; L ND; B 2 2 0 0; DF; C 1 R 1 1; E"
(* 45-degree rotation: rejected when the transform is evaluated *)

let test_mutual_recursion () =
  (* DD lets mutually-referencing text parse; of_ast must still reject *)
  match
    Ace_cif.Design.of_ast
      {
        Ace_cif.Ast.symbols =
          [
            { Ace_cif.Ast.id = 1; name = None;
              elements = [ Ace_cif.Ast.Call { symbol = 2; ops = [] } ] };
            { Ace_cif.Ast.id = 2; name = None;
              elements = [ Ace_cif.Ast.Call { symbol = 1; ops = [] } ] };
          ];
        top_level = [ Ace_cif.Ast.Call { symbol = 1; ops = [] } ];
      }
  with
  | exception Ace_cif.Design.Semantic_error _ -> ()
  | _ -> Alcotest.fail "mutual recursion not detected"

let test_bbox_and_counts () =
  let d =
    design_of
      "DS 1; L ND; B 4 4 0 0; B 2 2 10 10; DF; DS 2; C 1; C 1 T 20 0; DF; C 2; C 2 T 0 40; E"
  in
  check_int "boxes = 2 per cell x 2 cells x 2 arrays" 8
    (Ace_cif.Design.count_boxes d);
  check_int "instances" 6 (Ace_cif.Design.count_instances d);
  match Ace_cif.Design.bbox d with
  | Some bb ->
      check_int "bbox l" (-2) bb.Box.l;
      check_int "bbox r" 31 bb.Box.r
  | None -> Alcotest.fail "no bbox"

(* ------------------------------------------------------------------ *)
(* Flatten and Stream agreement                                         *)
(* ------------------------------------------------------------------ *)

let normalize boxes =
  List.sort Stdlib.compare
    (List.map (fun (lyr, bx) -> (Layer.index lyr, bx)) boxes)

let prop_stream_matches_flatten =
  Tutil.qtest ~count:200 "lazy stream yields exactly the flattened geometry"
    Tutil.gen_design
    (fun file ->
      match Ace_cif.Design.of_ast file with
      | exception Ace_cif.Design.Semantic_error _ -> true (* skip *)
      | design ->
          let flat = Ace_cif.Flatten.flatten design in
          let streamed = Ace_cif.Stream.drain (Ace_cif.Stream.create design) in
          normalize flat = normalize streamed)

let prop_stream_sorted =
  Tutil.qtest ~count:100 "stream stops are strictly descending" Tutil.gen_design
    (fun file ->
      match Ace_cif.Design.of_ast file with
      | exception Ace_cif.Design.Semantic_error _ -> true
      | design ->
          let stream = Ace_cif.Stream.create design in
          let rec go last =
            match Ace_cif.Stream.peek_top stream with
            | None -> true
            | Some y ->
                let boxes = Ace_cif.Stream.pop_at stream y in
                List.for_all (fun (_, (b : Box.t)) -> b.t = y) boxes
                && (match last with None -> true | Some prev -> y < prev)
                && go (Some y)
          in
          go None)

let test_stream_lazy_expansion () =
  (* a symbol placed far below another is only expanded when reached *)
  let d =
    design_of
      "DS 1; L ND; B 2 2 0 0; DF; C 1; C 1 T 0 -1000; E"
  in
  let stream = Ace_cif.Stream.create d in
  (match Ace_cif.Stream.peek_top stream with
  | Some y -> check_int "first stop" 1 y
  | None -> Alcotest.fail "empty stream");
  ignore (Ace_cif.Stream.pop_at stream 1);
  check_int "only the reachable instance expanded so far" 1
    (Ace_cif.Stream.expansions stream);
  ignore (Ace_cif.Stream.drain stream);
  check_int "both expanded at the end" 2 (Ace_cif.Stream.expansions stream)

let test_layer_of_index () =
  (* the stream keeps layers as their index and maps them back at pop *)
  List.iter
    (fun l ->
      check (Layer.to_cif_name l) true (Layer.of_index (Layer.index l) = l))
    Layer.all;
  check_int "every layer" Layer.count (List.length Layer.all)

let test_labels_transformed () =
  let d =
    design_of "DS 1; L ND; B 2 2 0 0; 94 A 1 2 ND; DF; C 1 T 10 20; C 1 M X; E"
  in
  let labels = Ace_cif.Design.labels d in
  check_int "two instances of the label" 2 (List.length labels);
  let positions = List.map (fun (l : Ace_cif.Design.label) -> l.position) labels in
  check "translated" true (List.exists (Point.equal (Point.make 11 22)) positions);
  check "mirrored" true (List.exists (Point.equal (Point.make (-1) 2)) positions)

let test_dd_command () =
  (* DD n deletes definitions numbered >= n *)
  let f = parse "DS 1; L ND; B 2 2 0 0; DF; DS 5; L NP; B 2 2 0 0; DF; DD 5; C 1; E" in
  check_int "one symbol survives" 1 (List.length f.Ace_cif.Ast.symbols)

let test_comment_everywhere () =
  let f =
    parse "(header); L ND; (mid) B 2 2 (inline (nested)) 0 0; (tail) E"
  in
  check_int "one shape" 1 (List.length f.Ace_cif.Ast.top_level)

let test_call_without_transform () =
  let f = parse "DS 1; L ND; B 2 2 0 0; DF; C 1; E" in
  match f.Ace_cif.Ast.top_level with
  | [ Ace_cif.Ast.Call { ops = []; _ } ] -> ()
  | _ -> Alcotest.fail "expected a bare call"

let test_negative_everything () =
  let d = design_of "L ND; B 4 2 -10 -20; E" in
  match Ace_cif.Design.bbox d with
  | Some bb ->
      check_int "l" (-12) bb.Box.l;
      check_int "b" (-21) bb.Box.b
  | None -> Alcotest.fail "no bbox"

let test_stats () =
  let d = design_of "DS 1; L ND; B 4 2 2 1; L NP; B 2 6 5 1; DF; C 1; C 1 T 20 0; E" in
  let s = Ace_cif.Stats.of_design d in
  check_int "boxes" 4 s.Ace_cif.Stats.boxes;
  check_int "diffusion boxes" 2
    (List.assoc Layer.Diffusion s.Ace_cif.Stats.boxes_per_layer);
  check "mean width" true (abs_float (s.Ace_cif.Stats.mean_width -. 3.0) < 0.01);
  check_int "geometry area" (2 * (8 + 12)) s.Ace_cif.Stats.geometry_area;
  check_int "distinct tops" 2 s.Ace_cif.Stats.distinct_tops

let test_stats_empty () =
  let d = design_of "E" in
  let s = Ace_cif.Stats.of_design d in
  check_int "no boxes" 0 s.Ace_cif.Stats.boxes;
  check "zero density" true (s.Ace_cif.Stats.density = 0.0)

let test_sample_corpus () =
  (* the data/ corpus: parses, extracts, and HEXT agrees with ACE *)
  let dir =
    (* cwd differs between `dune runtest` (the build test dir) and
       `dune exec` (the project root) *)
    List.find Sys.file_exists [ "../data"; "data"; "_build/default/data" ]
  in
  let files = Sys.readdir dir in
  let cifs =
    Array.to_list files
    |> List.filter (fun f ->
           Filename.check_suffix f ".cif"
           (* broken*.cif is the malformed-input corpus for the
              diagnostics tests; it does not parse strictly by design *)
           && not (String.starts_with ~prefix:"broken" f))
  in
  check "corpus present" true (List.length cifs >= 4);
  List.iter
    (fun f ->
      let path = Filename.concat dir f in
      let d =
        match Ace_cif.Parser.parse_file path with
        | ast -> Ace_cif.Design.of_ast ast
        | exception Ace_cif.Parser.Error _ ->
            Alcotest.failf "%s does not parse" f
      in
      let flat = Ace_core.Extractor.extract d in
      check (f ^ " extracts") true (Ace_netlist.Circuit.validate flat = []);
      let hc, _ = Ace_hext.Hext.extract_flat d in
      check (f ^ " hext agrees") true
        (Tutil.circuit_equal ~with_sizes:true flat hc))
    cifs

(* A flat extraction reports the boxes its unwindowed stream popped in
   place of [Design.count_boxes]'s walk of the hierarchy: the two counts
   must agree on every layout under data/, broken ones included. *)
let test_popped_boxes_counted () =
  let dir =
    List.find Sys.file_exists [ "../data"; "data"; "_build/default/data" ]
  in
  let cifs d =
    Sys.readdir d |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".cif")
    |> List.map (Filename.concat d)
  in
  let files = cifs dir @ cifs (Filename.concat dir "regress") in
  check "corpus present" true (List.length files >= 10);
  List.iter
    (fun path ->
      let ast, _ =
        Ace_cif.Parser.parse_string_lenient
          (In_channel.with_open_bin path In_channel.input_all)
      in
      let design, _ = Ace_cif.Design.of_ast_lenient ast in
      let expected = Ace_cif.Design.count_boxes design in
      let stream = Ace_cif.Stream.create design in
      ignore (Ace_cif.Stream.drain stream);
      check_int (path ^ ": drained stream") expected
        (Ace_cif.Stream.boxes_popped stream);
      let _, stats = Ace_core.Extractor.extract_with_stats design in
      check_int (path ^ ": extraction stats") expected
        stats.Ace_core.Extractor.boxes)
    files

(* ------------------------------------------------------------------ *)
(* mmap lexer path                                                      *)
(* ------------------------------------------------------------------ *)

let data_dir () =
  List.find Sys.file_exists [ "../data"; "data"; "_build/default/data" ]

let slurp path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Every data/*.cif — including the broken corpus — must produce the same
   AST and the same diagnostics through the zero-copy mapped path as
   through the in-memory string path, strict and lenient. *)
let test_mmap_corpus () =
  let dir = data_dir () in
  let cifs =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".cif")
  in
  check "corpus present" true (List.length cifs >= 5);
  List.iter
    (fun f ->
      let path = Filename.concat dir f in
      let text = slurp path in
      let input = Ace_cif.Parser.open_file path in
      check (f ^ " is mapped") true (Ace_cif.Parser.input_is_mapped input);
      check_int (f ^ " mapped length") (String.length text)
        (Ace_cif.Parser.input_length input);
      check (f ^ " materializes identically") true
        (Ace_cif.Parser.input_to_string input = text);
      let ast_m, diags_m = Ace_cif.Parser.parse_input_lenient input in
      let ast_s, diags_s = Ace_cif.Parser.parse_string_lenient text in
      check (f ^ " lenient AST equal") true (ast_m = ast_s);
      check (f ^ " lenient diags equal") true (diags_m = diags_s);
      let strict i =
        match Ace_cif.Parser.parse_input i with
        | ast -> Ok ast
        | exception Ace_cif.Parser.Error { position; message } ->
            Error (position, message)
      in
      check (f ^ " strict outcome equal") true
        (strict input = strict (Ace_cif.Parser.input_of_string text)))
    cifs

(* Parse errors must not leak the mapped file's descriptor: repeating the
   open/parse cycle well past the default fd limit only works if every
   exit path (including the error one) closes the fd. *)
let test_mmap_broken_no_leak () =
  let path = Filename.concat (data_dir ()) "broken.cif" in
  let text = slurp path in
  let expected =
    match Ace_cif.Parser.parse_string text with
    | _ -> Alcotest.fail "broken.cif parsed strictly?"
    | exception Ace_cif.Parser.Error { position; message } -> (position, message)
  in
  for _ = 1 to 2048 do
    match Ace_cif.Parser.parse_file path with
    | _ -> Alcotest.fail "broken.cif parsed strictly via mmap?"
    | exception Ace_cif.Parser.Error { position; message } ->
        if (position, message) <> expected then
          Alcotest.fail "mmap parse error differs from string parse error"
  done;
  (* the lenient mapped path reports the identical recovery diagnostics *)
  let _, diags_m = Ace_cif.Parser.parse_input_lenient (Ace_cif.Parser.open_file path) in
  let _, diags_s = Ace_cif.Parser.parse_string_lenient text in
  check "broken.cif lenient diags equal" true (diags_m = diags_s)

let test_mmap_edge_files () =
  (* empty regular file: not mapped, parses like "" *)
  let empty = Filename.temp_file "ace_mmap" ".cif" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove empty with Sys_error _ -> ())
    (fun () ->
      let input = Ace_cif.Parser.open_file empty in
      check "empty file not mapped" false (Ace_cif.Parser.input_is_mapped input);
      check_int "empty length" 0 (Ace_cif.Parser.input_length input);
      check "empty fails like empty string" true
        (match Ace_cif.Parser.parse_input input with
        | _ -> false
        | exception Ace_cif.Parser.Error _ -> true));
  (* missing file: Sys_error, same contract as open_in_bin *)
  check "missing file raises Sys_error" true
    (match Ace_cif.Parser.open_file "no/such/file.cif" with
    | _ -> false
    | exception Sys_error _ -> true)

(* ------------------------------------------------------------------ *)
(* Lexer boundaries, through both inputs                                *)
(* ------------------------------------------------------------------ *)

(* Parse [src] strictly and leniently from a string and from a mapped
   file; the two inputs must agree on the strict outcome, the lenient AST
   and the diagnostics.  Returns the string-input results. *)
let parse_both src =
  let path = Filename.temp_file "ace_lex" ".cif" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Out_channel.with_open_bin path (fun oc -> output_string oc src);
      let strict i =
        match Ace_cif.Parser.parse_input i with
        | ast -> Ok ast
        | exception Ace_cif.Parser.Error { position; message } ->
            Error (position, message)
      in
      let of_string = Ace_cif.Parser.input_of_string src in
      let mapped = Ace_cif.Parser.open_file path in
      check "input is mapped" true (Ace_cif.Parser.input_is_mapped mapped);
      let s = strict of_string in
      check "strict outcome equal" true (s = strict mapped);
      let ((ast, diags) as lenient) =
        Ace_cif.Parser.parse_input_lenient of_string
      in
      check "lenient AST and diagnostics equal" true
        (lenient = Ace_cif.Parser.parse_input_lenient mapped);
      (s, ast, diags))

let box_extents (f : Ace_cif.Ast.file) =
  List.filter_map
    (function
      | Ace_cif.Ast.Shape { shape = Ace_cif.Ast.Box b; _ } ->
          Some (b.length, b.width, b.center.Point.x, b.center.Point.y)
      | _ -> None)
    f.Ace_cif.Ast.top_level

let test_lex_max_int () =
  match parse_both "L ND; B 4611686018427387903 2 0 0; E" with
  | Ok f, _, [] ->
      check "max_int length" true (box_extents f = [ (max_int, 2, 0, 0) ])
  | _ -> Alcotest.fail "max_int did not parse"

let test_lex_overflow () =
  List.iter
    (fun literal ->
      let src = "L ND; B " ^ literal ^ " 2 0 0; E" in
      let digit = String.index src '4' in
      let message =
        Printf.sprintf "integer literal '%s' out of range" literal
      in
      match parse_both src with
      | Error (pos, m), _, [ d ] ->
          check_int (literal ^ ": at the first digit") digit pos;
          Alcotest.(check string) (literal ^ ": message") message m;
          Alcotest.(check string) "code" "cif-integer-overflow" d.code;
          check "span" true
            (d.span = Some { Ace_diag.Diag.start = digit; stop = digit + 1 })
      | _ -> Alcotest.failf "%s: expected one overflow error" literal)
    [ "4611686018427387904"; "-4611686018427387904" ]

let test_lex_leading_zeros () =
  match
    parse_both
      "L ND; B 0004 0002 -0006 00; B 000000000000000000004611686018427387903 \
       1 0 0; E"
  with
  | Ok f, _, [] ->
      check "values" true
        (box_extents f = [ (4, 2, -6, 0); (max_int, 1, 0, 0) ])
  | _ -> Alcotest.fail "leading zeros did not parse"

let test_lex_odd_blanks () =
  let plain = parse "L ND; B 2 2 0 0; E" in
  match parse_both "L\000ND;\x80B\xff2 2\0000\xc3\xa90;\x7f\x01E" with
  | Ok f, _, [] -> check "NUL and high bytes are blanks" true (f = plain)
  | _ -> Alcotest.fail "odd blanks rejected"

let test_lex_comments () =
  let plain = parse "L ND; B 2 2 0 0; E" in
  (match parse_both "(a (b (c)) d)L ND;(x(y))B 2 2(z) 0 0;((()))E" with
  | Ok f, _, [] -> check "nested comments are blanks" true (f = plain)
  | _ -> Alcotest.fail "nested comments rejected");
  (* a comment closing on the last byte: the lexer reaches the end *)
  let src = "L ND; B 2 2 0 0; (tail (nested))" in
  match parse_both src with
  | Error (pos, m), ast, [ d ] ->
      check_int "missing E at the end" (String.length src) pos;
      Alcotest.(check string) "message" "missing E (end) command" m;
      Alcotest.(check string) "code" "cif-missing-end" d.code;
      check "shape kept" true (box_extents ast = [ (2, 2, 0, 0) ])
  | _ -> Alcotest.fail "expected a missing-E error"

let test_lex_layer_digits () =
  match parse_both "L N2D; B 2 2 0 0; L 12; B 2 2 0 0; L ND;B 2 2 0 0; E" with
  | Ok f, _, [] ->
      check "layer names" true
        (List.map
           (function Ace_cif.Ast.Shape { layer; _ } -> layer | _ -> "?")
           f.Ace_cif.Ast.top_level
        = [ "N2D"; "12"; "ND" ])
  | _ -> Alcotest.fail "layer names with digits rejected"

let test_lex_many_layers () =
  (* far more distinct layer names than a parser would keep interned, each
     used twice, interleaved with the real ones *)
  let names = List.init 3000 (fun i -> Printf.sprintf "X%dQ" i) in
  let src =
    String.concat ""
      (List.map
         (fun n -> Printf.sprintf "L %s; B 2 2 0 0; L ND; B 2 2 0 0; L %s; B 2 2 0 0;" n n)
         names)
    ^ "E"
  in
  match parse_both src with
  | Ok f, _, [] ->
      let expected = List.concat_map (fun n -> [ n; "ND"; n ]) names in
      check "every layer name" true
        (List.map
           (function Ace_cif.Ast.Shape { layer; _ } -> layer | _ -> "?")
           f.Ace_cif.Ast.top_level
        = expected)
  | _ -> Alcotest.fail "many layers rejected"

let () =
  Alcotest.run "cif"
    [
      ( "parser",
        [
          Alcotest.test_case "box" `Quick test_parse_box;
          Alcotest.test_case "box direction" `Quick test_parse_box_direction;
          Alcotest.test_case "polygon wire flash" `Quick test_parse_polygon_wire_flash;
          Alcotest.test_case "separators and comments" `Quick test_parse_separators;
          Alcotest.test_case "symbols and calls" `Quick test_parse_symbols;
          Alcotest.test_case "DS scale" `Quick test_parse_scale;
          Alcotest.test_case "transform chain" `Quick test_parse_transform_chain;
          Alcotest.test_case "labels" `Quick test_parse_label;
          Alcotest.test_case "user extension" `Quick test_parse_user_extension;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "error description" `Quick test_describe_error;
        ] );
      ( "writer",
        [
          prop_roundtrip;
          Alcotest.test_case "labels round-trip" `Quick test_roundtrip_labels;
        ] );
      ( "design",
        [
          Alcotest.test_case "semantic errors" `Quick test_semantic_errors;
          Alcotest.test_case "mutual recursion" `Quick test_mutual_recursion;
          Alcotest.test_case "bbox and counts" `Quick test_bbox_and_counts;
          Alcotest.test_case "labels transformed" `Quick test_labels_transformed;
        ] );
      ( "stream",
        [
          prop_stream_matches_flatten;
          prop_stream_sorted;
          Alcotest.test_case "lazy expansion" `Quick test_stream_lazy_expansion;
          Alcotest.test_case "layer index round trip" `Quick
            test_layer_of_index;
          Alcotest.test_case "popped boxes = count_boxes on data/" `Quick
            test_popped_boxes_counted;
        ] );
      ( "stats",
        [
          Alcotest.test_case "counts" `Quick test_stats;
          Alcotest.test_case "empty design" `Quick test_stats_empty;
        ] );
      ( "corpus",
        [ Alcotest.test_case "sample files" `Quick test_sample_corpus ] );
      ( "mmap",
        [
          Alcotest.test_case "corpus equivalence" `Quick test_mmap_corpus;
          Alcotest.test_case "broken.cif: errors + no fd leak" `Quick
            test_mmap_broken_no_leak;
          Alcotest.test_case "empty and missing files" `Quick
            test_mmap_edge_files;
        ] );
      ( "edge-cases",
        [
          Alcotest.test_case "DD command" `Quick test_dd_command;
          Alcotest.test_case "comments everywhere" `Quick test_comment_everywhere;
          Alcotest.test_case "bare call" `Quick test_call_without_transform;
          Alcotest.test_case "negative coordinates" `Quick test_negative_everything;
        ] );
      ( "lexer",
        [
          Alcotest.test_case "max_int literal" `Quick test_lex_max_int;
          Alcotest.test_case "overflow at the first digit" `Quick
            test_lex_overflow;
          Alcotest.test_case "leading zeros" `Quick test_lex_leading_zeros;
          Alcotest.test_case "NUL and high bytes are blanks" `Quick
            test_lex_odd_blanks;
          Alcotest.test_case "nested and trailing comments" `Quick
            test_lex_comments;
          Alcotest.test_case "layer names with digits" `Quick
            test_lex_layer_digits;
          Alcotest.test_case "many distinct layer names" `Quick
            test_lex_many_layers;
        ] );
    ]
