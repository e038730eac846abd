(* cif_scale — an at-scale golden for the CIF front end.

   The parser and the lazy stream decide every byte the extractor later
   writes, but the per-layout goldens only see a few hundred commands.
   This program feeds the front end the seven paper chips at scale 0.1
   and every layout under data/ and data/regress/, each through both
   parser inputs (an in-memory string and a file opened with
   [Parser.open_file], which memory-maps it), and prints:

   - the digest of the CIF the strict and the lenient parser's ASTs write
     back, or the strict error;
   - every lenient diagnostic (parse and semantic) with its code, span and
     message;
   - the digest of the stream's pop sequence (top, layer, l, b, r, t) over
     the whole design and over each tile of a 4x2 grid, with the number
     of expansions and the largest number of pending heap items seen
     between calls.

   The dune rule diffs the output against cif_scale.expected, so a
   changed AST, diagnostic, pop order or expansion count shows up as a
   diff. *)

open Ace_cif

let md5 s = Digest.to_hex (Digest.string s)

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let span_to_string = function
  | None -> "-"
  | Some { Ace_diag.Diag.start; stop } -> Printf.sprintf "%d-%d" start stop

let diag_line (d : Ace_diag.Diag.t) =
  Printf.sprintf "%s %s %s %s"
    (Ace_diag.Diag.severity_to_string d.severity)
    d.code (span_to_string d.span) d.message

(* Strict and lenient parse of one input, rendered as the lines to print
   (minus the input's name, so the two inputs can be compared). *)
let front_end input =
  let strict =
    match Parser.parse_input input with
    | exception Parser.Error { position; message } ->
        Printf.sprintf "strict=error@%d %S" position message
    | ast -> (
        let digest = md5 (Writer.to_string ast) in
        match Design.of_ast ast with
        | exception Design.Semantic_error m ->
            Printf.sprintf "strict=%s semantic-error %S" digest m
        | (_ : Design.t) -> Printf.sprintf "strict=%s" digest)
  in
  let ast, pdiags = Parser.parse_input_lenient input in
  let design, sdiags = Design.of_ast_lenient ast in
  let lines =
    Printf.sprintf "%s lenient=%s" strict (md5 (Writer.to_string ast))
    :: List.map diag_line (pdiags @ sdiags)
  in
  (lines, design)

(* Drain a stream the way the engine does (peek, then pop at that top),
   recording every popped box and the heap's largest resident size. *)
let stream_line label ?window design =
  let s = Stream.create ?window design in
  let buf = Buffer.create 4096 in
  let boxes = ref 0 in
  let max_pending = ref (Stream.pending s) in
  let note () = max_pending := max !max_pending (Stream.pending s) in
  let rec go () =
    match Stream.peek_top s with
    | None -> ()
    | Some y ->
        note ();
        List.iter
          (fun (lyr, (bx : Ace_geom.Box.t)) ->
            incr boxes;
            Printf.bprintf buf "%d %d %d %d %d %d\n" y
              (Ace_tech.Layer.index lyr) bx.l bx.b bx.r bx.t)
          (Stream.pop_at s y);
        note ();
        go ()
  in
  go ();
  Printf.printf "%s %s boxes=%d expansions=%d max_pending=%d\n" label
    (md5 (Buffer.contents buf))
    !boxes (Stream.expansions s) !max_pending

let layout name ~text ~path =
  Printf.printf "== %s ==\n" name;
  let lines, design = front_end (Parser.input_of_string text) in
  let mapped_lines, _ = front_end (Parser.open_file path) in
  List.iter print_endline lines;
  print_endline
    (if mapped_lines = lines then "open_file=same"
     else String.concat "\n" ("open_file=DIFFERS" :: mapped_lines));
  stream_line "stream" design;
  match Design.bbox design with
  | None -> ()
  | Some bb ->
      let grid = Ace_core.Parallel.tile_windows ~cols:4 ~rows:2 bb in
      Array.iteri
        (fun c column ->
          Array.iteri
            (fun r window ->
              stream_line (Printf.sprintf "tile %d.%d" c r) ~window design)
            column)
        grid

let chip (r : Ace_workloads.Chips.recipe) =
  let text = Writer.to_string (Design.ast (r.build ~scale:0.1)) in
  let path = Filename.temp_file "cif_scale" ".cif" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc -> output_string oc text);
      layout (r.chip_name ^ "@0.1") ~text ~path)

let data_dir sub =
  let dir = Filename.concat "../data" sub in
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".cif")
  |> List.sort compare
  |> List.iter (fun f ->
         let path = Filename.concat dir f in
         let name = Filename.concat (Filename.concat "data" sub) f in
         layout name ~text:(read_file path) ~path)

let () =
  List.iter chip Ace_workloads.Chips.paper_suite;
  data_dir "";
  data_dir "regress"
