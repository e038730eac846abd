(* fuzz_cif — deterministic never-crash fuzzing of the lenient CIF
   front-end.

   No external fuzzing dependency: a seeded [Random.State] drives
   byte-level mutations of the data/ corpus plus generated random command
   soup.  Two properties are asserted on every input:

   1. totality — [Parser.parse_string_lenient] and
      [Design.of_ast_lenient] never raise;
   2. agreement — strict parsing succeeds exactly when the lenient run
      reports no Error-severity diagnostic, and on success both front
      ends produce the same AST (likewise for the semantic phase);
   3. lint totality — on every input small enough to extract, the full
      Ace_lint rule battery runs over the extracted circuit without
      raising (extraction itself is allowed to fail on fuzz garbage);
   4. tracing transparency — re-running the front end and the extractor
      with a recording Ace_trace session yields byte-identical
      diagnostics and wirelists (hence identical exit codes), the
      strict/lenient agreement of (2) still holds, and the exported
      Chrome trace parses and balances;
   5. protocol totality — the aced daemon's request handler never raises
      and always returns one well-formed JSON reply, whether the fuzz
      input arrives as a raw protocol line or embedded as the CIF
      payload of an extract request;
   6. LVS closure — every extractable input self-compares clean: the
      extracted circuit, round-tripped through the SPICE writer and the
      lenient reference parser, must LVS-match itself (in both
      directions) whenever the round trip is unambiguous, and the
      reference parser itself must be total on raw fuzz lines;
   7. mmap/string lexer equality — every fuzz input, written to a real
      file and parsed through the zero-copy memory-mapped path, yields
      the identical AST, diagnostics and strict-mode error as the
      in-memory string path;
   8. hierarchical LVS agreement — the structural-Verilog reference
      parser is total on raw fuzz text, and on every input HEXT can
      extract hierarchically, the hierarchical comparator returns
      exactly the flat comparator's verdict;
   10. coordinate range — on generated designs whose DS factors, extents,
      centres and translations sit near ±2^61 (or just inside the 2^30
      coordinate limit), the strict front end ends in a parse or semantic
      error or in a design that extracts, and the lenient design always
      extracts: no arithmetic wraps into an [Invalid_argument] from the
      geometry;
   9. tiled-extraction identity — every extractable input, re-extracted
      through the tiled parallel path under an input-seeded random tile
      grid, yields a wirelist byte-identical to the flat extractor's
      (hence identical output and exit code for any -j/--tile the CLI
      could choose).

   Runs as a bounded smoke test under `dune runtest` (fixed seed, ~500
   inputs, well under 5 s).  Set ACE_FUZZ_N / ACE_FUZZ_SEED to scale it
   up for longer campaigns. *)

module Diag = Ace_diag.Diag
module Parser = Ace_cif.Parser
module Design = Ace_cif.Design

let n_inputs =
  match Sys.getenv_opt "ACE_FUZZ_N" with Some s -> int_of_string s | None -> 500

let seed =
  match Sys.getenv_opt "ACE_FUZZ_SEED" with
  | Some s -> int_of_string s
  | None -> 0xACE1983

let rng = Random.State.make [| seed |]

let corpus =
  let dir =
    List.find Sys.file_exists [ "../data"; "data"; "_build/default/data" ]
  in
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".cif")
  |> List.map (fun f ->
         let ic = open_in_bin (Filename.concat dir f) in
         let s = really_input_string ic (in_channel_length ic) in
         close_in ic;
         s)

let () = assert (corpus <> [])

(* CIF-flavored alphabet so mutations stay near the interesting grammar
   instead of being rejected at the first byte *)
let alphabet = "PBWRLDCESF0123456789-;() \n\tMXYT94QZ"

let random_char () = alphabet.[Random.State.int rng (String.length alphabet)]

let mutate src =
  let b = Bytes.of_string src in
  let len = Bytes.length b in
  if len = 0 then String.make 1 (random_char ())
  else
    match Random.State.int rng 5 with
    | 0 ->
        (* flip some bytes *)
        for _ = 0 to Random.State.int rng 8 do
          Bytes.set b (Random.State.int rng len) (random_char ())
        done;
        Bytes.to_string b
    | 1 ->
        (* truncate *)
        Bytes.sub_string b 0 (Random.State.int rng len)
    | 2 ->
        (* delete a span *)
        let i = Random.State.int rng len in
        let n = min (len - i) (1 + Random.State.int rng 40) in
        Bytes.sub_string b 0 i ^ Bytes.sub_string b (i + n) (len - i - n)
    | 3 ->
        (* insert a random fragment *)
        let i = Random.State.int rng (len + 1) in
        let frag =
          String.init (1 + Random.State.int rng 12) (fun _ -> random_char ())
        in
        Bytes.sub_string b 0 i ^ frag ^ Bytes.sub_string b i (len - i)
    | _ ->
        (* splice: duplicate a slice somewhere else *)
        let i = Random.State.int rng len in
        let n = min (len - i) (1 + Random.State.int rng 60) in
        let j = Random.State.int rng (len + 1) in
        Bytes.sub_string b 0 j
        ^ Bytes.sub_string b i n
        ^ Bytes.sub_string b j (len - j)

let random_soup () =
  String.init (Random.State.int rng 400) (fun _ -> random_char ())

(* Designs for property 10, from their own stream so the mutated and
   soup inputs above stay what they were for a given seed. *)
let wide_rng = Random.State.make [| seed; 61 |]

let wide_int () =
  let r = wide_rng in
  let v =
    match Random.State.int r 3 with
    | 0 -> Random.State.int r 20
    | 1 -> (1 lsl 30) - 2 + Random.State.int r 4
    | _ -> (1 lsl 61) - 2 + Random.State.int r 4
  in
  if Random.State.int r 4 = 0 then -v else v

let wide_design () =
  let n () = string_of_int (wide_int ()) in
  let factor () = string_of_int (max 1 (abs (wide_int ()))) in
  let box layer = Printf.sprintf "L %s; B %s %s %s %s;" layer (n ()) (n ()) (n ()) (n ()) in
  Printf.sprintf "DS 1 %s %s; %s %s 94 a %s %s; DF; C 1 T %s %s; C 1 M X; %s E"
    (factor ()) (factor ()) (box "ND") (box "NP") (n ()) (n ()) (n ()) (n ())
    (box "NM")

let failures = ref 0

let fail_input what input e =
  incr failures;
  Printf.eprintf "FUZZ FAILURE (%s): %s\n  input (%d bytes): %S\n" what
    (Printexc.to_string e) (String.length input)
    (if String.length input > 400 then String.sub input 0 400 ^ "..." else input)

let has_error diags = List.exists Diag.is_error diags

(* Semantic diagnostics on which strict [Design.of_ast] fails: every error,
   and the coordinate-range drops, which it rejects too but the lenient
   path reports as warnings. *)
let rejects_design sdiags =
  has_error sdiags
  || List.exists (fun (d : Diag.t) -> d.code = "sem-coordinate-overflow") sdiags

(* property 4: tracing is an observer.  With a recording session active
   the lenient parse must report exactly the diagnostics it reported
   untraced (so CLI exit codes cannot change), strict/lenient agreement
   must still hold, extraction must yield the identical wirelist, and the
   trace we then export must be structurally valid. *)
let traced_transparent input untraced_pdiags design untraced_wl =
  Ace_trace.Trace.start ();
  (try
     let _, tdiags = Parser.parse_string_lenient input in
     if tdiags <> untraced_pdiags then
       fail_input "tracing changed the parse diagnostics" input
         (Failure "diag mismatch");
     let strict_fails =
       match Parser.parse_string input with
       | _ -> false
       | exception Parser.Error _ -> true
       | exception e ->
           fail_input "traced strict parse raised non-Error" input e;
           true
     in
     if strict_fails <> has_error tdiags then
       fail_input "strict/lenient disagreement with tracing on" input
         (Failure "disagreement");
     match Ace_core.Extractor.extract ~name:"fuzz" design with
     | exception e -> fail_input "traced extract raised" input e
     | c ->
         if Ace_netlist.Wirelist.to_string c <> untraced_wl then
           fail_input "tracing changed the wirelist" input
             (Failure "wirelist mismatch")
   with e -> fail_input "traced run raised" input e);
  let session = Ace_trace.Trace.stop () in
  match Ace_trace.Chrome.validate (Ace_trace.Chrome.render session) with
  | Ok _ -> ()
  | Error m -> fail_input "exported trace invalid" input (Failure m)

(* property 6: LVS closure.  The SPICE writer auto-names unnamed nets
   (N<i>) and aliases GND to node 0; when that naming is injective over
   the device-connected nets, the round trip preserves the net partition
   exactly and the comparator must find the circuit equivalent to
   itself, both ways.  When two nets collide onto one node token the
   round trip genuinely merges them, so only totality is required. *)
let lvs_self input (circuit : Ace_netlist.Circuit.t) =
  let open Ace_netlist in
  let sanitize name =
    String.map
      (function ('a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_') as c -> c | _ -> '_')
      name
  in
  let gnd_net =
    match Circuit.find_net circuit "GND" with
    | n -> Some n
    | exception Not_found -> None
  in
  let used = Hashtbl.create 16 in
  Array.iter
    (fun (d : Circuit.device) ->
      List.iter
        (fun n -> Hashtbl.replace used n ())
        [ d.gate; d.source; d.drain ])
    circuit.Circuit.devices;
  let injective =
    let seen = Hashtbl.create 16 in
    Hashtbl.fold
      (fun n () ok ->
        let tok =
          if Some n = gnd_net then "0"
          else
            match circuit.Circuit.nets.(n).Circuit.names with
            | name :: _ -> sanitize name
            | [] -> Printf.sprintf "N%d" n
        in
        let key =
          if tok = "0" then "GND" else String.uppercase_ascii tok
        in
        if key = "" || Hashtbl.mem seen key then false
        else begin
          Hashtbl.replace seen key ();
          ok
        end)
      used true
  in
  match
    let spice = Spice.to_string circuit in
    let reference, _diags = Ace_lvs.Reference.parse spice in
    ( Ace_lvs.Match.run ~layout:circuit ~reference (),
      Ace_lvs.Match.run ~layout:reference ~reference:circuit () )
  with
  | exception e -> fail_input "self-LVS raised" input e
  | fwd, bwd ->
      if injective then begin
        if fwd.Ace_lvs.Match.outcome <> Ace_lvs.Match.Clean then
          fail_input "self-LVS not clean" input (Failure "mismatch");
        if bwd.Ace_lvs.Match.outcome <> Ace_lvs.Match.Clean then
          fail_input "swapped self-LVS not clean" input (Failure "mismatch")
      end

(* property 8 (second half): whenever HEXT extracts a hierarchy from the
   fuzz design, comparing it hierarchically against its own flattened
   SPICE round trip must be total and must return the same verdict as
   the flat comparator — the soundness contract Hier.run documents. *)
let hier_agrees input design =
  match Ace_hext.Hext.extract design with
  | exception _ -> () (* garbage in, no hierarchy out: acceptable *)
  | hl, _stats -> (
      match Ace_netlist.Hier.flatten hl with
      | exception e -> fail_input "Hier.flatten raised" input e
      | flat_circuit -> (
          let spice = Ace_netlist.Spice.to_string flat_circuit in
          match Ace_lvs.Reference.load ~name:"fuzz" spice with
          | Error _ -> ()
          | exception e ->
              fail_input "Reference.load raised on writer output" input e
          | Ok (reference, _) -> (
              let ref_view = Ace_lvs.Reference.hier_view ~name:"fuzz" spice in
              match
                ( Ace_lvs.Hier.run ~layout:hl ~reference ?ref_view (),
                  Ace_lvs.Match.run ~layout:flat_circuit ~reference () )
              with
              | exception e -> fail_input "hierarchical LVS raised" input e
              | h, f ->
                  if
                    h.Ace_lvs.Hier.r.Ace_lvs.Match.outcome
                    <> f.Ace_lvs.Match.outcome
                  then
                    fail_input "hierarchical and flat LVS verdicts differ"
                      input (Failure "disagreement"))))

(* property 9: the tiled parallel extractor is byte-equal to the flat
   one on anything the flat one can extract.  The grid and worker count
   are seeded from the input bytes, so the corpus as a whole sweeps
   ragged multi-row grids while each individual input stays
   reproducible.  The steal schedule is whatever the machine does that
   run — the property asserts it cannot matter. *)
let tiled_agrees input design flat_wl =
  let h = Hashtbl.hash input in
  let cols = 1 + (h mod 4)
  and rows = 1 + (h / 4 mod 4)
  and jobs = 1 + (h / 16 mod 3) in
  match Ace_core.Parallel.extract ~jobs ~tile:(cols, rows) ~name:"fuzz" design with
  | exception e ->
      fail_input
        (Printf.sprintf "tiled extract (%dx%d -j%d) raised where flat succeeded"
           cols rows jobs)
        input e
  | tiled ->
      if Ace_netlist.Wirelist.to_string tiled <> flat_wl then
        fail_input
          (Printf.sprintf "tiled wirelist (%dx%d -j%d) differs from flat" cols
             rows jobs)
          input (Failure "disagreement")

(* property 3: the lint battery is total over whatever the extractor
   produces.  Extraction failures on fuzz garbage are tolerated (and the
   design is size-guarded so pathological inputs cannot stall the run),
   but [Ace_lint.Engine.run] itself must never raise. *)
let lint_total input pdiags design =
  let small =
    match Design.bbox design with
    | None -> true
    | Some bb ->
        bb.Ace_geom.Box.r - bb.l < 1_000_000 && bb.t - bb.b < 1_000_000
  in
  let boxes = try Design.count_boxes design with _ -> max_int in
  if small && boxes < 5_000 then
    match Ace_core.Extractor.extract ~name:"fuzz" design with
    | exception _ -> () (* garbage in, no circuit out: acceptable *)
    | circuit -> (
        (match Ace_lint.Engine.run circuit with
        | _findings -> ()
        | exception e -> fail_input "lint raised" input e);
        lvs_self input circuit;
        hier_agrees input design;
        tiled_agrees input design (Ace_netlist.Wirelist.to_string circuit);
        traced_transparent input pdiags design
          (Ace_netlist.Wirelist.to_string circuit);
        (* property 3b: the flow analysis is total on any extracted
           circuit, rails or not (forced rail indices) *)
        let nc = Ace_netlist.Circuit.net_count circuit in
        if nc > 0 then
          match
            Ace_flow.Ternary.analyze circuit ~vdd:0 ~gnd:(min 1 (nc - 1))
          with
          | _verdict -> ()
          | exception e -> fail_input "flow raised" input e)

let run_one input =
  (* property 1: totality of the lenient front end *)
  match Parser.parse_string_lenient input with
  | exception e -> fail_input "parse_string_lenient raised" input e
  | lenient_ast, pdiags -> (
      (match Design.of_ast_lenient lenient_ast with
      | exception e -> fail_input "of_ast_lenient raised" input e
      | design, _sdiags -> lint_total input pdiags design);
      (* property 2: strict/lenient agreement *)
      match Parser.parse_string input with
      | exception Parser.Error _ ->
          if not (has_error pdiags) then
            fail_input "strict failed but lenient saw no error" input
              (Failure "disagreement")
      | exception e -> fail_input "parse_string raised non-Error" input e
      | strict_ast -> (
          if has_error pdiags then
            fail_input "strict ok but lenient reported errors" input
              (Failure "disagreement")
          else if strict_ast <> lenient_ast then
            fail_input "strict and lenient ASTs differ" input
              (Failure "disagreement");
          match Design.of_ast strict_ast with
          | exception Design.Semantic_error _ -> (
              match Design.of_ast_lenient strict_ast with
              | _, sdiags ->
                  if not (rejects_design sdiags) then
                    fail_input "strict design failed but lenient saw no error"
                      input (Failure "disagreement")
              | exception e -> fail_input "of_ast_lenient raised" input e)
          | exception e -> fail_input "of_ast raised unexpected" input e
          | strict_design -> (
              match Design.of_ast_lenient strict_ast with
              | lenient_design, sdiags -> (
                  if rejects_design sdiags then
                    fail_input "strict design ok but lenient errored" input
                      (Failure "disagreement");
                  (* lenient box counting must be total even where strict
                     counting raises (degenerate wires/flashes slip past
                     of_ast); only compare counts when strict succeeds and
                     the design is small enough to decompose quickly *)
                  let small =
                    match Design.bbox strict_design with
                    | None -> true
                    | Some bb ->
                        bb.Ace_geom.Box.r - bb.l < 1_000_000
                        && bb.t - bb.b < 1_000_000
                  in
                  if small then
                    match Design.count_boxes lenient_design with
                    | exception e ->
                        fail_input "lenient count_boxes raised" input e
                    | lenient_count -> (
                        match Design.count_boxes strict_design with
                        | exception _ -> () (* latent strict-mode weakness *)
                        | strict_count ->
                            if strict_count <> lenient_count then
                              fail_input "strict and lenient designs differ"
                                input (Failure "disagreement")))
              | exception e -> fail_input "of_ast_lenient raised" input e)))

(* property 7: the memory-mapped lexer path is indistinguishable from the
   in-memory string path — same lenient AST and diagnostics, same strict
   outcome — on arbitrary (including malformed) bytes.  Each probe writes
   the input to a scratch file and opens it for real, so the mmap branch,
   not the fallback, is exercised. *)
let mmap_equiv input =
  let path = Filename.temp_file "ace_fuzz_mmap" ".cif" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let oc = open_out_bin path in
      output_string oc input;
      close_out oc;
      match Parser.open_file path with
      | exception e -> fail_input "open_file raised" input e
      | minput ->
          if input <> "" && not (Parser.input_is_mapped minput) then
            fail_input "regular file not memory-mapped" input
              (Failure "fallback engaged");
          if Parser.input_to_string minput <> input then
            fail_input "mapped bytes differ from written bytes" input
              (Failure "content mismatch");
          (match
             ( Parser.parse_input_lenient minput,
               Parser.parse_string_lenient input )
           with
          | (ast_m, diags_m), (ast_s, diags_s) ->
              if ast_m <> ast_s then
                fail_input "mmap and string lenient ASTs differ" input
                  (Failure "AST mismatch");
              if diags_m <> diags_s then
                fail_input "mmap and string lenient diags differ" input
                  (Failure "diag mismatch")
          | exception e -> fail_input "lenient mmap parse raised" input e);
          let strict p =
            match p () with
            | (_ : Ace_cif.Ast.file) -> Ok ()
            | exception Parser.Error { position; message } ->
                Error (position, message)
          in
          let m = strict (fun () -> Parser.parse_input minput) in
          let s = strict (fun () -> Parser.parse_string input) in
          if m <> s then
            fail_input "mmap and string strict outcomes differ" input
              (Failure "strict mismatch"))

(* property 10 *)
let wide_total input =
  let extracts what design =
    match Ace_core.Extractor.extract ~name:"fuzz" design with
    | (_ : Ace_netlist.Circuit.t) -> ()
    | exception e -> fail_input (what ^ " extraction raised") input e
  in
  (match Design.of_ast (Parser.parse_string input) with
  | exception (Parser.Error _ | Design.Semantic_error _) -> ()
  | exception e -> fail_input "strict front end raised" input e
  | design -> extracts "strict" design);
  match Parser.parse_string_lenient input with
  | exception e -> fail_input "parse_string_lenient raised" input e
  | ast, _ -> (
      match Design.of_ast_lenient ast with
      | exception e -> fail_input "of_ast_lenient raised" input e
      | design, _ -> extracts "lenient" design)

(* property 5: one shared in-process server (no cache, no faults), fed
   the same fuzz inputs the front-end properties use *)
let serve_state =
  lazy
    (Ace_serve.Server.create (Ace_serve.Server.config ~max_inflight:2 ()))

let protocol_total input ~as_request =
  let t = Lazy.force serve_state in
  let line =
    if as_request then
      Ace_serve.Proto.obj
        [
          ("id", "0");
          ("op", Ace_serve.Proto.str "extract");
          ("cif", Ace_serve.Proto.str input);
          ("cache", "false");
        ]
    else input
  in
  match Ace_serve.Server.handle_line t line with
  | reply -> (
      match Ace_trace.Json.parse reply with
      | Ok (Ace_trace.Json.Obj fields) ->
          if not (List.mem_assoc "ok" fields) then
            fail_input "protocol reply missing \"ok\"" input (Failure reply)
      | Ok _ ->
          fail_input "protocol reply not a JSON object" input (Failure reply)
      | Error m -> fail_input "protocol reply unparseable" input (Failure m))
  | exception e -> fail_input "Server.handle_line raised" input e

let () =
  let n_corpus = List.length corpus in
  let t0 = Unix.gettimeofday () in
  (* the clean corpus itself, un-mutated *)
  List.iter run_one corpus;
  List.iter mmap_equiv corpus;
  List.iter (fun c -> protocol_total c ~as_request:true) corpus;
  for i = 0 to n_inputs - 1 do
    let input =
      if i mod 4 = 3 then random_soup ()
      else mutate (List.nth corpus (Random.State.int rng n_corpus))
    in
    run_one input;
    (* property 6b: the lenient reference parser is total on raw fuzz
       text (both entry points; load also exercises the format sniff) *)
    (match Ace_lvs.Reference.parse input with
    | _circuit, _diags -> ()
    | exception e -> fail_input "Reference.parse raised" input e);
    (match Ace_lvs.Reference.load input with
    | Ok _ | Error _ -> ()
    | exception e -> fail_input "Reference.load raised" input e);
    (* property 8a: the structural-Verilog front end never raises, no
       matter how far from Verilog the bytes are *)
    (match Ace_lvs.Verilog.parse input with
    | _circuit, _diags -> ()
    | exception e -> fail_input "Verilog.parse raised" input e);
    protocol_total input ~as_request:false;
    (* file round-trips cost a syscall pair each; sample them *)
    if i mod 4 = 0 then mmap_equiv input;
    (* wrapped extraction is the expensive path; sample it *)
    if i mod 8 = 0 then protocol_total input ~as_request:true;
    if i mod 4 = 0 then begin
      let wide = wide_design () in
      run_one wide;
      wide_total wide
    end
  done;
  let elapsed = Unix.gettimeofday () -. t0 in
  Printf.printf
    "fuzz_cif: %d inputs (%d corpus + %d mutated/generated), seed %#x, %d \
     failures, %.2f s\n"
    (n_corpus + n_inputs) n_corpus n_inputs seed !failures elapsed;
  if !failures > 0 then exit 1
