(* test_lvs — the LVS engine: lenient reference parsing, series/parallel
   reduction, the seeded-refinement comparator, and waiver plumbing.

   The reduction property checks conduction equivalence against brute
   force: for every assignment of the (few) gate nets, the reduced
   circuit must connect exactly the same named nets as the original.
   The comparator properties check reflexivity (every circuit matches
   itself) and symmetry (swapping the sides flips finding polarity but
   nothing else). *)

open Ace_netlist
module Point = Ace_geom.Point
module Nmos = Ace_tech.Nmos
module Reference = Ace_lvs.Reference
module Reduce = Ace_lvs.Reduce
module Match = Ace_lvs.Match
module Report = Ace_lvs.Report
module Verilog = Ace_lvs.Verilog
module HierLvs = Ace_lvs.Hier
module Refine = Ace_lvs.Refine
module Oracle = Lvs_oracle
module Diag = Ace_diag.Diag
module Cancel = Ace_core.Cancel
module Trace = Ace_trace.Trace

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Builders                                                           *)

let net ?(names = []) i =
  { Circuit.names; location = Point.make i 0; geometry = [] }

let dev ?(dtype = Nmos.Enhancement) ?(l = 500) ?(w = 500) ~g ~s ~d i =
  {
    Circuit.dtype;
    gate = g;
    source = s;
    drain = d;
    length = l;
    width = w;
    location = Point.make i 0;
    geometry = [];
  }

let circuit ?(name = "test") devices nets =
  {
    Circuit.name;
    devices = Array.of_list devices;
    nets = Array.of_list nets;
  }

let parse_ok text =
  let c, diags = Reference.parse text in
  check "parse emits no errors" true (not (List.exists Diag.is_error diags));
  c

let data_file file =
  let dir =
    List.find Sys.file_exists [ "../data"; "data"; "_build/default/data" ]
  in
  let ic = open_in_bin (Filename.concat dir file) in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let extract_cif file =
  let ast, _ = Ace_cif.Parser.parse_string_lenient (data_file file) in
  let design, _ = Ace_cif.Design.of_ast_lenient ast in
  Ace_core.Parallel.extract ~jobs:1 ~name:(Filename.chop_extension file)
    design

let extract_hier file =
  let ast, _ = Ace_cif.Parser.parse_string_lenient (data_file file) in
  let design, _ = Ace_cif.Design.of_ast_lenient ast in
  fst (Ace_hext.Hext.extract design)

let codes_of (r : Match.result) =
  List.sort_uniq String.compare
    (List.map (fun (f : Match.finding) -> f.Match.code) r.Match.findings)

(* ------------------------------------------------------------------ *)
(* Reference parser                                                   *)

let test_parse_basics () =
  let c =
    parse_ok
      "* an inverter\n\
       .MODEL ENH NMOS (LEVEL=1 VTO=1.0)\n\
       .MODEL DEP NMOS (LEVEL=1 VTO=-3.0)\n\
       M1 OUT INP 0 0 ENH L=5U W=5U\n\
       M2 VDD OUT OUT 0 DEP L=20U W=5U\n\
       .END\n"
  in
  check_int "two devices" 2 (Circuit.device_count c);
  let enh, depl = Circuit.device_type_counts c in
  check_int "one enhancement" 1 enh;
  check_int "one depletion" 1 depl;
  check "node 0 aliases GND" true (Circuit.find_net_opt c "GND" <> None);
  let d1 = c.Circuit.devices.(0) in
  check_int "L=5U is 500 centimicrons" 500 d1.Circuit.length;
  check_int "W=5U is 500 centimicrons" 500 d1.Circuit.width;
  check_int "L=20U is 2000 centimicrons" 2000
    c.Circuit.devices.(1).Circuit.length

let test_parse_lexing () =
  (* continuations, inline comments, parens/commas as whitespace,
     case-insensitive net identity *)
  let c =
    parse_ok
      "M1 OUT INP 0 0 ENH $ pull-down\n\
       + L=5U\n\
       + W=5U\n\
       M2 (VDD, out, OUT) 0 DEP L=20U W=5U\n"
  in
  check_int "continuation joins one card per device" 2
    (Circuit.device_count c);
  check "out and OUT are one net" true
    (Circuit.find_net_opt c "OUT" <> None
    && c.Circuit.devices.(1).Circuit.gate
       = c.Circuit.devices.(0).Circuit.drain
       || c.Circuit.devices.(1).Circuit.gate
          = c.Circuit.devices.(0).Circuit.source
       || c.Circuit.devices.(1).Circuit.source
          = c.Circuit.devices.(0).Circuit.drain)

let test_parse_dims () =
  let c = parse_ok "M1 A B C 0 ENH L=500N W=500\nM2 A B C 0 ENH\n" in
  check_int "500N is 50 centimicrons" 50 c.Circuit.devices.(0).Circuit.length;
  check_int "bare numbers are centimicrons" 500
    c.Circuit.devices.(0).Circuit.width;
  check_int "missing L means unknown (0)" 0
    c.Circuit.devices.(1).Circuit.length;
  let _, diags = Reference.parse "M1 A B C 0 ENH L=bogus W=5U\n" in
  check "malformed dimension is diagnosed" true
    (List.exists (fun (d : Diag.t) -> d.Diag.code = "lvs-ref-bad-number") diags)

let test_parse_hierarchy () =
  let c =
    parse_ok
      ".GLOBAL VDD\n\
       .SUBCKT INV IN OUT\n\
       M1 OUT IN 0 0 ENH L=5U W=5U\n\
       M2 VDD OUT OUT 0 DEP L=20U W=5U\n\
       .ENDS\n\
       X1 A B INV\n\
       X2 B C INV\n\
       .END\n"
  in
  check_int "two instances flatten to four devices" 4
    (Circuit.device_count c);
  check "pins bind across instances" true
    (Circuit.find_net_opt c "B" <> None);
  (* VDD is global: both instances share one net *)
  check "global VDD is shared" true (Circuit.find_net_opt c "VDD" <> None);
  (* connected: gnd, VDD, A, B, C = 5 *)
  check_int "five connected nets" 5
    (List.length (Circuit.connected_net_indices c))

let test_parse_hierarchy_errors () =
  let _, d1 = Reference.parse "X1 A B NOSUCH\n" in
  check "undefined subckt diagnosed" true
    (List.exists (fun (d : Diag.t) -> d.Diag.code = "lvs-ref-undefined-subckt") d1);
  let _, d2 =
    Reference.parse ".SUBCKT A P\nX1 P A\n.ENDS\nX2 Q A\n.END\n"
  in
  check "recursion diagnosed" true
    (List.exists (fun (d : Diag.t) -> d.Diag.code = "lvs-ref-recursive") d2);
  let _, d3 = Reference.parse ".SUBCKT INV IN OUT\nM1 OUT IN 0 0 ENH\n" in
  check "unterminated subckt diagnosed" true
    (List.exists
       (fun (d : Diag.t) -> d.Diag.code = "lvs-ref-unterminated-subckt")
       d3)

let test_parse_lenient () =
  (* garbage lines become diagnostics; the good cards still parse *)
  let c, diags =
    Reference.parse
      "M1 OUT INP 0 0 ENH L=5U W=5U\n\
       this is not spice at all\n\
       M\n\
       M2 VDD OUT OUT 0 DEP L=20U W=5U\n"
  in
  check_int "good cards survive garbage" 2 (Circuit.device_count c);
  check "garbage is diagnosed" true (diags <> [])

let test_parse_repeated_formal () =
  (* a formal named twice binds its first actual, and the second actual
     still becomes a net *)
  let text = ".SUBCKT R A A B\nM1 A B 0 0 ENH\n.ENDS\nX1 P Q S R\n.END\n" in
  let c = parse_ok text in
  let d = c.Circuit.devices.(0) in
  check_string "first binding wins" "P" (Circuit.net_display_name c d.Circuit.drain);
  check_string "later formals still bind" "S"
    (Circuit.net_display_name c d.Circuit.gate);
  check "the shadowed actual is still a net" true
    (Circuit.find_net_opt c "Q" <> None);
  match Reference.hier_view text with
  | None -> Alcotest.fail "hierarchical view expected"
  | Some v ->
      let cell = v.Reference.hv_cells.(0) in
      check "a repeated formal is one cell net" true
        (cell.Reference.hc_pin_nets.(0) = cell.Reference.hc_pin_nets.(1))

let test_load_sniffs_wirelist () =
  let c = parse_ok "M1 OUT INP 0 0 ENH L=5U W=5U\n" in
  let wl = Wirelist.to_string c in
  (match Reference.load wl with
  | Ok (c', _) ->
      check_int "wirelist round-trips through load" (Circuit.device_count c)
        (Circuit.device_count c')
  | Error _ -> check "wirelist load" true false);
  match Reference.load "(DefPart garbage" with
  | Error d -> check_string "wirelist error code" "wirelist-error" d.Diag.code
  | Ok _ -> check "broken wirelist rejected" true false

(* ------------------------------------------------------------------ *)
(* Reduction                                                          *)

let test_reduce_parallel () =
  (* two identical fingers in parallel: widths and multiplicities add *)
  let nets = [ net ~names:[ "A" ] 0; net ~names:[ "B" ] 1; net ~names:[ "G" ] 2 ] in
  let c =
    circuit [ dev ~g:2 ~s:0 ~d:1 ~w:500 0; dev ~g:2 ~s:1 ~d:0 ~w:700 1 ] nets
  in
  let r = Reduce.reduce c in
  check_int "one device remains" 1
    (Circuit.device_count r.Reduce.circuit);
  check_int "widths add" 1200 r.Reduce.circuit.Circuit.devices.(0).Circuit.width;
  check_int "multiplicity 2" 2 r.Reduce.mult.(0);
  check_int "one merge" 1 r.Reduce.merged

let test_reduce_series () =
  (* chain A -mid- B through an anonymous net: lengths add *)
  let nets = [ net ~names:[ "A" ] 0; net 1; net ~names:[ "B" ] 2; net ~names:[ "G" ] 3 ] in
  let c =
    circuit [ dev ~g:3 ~s:0 ~d:1 ~l:500 0; dev ~g:3 ~s:1 ~d:2 ~l:700 1 ] nets
  in
  let r = Reduce.reduce c in
  check_int "series chain collapses" 1 (Circuit.device_count r.Reduce.circuit);
  check_int "lengths add" 1200
    r.Reduce.circuit.Circuit.devices.(0).Circuit.length;
  (* the surviving device spans A..B *)
  let d = r.Reduce.circuit.Circuit.devices.(0) in
  check "terminals span the chain" true
    (List.sort Int.compare [ d.Circuit.source; d.Circuit.drain ] = [ 0; 2 ])

let test_reduce_respects_names_and_gates () =
  (* a named internal net, or one carrying a gate terminal, never merges *)
  let named =
    circuit
      [ dev ~g:3 ~s:0 ~d:1 0; dev ~g:3 ~s:1 ~d:2 1 ]
      [ net ~names:[ "A" ] 0; net ~names:[ "MID" ] 1; net ~names:[ "B" ] 2;
        net ~names:[ "G" ] 3 ]
  in
  check_int "named internal net survives" 2
    (Circuit.device_count (Reduce.reduce named).Reduce.circuit);
  let gated =
    circuit
      [ dev ~g:3 ~s:0 ~d:1 0; dev ~g:3 ~s:1 ~d:2 1; dev ~g:1 ~s:3 ~d:3 2 ]
      [ net ~names:[ "A" ] 0; net 1; net ~names:[ "B" ] 2; net ~names:[ "G" ] 3 ]
  in
  check_int "gate-carrying internal net survives" 3
    (Circuit.device_count (Reduce.reduce gated).Reduce.circuit);
  (* but an unshared name stops blocking under a custom predicate *)
  let r = Reduce.reduce ~anonymous:(fun _ -> true) named in
  check_int "custom anonymity predicate unlocks the merge" 1
    (Circuit.device_count r.Reduce.circuit)

(* ------------------------------------------------------------------ *)
(* Comparator: golden corpus                                          *)

let clean_pairs =
  [
    ("inverter.cif", "inverter.sp");
    ("chain4.cif", "chain4.sp");
    ("nand2.cif", "nand2.sp");
    ("nor2.cif", "nor2.sp");
    ("mux2.cif", "mux2.sp");
    ("latch.cif", "latch.sp");
    ("mesh4x4.cif", "mesh4x4.sp");
  ]

let test_corpus_clean () =
  List.iter
    (fun (cif, sp) ->
      let layout = extract_cif cif in
      let reference, diags = Reference.parse (data_file sp) in
      check (sp ^ " parses cleanly") true
        (not (List.exists Diag.is_error diags));
      let r = Match.run ~layout ~reference () in
      check (cif ^ " vs " ^ sp ^ " is clean") true
        (r.Match.outcome = Match.Clean);
      check (cif ^ " matched every device") true
        (r.Match.stats.Match.matched > 0
        && r.Match.stats.Match.matched = r.Match.stats.Match.layout_devices))
    clean_pairs

let seeded_fixtures =
  [
    ("nand2.cif", "nand2.extra.sp", "lvs-extra-device");
    ("inverter.cif", "inverter.missing.sp", "lvs-missing-device");
    ("chain4.cif", "chain4.split.sp", "lvs-net-split");
    ("inverter.cif", "inverter.swapped.sp", "lvs-size-mismatch");
    ("inverter.cif", "inverter.merge.sp", "lvs-net-merge");
  ]

let test_seeded_mismatches () =
  List.iter
    (fun (cif, sp, code) ->
      let layout = extract_cif cif in
      let reference, _ = Reference.parse (data_file sp) in
      let r = Match.run ~layout ~reference () in
      check (sp ^ " mismatches") true (r.Match.outcome = Match.Mismatch);
      check
        (Printf.sprintf "%s produces %s (got: %s)" sp code
           (String.concat " " (codes_of r)))
        true
        (List.mem code (codes_of r)))
    seeded_fixtures

let test_size_knobs () =
  let layout = extract_cif "inverter.cif" in
  let reference, _ = Reference.parse (data_file "inverter.swapped.sp") in
  let strict = Match.run ~layout ~reference () in
  check "swapped W/L is a mismatch" true
    (strict.Match.outcome = Match.Mismatch);
  let tolerant = Match.run ~tolerance:0.8 ~layout ~reference () in
  check "an 80% tolerance forgives the swap" true
    (tolerant.Match.outcome = Match.Clean);
  let unsized = Match.run ~with_sizes:false ~layout ~reference () in
  check "--no-sizes forgives the swap" true
    (unsized.Match.outcome = Match.Clean)

let test_one_sided_names_harmless () =
  (* isomorphic circuits with entirely disjoint net names must compare
     clean: a name the other side does not know is not evidence *)
  let a = parse_ok "M1 X Y Z 0 ENH L=5U W=5U\nM2 P X Q 0 DEP L=5U W=5U\n" in
  let b =
    parse_ok "M1 EQ EH EZ 0 ENH L=5U W=5U\nM2 EP EQ ER 0 DEP L=5U W=5U\n"
  in
  let r = Match.run ~layout:a ~reference:b () in
  check "disjoint names still match" true (r.Match.outcome = Match.Clean)

let test_shared_names_pin () =
  (* same topology, but a shared unique name attached to structurally
     different nets must be reported *)
  let a = parse_ok "M1 OUT A GND 0 ENH L=5U W=5U\n" in
  let b = parse_ok "M1 A OUT GND 0 ENH L=5U W=5U\n" in
  let r = Match.run ~layout:a ~reference:b () in
  check "conflicting name hints surface" true
    (r.Match.outcome <> Match.Clean)

(* ------------------------------------------------------------------ *)
(* Report / waiver plumbing                                           *)

let test_report_baseline () =
  let layout = extract_cif "nand2.cif" in
  let reference, _ = Reference.parse (data_file "nand2.extra.sp") in
  let r = Match.run ~layout ~reference () in
  check "fixture yields findings" true (r.Match.findings <> []);
  let fps = List.map Report.fingerprint r.Match.findings in
  List.iter
    (fun fp -> check_int "fingerprint is 16 hex chars" 16 (String.length fp))
    fps;
  let path = Filename.temp_file "lvs" ".baseline" in
  Ace_lint.Baseline.save path (Ace_lint.Baseline.of_fingerprints fps);
  (match Ace_lint.Baseline.load path with
  | Ok b ->
      check "every finding is waived by its own baseline" true
        (List.for_all (fun fp -> Ace_lint.Baseline.mem b fp) fps);
      check "unknown fingerprints are not waived" false
        (Ace_lint.Baseline.mem b "0000000000000000")
  | Error m -> check ("baseline load: " ^ m) true false);
  Sys.remove path;
  (* fingerprints are stable across re-runs *)
  let r2 = Match.run ~layout ~reference () in
  check "fingerprints are deterministic" true
    (List.map Report.fingerprint r2.Match.findings = fps)

let test_report_rules_cover_codes () =
  let rules =
    List.map (fun r -> r.Ace_diag.Sarif.id) (Report.sarif_rules ())
  in
  let emitted = ref [] in
  List.iter
    (fun (cif, sp, _) ->
      let layout = extract_cif cif in
      let reference, _ = Reference.parse (data_file sp) in
      let r = Match.run ~layout ~reference () in
      emitted := codes_of r @ !emitted)
    seeded_fixtures;
  List.iter
    (fun code ->
      check (code ^ " is a registered SARIF rule") true
        (List.mem code rules))
    (List.sort_uniq String.compare !emitted);
  (* parser codes are registered too *)
  List.iter
    (fun code -> check (code ^ " registered") true (List.mem code rules))
    [ "lvs-ref-bad-card"; "lvs-ref-bad-number"; "lvs-ref-undefined-subckt" ];
  let d =
    Report.to_diag
      {
        Match.code = "lvs-extra-device";
        severity = Diag.Error;
        message = "m";
        anchor = "a";
        layout_net = None;
      }
  in
  check "to_diag keeps the code" true (d.Diag.code = "lvs-extra-device")

(* ------------------------------------------------------------------ *)
(* Pin-permutation canonicalization                                   *)

let test_canonicalize_swapped_nand () =
  let layout = extract_cif "nand2.cif" in
  let swapped, diags = Reference.parse (data_file "nand2.swapped.sp") in
  check "nand2.swapped.sp parses cleanly" true
    (not (List.exists Diag.is_error diags));
  let r = Match.run ~layout ~reference:swapped () in
  check "swapped NAND inputs compare clean" true
    (r.Match.outcome = Match.Clean);
  (* the original, unswapped reference still matches too *)
  let straight, _ = Reference.parse (data_file "nand2.sp") in
  check "unswapped NAND still clean" true
    ((Match.run ~layout ~reference:straight ()).Match.outcome = Match.Clean)

(* ------------------------------------------------------------------ *)
(* --max-findings                                                     *)

let test_max_findings () =
  (* a 30-vs-1 device flood: extras overflow the default per-code cap *)
  let buf = Buffer.create 256 in
  for i = 1 to 30 do
    Buffer.add_string buf
      (Printf.sprintf "M%d O%d I%d 0 0 ENH L=5U W=5U\n" i i i)
  done;
  let layout = parse_ok (Buffer.contents buf) in
  let reference = parse_ok "M1 O1 I1 0 0 ENH L=5U W=5U\n" in
  let count code r =
    List.length
      (List.filter (fun (f : Match.finding) -> f.Match.code = code)
         r.Match.findings)
  in
  let unlimited = Match.run ~max_findings:0 ~layout ~reference () in
  check "flood yields a mismatch" true
    (unlimited.Match.outcome = Match.Mismatch);
  let extras = count "lvs-extra-device" unlimited in
  check "unlimited reports every extra device" true (extras > 20);
  let dflt = Match.run ~layout ~reference () in
  check_int "default cap is 20 plus the overflow note" 21
    (count "lvs-extra-device" dflt);
  let capped = Match.run ~max_findings:3 ~layout ~reference () in
  check_int "cap 3 keeps 3 plus the overflow note" 4
    (count "lvs-extra-device" capped);
  check "the cap never changes the verdict" true
    (unlimited.Match.outcome = dflt.Match.outcome
    && dflt.Match.outcome = capped.Match.outcome)

(* ------------------------------------------------------------------ *)
(* Structural-Verilog references                                      *)

let test_verilog_basics () =
  let c, diags =
    Verilog.parse
      "// an inverter\n\
       module inv (y, a);\n\
      \  output y;\n\
      \  input a;\n\
      \  not u1 (y, a);\n\
       endmodule\n"
  in
  check "inverter parses without errors" true
    (not (List.exists Diag.is_error diags));
  check_int "not lowers to pull-down + load" 2 (Circuit.device_count c);
  let enh, depl = Circuit.device_type_counts c in
  check_int "one enhancement" 1 enh;
  check_int "one depletion" 1 depl;
  check "output net named" true (Circuit.find_net_opt c "y" <> None);
  let c3, _ =
    Verilog.parse "module m (y, a, b, c);\n  nand u1 (y, a, b, c);\nendmodule\n"
  in
  check_int "3-input nand is a series chain plus load" 4
    (Circuit.device_count c3)

let test_verilog_total () =
  (* the parser never raises and never loses good statements to bad ones *)
  let c, diags =
    Verilog.parse
      "module ok (y, a);\n\
      \  not u1 (y, a);\n\
      \  this is ; not verilog (;\n\
      \  nand u2 (y, a, a);\n\
       endmodule\n\
       stray tokens outside any module\n"
  in
  check "good instances survive garbage" true (Circuit.device_count c >= 2);
  check "garbage is diagnosed" true
    (List.exists
       (fun (d : Diag.t) -> d.Diag.code = "lvs-ref-verilog-syntax")
       diags);
  let _, d2 = Verilog.parse "module m (y); xor u1 (y, y); endmodule\n" in
  check "unknown primitive diagnosed" true
    (List.exists
       (fun (d : Diag.t) -> d.Diag.code = "lvs-ref-unknown-primitive")
       d2);
  let _, d3 =
    Verilog.parse
      "module c (y, a); not u1 (y, a); endmodule\n\
       module m (y, a); c u1 (.y(y), a); endmodule\n"
  in
  check "mixed named/positional port map diagnosed" true
    (List.exists (fun (d : Diag.t) -> d.Diag.code = "lvs-ref-bad-portmap") d3)

let verilog_clean_pairs =
  [
    ("inverter.cif", "inverter.v");
    ("nand2.cif", "nand2.v");
    ("nor2.cif", "nor2.v");
    ("mux2.cif", "mux2.v");
    ("latch.cif", "latch.v");
  ]

let verilog_seeded =
  [
    ("mux2.cif", "mux2.swapped.v");
    ("latch.cif", "latch.missing.v");
    ("nor2.cif", "nor2.wrongprim.v");
  ]

let test_verilog_corpus () =
  List.iter
    (fun (cif, v) ->
      let layout = extract_cif cif in
      let reference, diags = Verilog.parse ~name:v (data_file v) in
      check (v ^ " parses cleanly") true
        (not (List.exists Diag.is_error diags));
      let r = Match.run ~layout ~reference () in
      check (cif ^ " vs " ^ v ^ " is clean") true
        (r.Match.outcome = Match.Clean))
    verilog_clean_pairs;
  List.iter
    (fun (cif, v) ->
      let layout = extract_cif cif in
      let reference, _ = Verilog.parse ~name:v (data_file v) in
      let r = Match.run ~layout ~reference () in
      check (cif ^ " vs " ^ v ^ " mismatches") true
        (r.Match.outcome = Match.Mismatch))
    verilog_seeded

(* ------------------------------------------------------------------ *)
(* Hierarchical LVS                                                   *)

let hier_run ?max_findings cif sp =
  let layout = extract_hier cif in
  let text = data_file sp in
  let reference =
    match Reference.load ~name:sp text with
    | Ok (c, _) -> c
    | Error _ -> Alcotest.fail (sp ^ " unreadable")
  in
  let ref_view = Reference.hier_view ~name:sp text in
  HierLvs.run ?max_findings ~layout ~reference ?ref_view ()

let test_hier_agrees_with_flat () =
  (* every corpus pair, clean and seeded: identical verdicts *)
  let pairs =
    clean_pairs
    @ List.map (fun (c, s, _) -> (c, s)) seeded_fixtures
    @ [ ("nand2.cif", "nand2.swapped.sp") ]
  in
  List.iter
    (fun (cif, sp) ->
      let flat_layout = extract_cif cif in
      let reference, _ = Reference.parse (data_file sp) in
      let flat = Match.run ~layout:flat_layout ~reference () in
      let h = hier_run cif sp in
      check
        (Printf.sprintf "%s vs %s: hier verdict equals flat" cif sp)
        true
        (h.HierLvs.r.Match.outcome = flat.Match.outcome))
    pairs

let test_hier_mesh_counters () =
  (* 16 identical cells: one structural compare, fifteen memo hits, no
     flat fallback *)
  let h = hier_run "mesh4x4.cif" "mesh4x4.sp" in
  check "mesh4x4 hier compare is clean" true
    (h.HierLvs.r.Match.outcome = Match.Clean);
  check "mesh4x4 stays on the hierarchical path" false h.HierLvs.fallback;
  check_int "each distinct cell is matched exactly once" 1
    h.HierLvs.cell_matches;
  check_int "the other fifteen instances hit the memo" 15
    h.HierLvs.cell_hits;
  (* re-running is deterministic *)
  let h2 = hier_run "mesh4x4.cif" "mesh4x4.sp" in
  check "hier re-run verdict is stable" true
    (h2.HierLvs.r.Match.outcome = h.HierLvs.r.Match.outcome
    && h2.HierLvs.cell_matches = h.HierLvs.cell_matches
    && h2.HierLvs.cell_hits = h.HierLvs.cell_hits)

let test_hier_cell_findings () =
  (* a hierarchical reference whose cell differs from the layout's: the
     fallback mismatch carries an lvs-cell-mismatch naming the cell *)
  let layout = extract_hier "mesh4x4.cif" in
  let text =
    ".SUBCKT CELL D G S\n\
     m1 d g s 0 enh l=9u w=9u\n\
     .ENDS\n"
    ^ String.concat "\n"
        (List.concat_map
           (fun r ->
             List.map
               (fun c ->
                 Printf.sprintf "x%d%d c%ds%d p%d c%ds%d cell" r c c (r + 1)
                   r c r)
               [ 0; 1; 2; 3 ])
           [ 0; 1; 2; 3 ])
    ^ "\n.END\n"
  in
  let reference =
    match Reference.load ~name:"wrong-cell" text with
    | Ok (c, _) -> c
    | Error _ -> Alcotest.fail "reference unreadable"
  in
  let ref_view = Reference.hier_view ~name:"wrong-cell" text in
  let h = HierLvs.run ~layout ~reference ?ref_view () in
  check "wrong cell sizes mismatch" true
    (h.HierLvs.r.Match.outcome = Match.Mismatch);
  check "verdict fell back to the flat compare" true h.HierLvs.fallback;
  check "lvs-cell-mismatch names the cell" true
    (List.exists
       (fun (f : Match.finding) -> f.Match.code = "lvs-cell-mismatch")
       h.HierLvs.r.Match.findings)

(* ------------------------------------------------------------------ *)
(* Properties                                                         *)

(* Random two-terminal chain/finger networks between named nets, with
   all internal nets anonymous: the shape reduction is designed for. *)
let gen_chain_circuit =
  let open QCheck2.Gen in
  let* n_gates = int_range 1 3 in
  let* n_segments = int_range 1 5 in
  let* segments =
    list_size (return n_segments)
      (let* gate = int_range 0 (n_gates - 1) in
       let* dt =
         frequency
           [ (3, return Nmos.Enhancement); (1, return Nmos.Depletion) ]
       in
       let* w = frequency [ (2, return 500); (1, return 1000) ] in
       let* n_links = int_range 1 3 in
       let* fingers = int_range 1 2 in
       return (gate, dt, w, n_links, fingers))
  in
  return (n_gates, segments)

let build_chain (n_gates, segments) =
  (* nets: 0 = A, 1 = B, 2..2+n_gates-1 = gates, rest anonymous *)
  let nets = ref [ net ~names:[ "B" ] 1; net ~names:[ "A" ] 0 ] in
  let n_nets = ref 2 in
  let fresh ?names () =
    let i = !n_nets in
    incr n_nets;
    nets := net ?names i :: !nets;
    i
  in
  let gates =
    List.init n_gates (fun i ->
        fresh ~names:[ Printf.sprintf "G%d" i ] ())
  in
  let devices = ref [] in
  let n_dev = ref 0 in
  (* each segment is a series chain of n_links devices from A to B,
     replicated fingers times in parallel *)
  List.iter
    (fun (gi, dt, w, n_links, fingers) ->
      let gate = List.nth gates gi in
      for _ = 1 to fingers do
        let rec go from k =
          let next = if k = 1 then 1 else fresh () in
          devices :=
            dev ~dtype:dt ~g:gate ~s:from ~d:next ~w ~l:500 !n_dev
            :: !devices;
          incr n_dev;
          if k > 1 then go next (k - 1)
        in
        go 0 n_links
      done)
    segments;
  circuit (List.rev !devices) (List.rev !nets)

(* Switch-level conduction: which named nets are connected, for a given
   on/off assignment of the gate nets (depletion devices always conduct). *)
let conduction (c : Circuit.t) gate_on =
  let n = Array.length c.Circuit.nets in
  let parent = Array.init n (fun i -> i) in
  let rec find i = if parent.(i) = i then i else find parent.(i) in
  let union i j = parent.(find i) <- find j in
  Array.iter
    (fun (d : Circuit.device) ->
      let on =
        match d.Circuit.dtype with
        | Nmos.Depletion -> true
        | Nmos.Enhancement -> gate_on d.Circuit.gate
      in
      if on then union d.Circuit.source d.Circuit.drain)
    c.Circuit.devices;
  (* connectivity matrix over named nets only *)
  let named = ref [] in
  Array.iteri
    (fun i (nt : Circuit.net) ->
      if nt.Circuit.names <> [] then named := (nt.Circuit.names, i) :: !named)
    c.Circuit.nets;
  List.concat_map
    (fun (na, i) ->
      List.filter_map
        (fun (nb, j) ->
          if na < nb && find i = find j then Some (na, nb) else None)
        !named)
    !named
  |> List.sort compare

let prop_reduce_preserves_conduction =
  Tutil.qtest ~count:200 "reduction preserves switch-level conduction"
    gen_chain_circuit (fun spec ->
      let c = build_chain spec in
      let r = Reduce.reduce c in
      (* multiplicities account for every original device *)
      let absorbed = Array.fold_left ( + ) 0 r.Reduce.mult in
      let series_extra =
        (* series merges keep the chain's shared multiplicity, so only
           parallel merges add to the sum; the invariant is that no
           device is lost *)
        absorbed + r.Reduce.merged >= Circuit.device_count c
      in
      if not series_extra then false
      else begin
        (* exhaustive over gate assignments: gates are nets 2..n *)
        let gates =
          Array.to_list c.Circuit.nets
          |> List.mapi (fun i (nt : Circuit.net) -> (i, nt.Circuit.names))
          |> List.filter_map (fun (i, names) ->
                 if List.exists (fun s -> String.length s > 0 && s.[0] = 'G') names
                 then Some i
                 else None)
        in
        let rec assignments = function
          | [] -> [ fun _ -> false ]
          | g :: rest ->
              List.concat_map
                (fun f ->
                  [
                    (fun x -> if x = g then true else f x);
                    (fun x -> if x = g then false else f x);
                  ])
                (assignments rest)
        in
        List.for_all
          (fun f -> conduction c f = conduction r.Reduce.circuit f)
          (assignments gates)
      end)

let prop_compare_reflexive =
  Tutil.qtest ~count:100 "every chain circuit matches itself"
    gen_chain_circuit (fun spec ->
      let c = build_chain spec in
      (Match.run ~layout:c ~reference:c ()).Match.outcome = Match.Clean)

let mirror_code = function
  | "lvs-extra-device" -> "lvs-missing-device"
  | "lvs-missing-device" -> "lvs-extra-device"
  | "lvs-net-split" -> "lvs-net-merge"
  | "lvs-net-merge" -> "lvs-net-split"
  | c -> c

let prop_compare_symmetric =
  Tutil.qtest ~count:100 "comparison is symmetric up to finding polarity"
    QCheck2.Gen.(pair gen_chain_circuit gen_chain_circuit)
    (fun (sa, sb) ->
      let a = build_chain sa and b = build_chain sb in
      let fwd = Match.run ~layout:a ~reference:b ()
      and bwd = Match.run ~layout:b ~reference:a () in
      let codes r =
        List.sort String.compare
          (List.map (fun (f : Match.finding) -> f.Match.code) r.Match.findings)
      in
      fwd.Match.outcome = bwd.Match.outcome
      && codes fwd = List.sort String.compare (List.map mirror_code
           (List.map (fun (f : Match.finding) -> f.Match.code)
              bwd.Match.findings)))

let prop_self_lvs_through_spice =
  Tutil.qtest ~count:100 "SPICE round trip self-compares clean"
    gen_chain_circuit (fun spec ->
      let c = build_chain spec in
      let reference, diags = Reference.parse (Spice.to_string c) in
      (not (List.exists Diag.is_error diags))
      && (Match.run ~layout:c ~reference ()).Match.outcome = Match.Clean)

(* One series chain A..B of uniform devices, each link gated by a
   distinct named net, then a random permutation of the link gates, a
   random S/D flip per link, and optionally the whole chain reversed:
   canonicalization must keep every variant Clean against the
   identity-ordered original. *)
let gen_perm_chain =
  let open QCheck2.Gen in
  let* n_links = int_range 2 5 in
  let* perm = shuffle_l (List.init n_links Fun.id) in
  let* flips = list_size (return n_links) bool in
  let* reversed = bool in
  return (n_links, perm, flips, reversed)

let build_perm_chain n_links order flips reversed =
  (* nets: 0 = A, 1 = B, 2..2+n-1 = gates G<i>, then n-1 interiors *)
  let n_nets = 2 + n_links + (n_links - 1) in
  let nets =
    List.init n_nets (fun i ->
        if i = 0 then net ~names:[ "A" ] 0
        else if i = 1 then net ~names:[ "B" ] 1
        else if i < 2 + n_links then
          net ~names:[ Printf.sprintf "G%d" (i - 2) ] i
        else net i)
  in
  let endpoint pos =
    if pos = 0 then if reversed then 1 else 0
    else if pos = n_links then if reversed then 0 else 1
    else 2 + n_links + (pos - 1)
  in
  let devices =
    List.mapi
      (fun j g ->
        let s = endpoint j and d = endpoint (j + 1) in
        let s, d = if List.nth flips j then (d, s) else (s, d) in
        dev ~g:(2 + g) ~s ~d j)
      order
  in
  circuit devices nets

let prop_gate_permutation_invariant =
  Tutil.qtest ~count:200
    "series gate permutations and S/D swaps compare clean" gen_perm_chain
    (fun (n, perm, flips, reversed) ->
      let straight =
        build_perm_chain n (List.init n Fun.id)
          (List.map (fun _ -> false) flips)
          false
      in
      let permuted = build_perm_chain n perm flips reversed in
      (Match.run ~layout:straight ~reference:permuted ()).Match.outcome
      = Match.Clean)

(* Random repeated-cell layouts: one random leaf cell instantiated m
   times in a chain at the top, with the reference written back as a
   .SUBCKT plus X cards (optionally with one instance's channel pins
   swapped).  The hierarchical comparator must return the flat verdict
   on every one, and re-running (fresh memo) must be deterministic. *)
let gen_hier_layout =
  let open QCheck2.Gen in
  let* m = int_range 2 6 in
  let* wired =
    list_size (int_range 1 2)
      (triple (int_range 0 3) (int_range 0 3) (int_range 0 3))
  in
  let* damage =
    frequency [ (3, return None); (1, map Option.some (int_range 0 (m - 1))) ]
  in
  return (m, wired, damage)

let build_hier_layout (m, wired, _damage) =
  let cell_devs =
    List.mapi
      (fun j (g, s, d) ->
        let d = if d = s then (d + 1) mod 4 else d in
        {
          Hier.dtype = Nmos.Enhancement;
          gate = g;
          source = s;
          drain = d;
          length = 500;
          width = 500;
          location = Point.make j 0;
        })
      wired
  in
  let cell =
    {
      Hier.part_name = "CELL";
      net_count = 4;
      exports = [ 0; 1; 2 ];
      net_names = [];
      devices = cell_devs;
      instances = [];
    }
  in
  let top_nets = m + 1 + 2 in
  let top =
    {
      Hier.part_name = "TOP";
      net_count = top_nets;
      exports = [];
      net_names =
        List.init (m + 1) (fun i -> (i, Printf.sprintf "T%d" i))
        @ [ (m + 1, "P0"); (m + 2, "P1") ];
      devices = [];
      instances =
        List.init m (fun i ->
            {
              Hier.part_name = "CELL";
              inst_name = Printf.sprintf "X%d" i;
              offset = Point.make i 0;
              net_map = [ (0, i + 1); (1, m + 1 + (i mod 2)); (2, i) ];
            });
    }
  in
  { Hier.parts = [ cell; top ]; top = "TOP" }

let hier_reference_text (m, wired, damage) =
  let buf = Buffer.create 256 in
  Buffer.add_string buf ".SUBCKT CELL E0 E1 E2\n";
  List.iteri
    (fun j (g, s, d) ->
      let d = if d = s then (d + 1) mod 4 else d in
      let nm i = if i < 3 then Printf.sprintf "E%d" i else "N3" in
      Buffer.add_string buf
        (Printf.sprintf "M%d %s %s %s 0 ENH L=5U W=5U\n" (j + 1) (nm d)
           (nm g) (nm s)))
    wired;
  Buffer.add_string buf ".ENDS\n";
  for i = 0 to m - 1 do
    let a = Printf.sprintf "T%d" (i + 1)
    and g = Printf.sprintf "P%d" (i mod 2)
    and b = Printf.sprintf "T%d" i in
    let a, b = if damage = Some i then (b, a) else (a, b) in
    Buffer.add_string buf (Printf.sprintf "X%d %s %s %s CELL\n" i a g b)
  done;
  Buffer.add_string buf ".END\n";
  Buffer.contents buf

let prop_hier_agrees_with_flat =
  Tutil.qtest ~count:100 "hierarchical LVS returns the flat verdict"
    gen_hier_layout (fun spec ->
      let layout = build_hier_layout spec in
      let text = hier_reference_text spec in
      match Reference.load ~name:"gen" text with
      | Error _ -> false
      | Ok (reference, _) ->
          let ref_view = Reference.hier_view ~name:"gen" text in
          let flat =
            Match.run ~layout:(Hier.flatten layout) ~reference ()
          in
          let h = HierLvs.run ~layout ~reference ?ref_view () in
          let h2 = HierLvs.run ~layout ~reference ?ref_view () in
          h.HierLvs.r.Match.outcome = flat.Match.outcome
          && h2.HierLvs.r.Match.outcome = h.HierLvs.r.Match.outcome
          && h2.HierLvs.cell_matches = h.HierLvs.cell_matches
          && h2.HierLvs.cell_hits = h.HierLvs.cell_hits)

(* ------------------------------------------------------------------ *)
(* Reference reader and flattener against Flatten_oracle              *)

module FO = Flatten_oracle

(* Ground names that reach the default, a case-folded and a '/'-keyed
   ground net. *)
let gnds = [ "GND"; "vss"; "X1/A" ]

(* The array reader and the oracle agree on the flat circuit (nets in
   order with names and locations, devices in order, diagnostics with
   spans), the view (cells, pins, instances) and [load_view]. *)
let reads_like_oracle text =
  List.for_all
    (fun gnd ->
      let flat = Reference.parse ~gnd text and view = Reference.hier_view ~gnd text in
      let oflat = FO.parse ~gnd text and oview = FO.hier_view ~gnd text in
      flat = oflat && view = oview
      &&
      match Reference.load_view ~gnd text with
      | Ok loaded, v -> loaded = oflat && v = oview
      | Error _, _ -> false)
    gnds

(* The paper chips at scale 0.1: each flat deck, each HEXT deck and each
   HEXT hierarchy. *)
let paper_hierarchies =
  lazy
    (List.map
       (fun (r : Ace_workloads.Chips.recipe) ->
         let design = r.build ~scale:0.1 in
         (r.chip_name, design, fst (Ace_hext.Hext.extract design)))
       Ace_workloads.Chips.paper_suite)

let test_reference_oracle_corpus () =
  let dir =
    List.find Sys.file_exists [ "../data"; "data"; "_build/default/data" ]
  in
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".sp")
  |> List.iter (fun f ->
         check (f ^ " reads as the oracle reads it") true
           (reads_like_oracle (data_file f)))

(* Decks where different (instance path, node) pairs spell one net key:
   instances named alike up to case, a top-level node spelled like an
   instance's local, an instance name with a '/', and ground named like
   a local. *)
let test_reference_key_collisions () =
  List.iter
    (fun text ->
      check (String.escaped text ^ " reads as the oracle reads it") true
        (reads_like_oracle text))
    [
      ".SUBCKT INV A\nM1 A N1 A ENH\n.ENDS\nX1 P INV\nx1 Q INV\n";
      ".SUBCKT INV A\nM1 A N1 A ENH\n.ENDS\nX1 P INV\nM2 X1/N1 P Q DEP\n";
      ".SUBCKT INV A\nM1 A N1 A ENH\n.ENDS\nXA/B P INV\nXA Q INV2\n\
       .SUBCKT INV2 A\nXB A INV\n.ENDS\n";
      ".SUBCKT C A\nM1 A B A ENH\n.ENDS\nX1 P C\nM2 P 0 GND ENH\n";
    ];
  (* ground named like instance X1's local A *)
  let text = ".SUBCKT C P\nM1 P A P ENH\n.ENDS\nX1 Q C\nM2 Q 0 Q ENH\n" in
  check "ground spelled X1/A" true
    (Reference.parse ~gnd:"x1/a" text = FO.parse ~gnd:"x1/a" text)

let test_reference_oracle_chips () =
  List.iter
    (fun (name, design, h) ->
      let flat = Ace_core.Parallel.extract ~jobs:1 ~name design in
      check (name ^ " flat deck") true
        (reads_like_oracle (Spice.to_string flat));
      check (name ^ " hierarchical deck") true
        (reads_like_oracle (Spice.of_hier h)))
    (Lazy.force paper_hierarchies)

(* [flatten_ext] and [flatten_sub] against the oracle's flatten_ext: the
   whole hierarchy, and the sub-hierarchy under up to 40 composite parts,
   whose root activation is the oracle's first of that part. *)
let flattens_like_oracle (h : Hier.t) =
  Hier.flatten_ext h = FO.flatten_ext h
  &&
  let ix = Hier.index h in
  let composite =
    List.filter (fun (p : Hier.part) -> p.Hier.instances <> []) h.Hier.parts
  in
  let step = max 1 (List.length composite / 40) in
  List.for_all
    (fun (p : Hier.part) ->
      let c, acts = FO.flatten_ext { h with Hier.top = p.Hier.part_name } in
      let root =
        List.find
          (fun (a : Hier.activation) -> a.Hier.act_part = p.Hier.part_name)
          acts
      in
      Hier.flatten_sub ix p.Hier.part_name = (c, root.Hier.act_nets))
    (List.filteri (fun i _ -> i mod step = 0) composite)

let test_flatten_oracle_chips () =
  List.iter
    (fun (name, _, h) ->
      check (name ^ " flattens as the oracle does") true (flattens_like_oracle h))
    (Lazy.force paper_hierarchies)

let test_flatten_sub_errors () =
  let bad =
    {
      Hier.parts =
        [
          {
            Hier.part_name = "P";
            net_count = 1;
            exports = [ 3 ];
            net_names = [];
            devices = [];
            instances = [];
          };
        ];
      top = "P";
    }
  in
  let message f = try ignore (f ()); "" with Hier.Error m -> m in
  let ix = Hier.index bad in
  check_string "flatten_sub fails as flatten does"
    (message (fun () -> Hier.flatten bad))
    (message (fun () -> Hier.flatten_sub ix "P"));
  let ix = Hier.index { bad with Hier.parts = [] } in
  check_string "an unknown root is an undefined top"
    (message (fun () -> Hier.flatten { Hier.parts = []; top = "Q" }))
    (message (fun () -> Hier.flatten_sub ix "Q"))

let prop_flatten_like_oracle =
  Tutil.qtest ~count:60 "HEXT hierarchies flatten as the oracle does"
    Tutil.gen_design (fun ast ->
      flattens_like_oracle (fst (Ace_hext.Hext.extract (Ace_cif.Design.of_ast ast))))

(* Random decks: nested and repeated subckts, repeated formals, .GLOBAL,
   node 0 and the GND alias, '/' in node and instance names, instance
   names alike up to case, '+' continuations, '$' and '*' comments,
   unknown models, undefined and recursive subckts, pin-count
   mismatches, bad numbers and cards, and truncated text. *)
let gen_deck =
  let open QCheck2.Gen in
  (* half the decks spell no '/', as real decks seldom do *)
  let* slashes = bool in
  let node =
    oneofl
      ([ "A"; "a"; "B"; "N1"; "n2"; "OUT"; "0"; "GND"; "gnd"; "VDD" ]
      @ if slashes then [ "X1/A"; "x1/b/" ] else [])
  in
  let size = frequency [ (1, return 0); (4, int_range 1 2); (1, return 3) ] in
  let sub = oneofl [ "INV"; "inv"; "BUF"; "CELL"; "NOPE" ] in
  let device =
    let* d = node and* g = node and* s = node and* bulk = bool in
    let* model = oneofl [ "ENH"; "DEP"; "nmos"; "N"; "NDEP"; "FOO"; "enh" ] in
    let* dims =
      oneofl
        [ ""; " L=5U W=10U"; " W=2.5 L=3N"; " l=1M"; " L=bad W=x"; " L=4U L=7U" ]
    in
    return
      (Printf.sprintf "M1 %s %s %s%s %s%s" d g s (if bulk then " 0" else "") model
         dims)
  in
  let instance =
    let* name =
      oneofl ([ "X1"; "x1"; "X2"; "X3" ] @ if slashes then [ "XA/B" ] else [])
    in
    let* nodes = list_size size node and* s = sub in
    return (Printf.sprintf "%s %s %s" name (String.concat " " nodes) s)
  in
  let odd =
    oneofl
      [
        "R1 A B 10K"; "garbage card"; "M2 A B"; "X9"; ".OPTIONS FOO";
        ".global VDD"; ".model FOO nmos VTO=-1"; ".MODEL BAR NMOS (VTO=0.7)";
        ".ENDS"; ".SUBCKT"; "M3 A B C D E F G"; "+ W=3U";
      ]
  in
  let card = frequency [ (6, device); (4, instance); (1, odd) ] in
  let subckt =
    let* name = sub and* pins = list_size size node in
    let* body = list_size (int_range 0 4) card and* closed = frequency [ (9, return true); (1, return false) ] in
    return
      (((".SUBCKT " ^ name ^ " " ^ String.concat " " pins) :: body)
      @ if closed then [ ".ENDS " ^ name ] else [])
  in
  let* subs = list_size (int_range 0 3) subckt in
  let* nest = bool in
  let subs =
    match subs with
    | a :: b :: rest when nest ->
        (* b defined inside a, before a's last line *)
        let n = List.length a in
        (List.filteri (fun i _ -> i < n - 1) a @ b @ List.filteri (fun i _ -> i = n - 1) a)
        :: rest
    | _ -> subs
  in
  let* top = list_size (int_range 0 6) card in
  let* tail = oneofl [ []; [ ".END" ]; [ ".END"; "M9 Q R S ENH" ] ] in
  let lines = List.concat subs @ top @ tail in
  let* marks = list_size (return (List.length lines)) (int_range 0 99) in
  let render line mark =
    let line = if mark mod 9 = 0 then "  " ^ String.lowercase_ascii line else line in
    let line =
      if mark mod 4 = 0 then
        match String.rindex_opt line ' ' with
        | Some k when k > 0 ->
            String.sub line 0 k ^ "\n+" ^ String.sub line k (String.length line - k)
        | _ -> line
      else line
    in
    let line = if mark mod 7 = 0 then line ^ " $ note" else line in
    let line = if mark mod 11 = 0 then "* comment\n" ^ line else line in
    if mark mod 13 = 0 then String.map (function ' ' -> ',' | c -> c) line ^ "\r"
    else line
  in
  let text = String.concat "\n" (List.map2 render lines marks) ^ "\n" in
  let* cut = frequency [ (3, return None); (1, map Option.some (int_range 0 (String.length text))) ] in
  return (match cut with None -> text | Some k -> String.sub text 0 k)

let prop_reference_like_oracle =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:400 ~print:String.escaped
       ~name:"reference decks read as the oracle reads them" gen_deck
       reads_like_oracle)

(* Decks whose view exists: subckts instantiate earlier ones with the
   right pin count, the top instantiates them under distinct names, and
   ground, a global and repeated formals cross the boundaries. *)
let gen_clean_deck =
  let open QCheck2.Gen in
  let inner = oneofl [ "P"; "Q"; "R"; "VDD"; "I"; "0" ] in
  let outer = oneofl [ "A"; "B"; "C"; "0"; "GND"; "VDD"; "Z" ] in
  let device net =
    let* d = net and* g = net and* s = net in
    let* m = oneofl [ "ENH"; "DEP" ] and* w = int_range 1 9 in
    return (Printf.sprintf "M1 %s %s %s %s W=%dU" d g s m w)
  in
  let instance name arities j actual =
    let* actuals = list_size (return (List.nth arities j)) actual in
    return (Printf.sprintf "%s %s S%d" name (String.concat " " actuals) j)
  in
  let* n_subs = int_range 1 3 in
  let* arities = list_size (return n_subs) (int_range 1 3) in
  let* defs =
    flatten_l
      (List.mapi
         (fun i n ->
           let* pins = list_size (return n) (oneofl [ "P"; "Q"; "R"; "VDD" ]) in
           let* devs = list_size (int_range 0 3) (device inner) in
           let* kids =
             if i = 0 then return []
             else
               list_size (int_range 0 2)
                 (let* j = int_range 0 (i - 1) in
                  instance (Printf.sprintf "X%d" j) arities j inner)
           in
           return
             (Printf.sprintf ".SUBCKT S%d %s\n%s\n.ENDS" i
                (String.concat " " pins)
                (String.concat "\n" (devs @ kids))))
         arities)
  in
  let* top_devs = list_size (int_range 0 3) (device outer) in
  let* n_top = int_range 1 4 in
  let* top_insts =
    flatten_l
      (List.init n_top (fun k ->
           let* j = int_range 0 (n_subs - 1) in
           instance (Printf.sprintf "XT%d" k) arities j outer))
  in
  let* global = bool in
  return
    (String.concat "\n"
       ((if global then [ ".GLOBAL VDD" ] else [])
       @ defs @ top_devs @ top_insts @ [ ".END" ])
    ^ "\n")

(* The view with every instance's cell body substituted into the glue:
   a body's pin nets become the instance's glue nets (the first pin of a
   repeated formal wins, as in the flat reading), its other nets fresh
   ones.  Every net gets a name, so [Match.exact] counts the dangling
   ones the flat reading names too. *)
let flatten_view (v : Reference.hview) =
  let n_nets = ref (Array.length v.Reference.hv_glue.Circuit.nets) in
  let devices = ref (List.rev (Array.to_list v.Reference.hv_glue.Circuit.devices)) in
  List.iter
    (fun (hi : Reference.hinst) ->
      let cell = v.Reference.hv_cells.(hi.Reference.hi_cell) in
      let body = cell.Reference.hc_body in
      let map = Array.make (Array.length body.Circuit.nets) (-1) in
      Array.iteri
        (fun k n -> if map.(n) < 0 then map.(n) <- hi.Reference.hi_nets.(k))
        cell.Reference.hc_pin_nets;
      Array.iteri
        (fun i m ->
          if m < 0 then begin
            map.(i) <- !n_nets;
            incr n_nets
          end)
        map;
      Array.iter
        (fun (d : Circuit.device) ->
          devices :=
            {
              d with
              Circuit.gate = map.(d.Circuit.gate);
              source = map.(d.Circuit.source);
              drain = map.(d.Circuit.drain);
            }
            :: !devices)
        body.Circuit.devices)
    v.Reference.hv_insts;
  circuit (List.rev !devices) (List.init !n_nets (fun i -> net ~names:[ "n" ] i))

let prop_view_matches_flat =
  QCheck_alcotest.to_alcotest
  @@ QCheck2.Test.make ~count:200 ~print:String.escaped
       ~name:"the view with its cells substituted is the flat reading"
       gen_clean_deck (fun text ->
      match Reference.hier_view text with
      | None -> false
      | Some v ->
          Match.exact ~with_sizes:true (flatten_view v)
            (fst (Reference.parse text))
          = Match.Equivalent)

(* [text] with [line] inserted before its last [marker]. *)
let insert_before_last text marker line =
  let rec find i =
    if String.sub text i (String.length marker) = marker then i
    else find (i - 1)
  in
  let cut = find (String.length text - String.length marker) in
  String.sub text 0 cut ^ line ^ String.sub text cut (String.length text - cut)

let codes diags = List.map (fun (d : Diag.t) -> d.Diag.code) diags

let has_net name (c : Circuit.t) =
  Array.exists (fun (n : Circuit.net) -> List.mem name n.Circuit.names)
    c.Circuit.nets

(* A deck past a cap keeps [devices] devices with one lvs-ref-too-large
   and gets no view.  The walk stops at the cap: an instance after it
   gets no nets and no diagnostic, though its subckt is undefined. *)
let check_bomb file ~devices =
  let text = data_file file in
  (match Reference.load text with
  | Ok (c, diags) ->
      check "only lvs-ref-too-large" true
        (codes diags = [ "lvs-ref-too-large" ]);
      check_int "truncated at the cap" devices (Circuit.device_count c)
  | Error _ -> Alcotest.fail "bomb deck unreadable");
  check "no view past the cap" true (Reference.hier_view text = None);
  let c, diags =
    Reference.parse (insert_before_last text ".END" "XU P Q NOPE\n")
  in
  check "nothing after the cap" true (codes diags = [ "lvs-ref-too-large" ]);
  check "no net after the cap" false (has_net "P" c)

(* 10^9 devices: the device cap. *)
let test_expansion_bomb () =
  check_bomb "regress/ref_expansion_bomb.sp" ~devices:1_000_000

(* One device and 10^9 activations of an empty subckt: the instance
   cap. *)
let test_instance_bomb () =
  check_bomb "regress/ref_instance_bomb.sp" ~devices:1

(* The same two hierarchies as structural-Verilog modules; an instance
   after the cap, of an unknown primitive, gets no net and no
   diagnostic. *)
let check_verilog_bomb file ~devices =
  let text = data_file file in
  let c, diags = Verilog.parse text in
  check "only lvs-ref-too-large" true (codes diags = [ "lvs-ref-too-large" ]);
  check_int "truncated at the cap" devices (Circuit.device_count c);
  let c, diags =
    Verilog.parse (insert_before_last text "endmodule" "  nope u9 (p, q);\n")
  in
  check "nothing after the cap" true (codes diags = [ "lvs-ref-too-large" ]);
  check "no net after the cap" false (has_net "p" c)

let test_verilog_expansion_bomb () =
  check_verilog_bomb "regress/ref_expansion_bomb.v" ~devices:1_000_000

let test_verilog_instance_bomb () =
  check_verilog_bomb "regress/ref_instance_bomb.v" ~devices:1

(* ------------------------------------------------------------------ *)
(* Refinement kernel against the list-based oracle (Lvs_oracle)       *)

(* Random switch graphs shaped to reach every kernel path: a rail net
   whose degree passes the insertion-sort cutoff (16) or 1000, devices
   with source = drain, gates tied to their own channel, and net names
   drawn from a tiny pool so seed colors repeat. *)
let gen_switch_graph =
  let open QCheck2.Gen in
  let* n_nets = int_range 2 24 in
  let net = int_range 0 (n_nets - 1) in
  let* devs =
    list_size (int_range 1 40)
      (let* dt =
         frequency [ (3, return Nmos.Enhancement); (1, return Nmos.Depletion) ]
       in
       let* g = net and* s = net and* d = net in
       return (dt, g, s, d))
  in
  let* n_rail = frequency [ (6, int_range 0 40); (1, int_range 1001 1060) ] in
  let* rail = list_size (return n_rail) (pair (int_range 0 3) net) in
  let* names = list_size (return n_nets) (int_range 0 5) in
  return (n_nets, devs, rail, names)

let switch_name = function
  | 1 -> [ "VDD" ]
  | 2 -> [ "GND" ]
  | 3 -> [ "A" ]
  | 4 -> [ "B" ]
  | _ -> []

(* Net 0 is the rail.  Rail devices: 0 gated by the rail, 1 with a
   channel end on it, 2 with source = drain = rail, 3 with the gate tied
   to its source; each has its own length, so reduction keeps them all
   and the rail keeps its degree. *)
let build_switch_graph (n_nets, devs, rail, names) =
  let devices =
    List.map (fun (dtype, g, s, d) -> (dtype, g, s, d, 500)) devs
    @ List.mapi
        (fun k (kind, n) ->
          let g, s, d =
            match kind with
            | 0 -> (0, n, (n + 1) mod n_nets)
            | 1 -> (n, 0, (n + 1) mod n_nets)
            | 2 -> (n, 0, 0)
            | _ -> (n, n, 0)
          in
          (Nmos.Enhancement, g, s, d, 600 + k))
        rail
  in
  circuit
    (List.mapi (fun i (dtype, g, s, d, l) -> dev ~dtype ~l ~g ~s ~d i) devices)
    (List.mapi (fun i k -> net ~names:(switch_name k) i) names)

let palette = [| 0; 0x56DD; 0x06ED; Oracle.str_code "A"; min_int; max_int |]

let test_sort_and_hash () =
  let rand = Random.State.make [| 14 |] in
  List.iter
    (fun n ->
      let values =
        List.init n (fun _ ->
            match Random.State.int rand 4 with
            | 0 -> palette.(Random.State.int rand (Array.length palette))
            | 1 -> Random.State.int rand 8
            | _ -> Random.State.bits rand - Random.State.bits rand)
      in
      let a = Array.of_list values in
      check_int (Printf.sprintf "distinct of %d values" n)
        (Oracle.distinct a)
        (Refine.distinct (Refine.scratch ()) a);
      check (Printf.sprintf "distinct leaves %d values in place" n) true
        (Array.to_list a = values);
      check_int (Printf.sprintf "hash of %d values" n) (Oracle.hash_sorted values)
        (Refine.hash_sorted_range a 0 n);
      check (Printf.sprintf "%d values sorted" n) true
        (Array.to_list a = List.sort Int.compare values))
    [ 0; 1; 2; 3; 15; 16; 17; 40; 1000; 1001; 4096 ];
  List.iter
    (fun (x, y) ->
      check_int "pair hash" (Oracle.hash_sorted [ x; y ]) (Refine.hash_pair x y))
    [ (0, 0); (1, -1); (max_int, min_int); (5, 5); (-7, 3) ]

(* The comparator's device formula on the kernel, round by round, against
   Lvs_oracle.round (the colors Match computes). *)
let prop_kernel_rounds =
  Tutil.qtest ~count:60 "kernel reproduces the list-based rounds"
    gen_switch_graph (fun spec ->
      let c = build_switch_graph spec in
      let o = Oracle.side_of c in
      o.Oracle.net_color <-
        Array.map (fun n -> palette.(n mod Array.length palette)) o.Oracle.nets;
      o.Oracle.dev_color <-
        Array.map (fun (d : Circuit.device) -> Oracle.type_code d.dtype)
          c.Circuit.devices;
      let pos n = Hashtbl.find o.Oracle.net_pos n in
      let g =
        Refine.graph ~nets:(Array.length o.Oracle.nets)
          (Array.map
             (fun (d : Circuit.device) ->
               [ (1, pos d.gate); (2, pos d.source); (2, pos d.drain) ])
             c.Circuit.devices)
      in
      let t = g.Refine.term_net in
      let nc = Array.copy o.Oracle.net_color
      and dc = ref (Array.copy o.Oracle.dev_color) in
      let s = Refine.scratch () in
      let ok = ref true in
      for _ = 1 to 8 do
        Oracle.round o;
        let dc' =
          Array.mapi
            (fun i d ->
              let k = 3 * i in
              let sd = Refine.hash_pair nc.(t.(k + 1)) nc.(t.(k + 2)) in
              Refine.mix (Refine.mix (Refine.mix d nc.(t.(k))) sd) 17)
            !dc
        in
        Refine.refine_nets g ~dev_color:dc' ~net_color:nc;
        dc := dc';
        ok :=
          !ok && dc' = o.Oracle.dev_color
          && nc = o.Oracle.net_color
          && Refine.distinct s nc = Oracle.distinct o.Oracle.net_color
          && Refine.distinct s dc' = Oracle.distinct o.Oracle.dev_color
      done;
      !ok)

(* A reference side for the whole comparator: the same circuit with its
   devices reversed and nets renamed through a SPICE round trip, or with
   one device dropped. *)
let prop_match_colors =
  Tutil.qtest ~count:60 "comparator colors and rounds equal the oracle's"
    QCheck2.Gen.(pair gen_switch_graph (int_range 0 2))
    (fun (spec, variant) ->
      let layout = build_switch_graph spec in
      let reference =
        match variant with
        | 0 -> fst (Reference.parse (Spice.to_string layout))
        | 1 ->
            {
              layout with
              Circuit.devices =
                Array.of_list (List.rev (Array.to_list layout.Circuit.devices));
            }
        | _ ->
            {
              layout with
              Circuit.devices =
                Array.sub layout.Circuit.devices 1
                  (Array.length layout.Circuit.devices - 1);
            }
      in
      let r, ca, cb = Match.run_full ~layout ~reference () in
      let rounds, oa, ob = Oracle.match_colors ~layout ~reference () in
      r.Match.stats.Match.rounds = rounds && ca = oa && cb = ob)

(* Series chains of identical devices between random ends, gated from a
   small pool (so chains repeat gate nets and gate nets reach high
   degree), with S/D flips, plus an optional fan-out of devices on end
   E0, each with its own length so reduction keeps them all. *)
let gen_chain_graph =
  let open QCheck2.Gen in
  let* n_ends = int_range 2 5 and* n_gates = int_range 1 4 in
  let* chains =
    list_size (int_range 1 12)
      (let* links = int_range 2 5 in
       let* gates = list_size (return links) (int_range 0 (n_gates - 1)) in
       let* flips = list_size (return links) bool in
       let* a = int_range 0 (n_ends - 1) and* b = int_range 0 (n_ends - 1) in
       return (gates, flips, a, b))
  in
  let* n_rail = frequency [ (6, int_range 0 20); (1, int_range 1001 1030) ] in
  return (n_ends, n_gates, chains, n_rail)

let build_chain_graph (n_ends, n_gates, chains, n_rail) =
  (* nets: ends E<i>, gates G<i>, then anonymous chain interiors *)
  let nets = ref [] and n_nets = ref 0 in
  let fresh names =
    let i = !n_nets in
    incr n_nets;
    nets := net ~names i :: !nets;
    i
  in
  let ends = Array.init n_ends (fun i -> fresh [ Printf.sprintf "E%d" i ]) in
  let gates = Array.init n_gates (fun i -> fresh [ Printf.sprintf "G%d" i ]) in
  let devices = ref [] and n_dev = ref 0 in
  let add ?l ~g ~s ~d () =
    devices := dev ?l ~g ~s ~d !n_dev :: !devices;
    incr n_dev
  in
  List.iter
    (fun (gs, flips, a, b) ->
      let links = List.length gs in
      let node = ref ends.(a) in
      List.iteri
        (fun k (gi, flip) ->
          let next = if k = links - 1 then ends.(b) else fresh [] in
          let s, d = if flip then (next, !node) else (!node, next) in
          add ~g:gates.(gi) ~s ~d ();
          node := next)
        (List.combine gs flips))
    chains;
  for k = 1 to n_rail do
    add ~l:(500 + k) ~g:gates.(k mod n_gates) ~s:ends.(0) ~d:ends.(k mod n_ends) ()
  done;
  circuit (List.rev !devices) (List.rev !nets)

let chain_seed n =
  if n mod 3 = 0 then 0 else Oracle.str_code (string_of_int (n mod 4))

let prop_canonicalize_equals_oracle =
  Tutil.qtest ~count:80 "canonicalize equals the list-based oracle"
    gen_chain_graph (fun spec ->
      let r = Reduce.reduce (build_chain_graph spec) in
      let mine = Reduce.canonicalize ~seed:chain_seed r
      and theirs = Oracle.canonicalize ~seed:chain_seed r in
      mine.Reduce.circuit = theirs.Reduce.circuit
      && mine.Reduce.mult = theirs.Reduce.mult)

(* canonicalize's loop on random collapsed graphs: per-round net colors
   (read when the kernel asks for node 0), final colors and rounds. *)
let prop_kernel_canon_loop =
  Tutil.qtest ~count:80 "kernel reproduces the canonicalize loop"
    QCheck2.Gen.(
      let* n_nets = int_range 2 20 in
      let net = int_range 0 (n_nets - 1) in
      let* nodes =
        list_size (int_range 1 30)
          (let* tag = int_range 0 3 in
           let* cg = list_size (int_range 1 4) net in
           let* t0 = net and* t1 = net in
           return (tag, cg, [ t0; t1 ]))
      in
      return (n_nets, Array.of_list nodes))
    (fun (n_nets, nodes) ->
      let snaps, final, rounds =
        Oracle.canon_loop ~n_nets ~seed:chain_seed nodes
      in
      let g =
        Refine.graph ~nets:n_nets
          (Array.map
             (fun (_, cg, ct) ->
               List.map (fun n -> (1, n)) cg @ List.map (fun n -> (2, n)) ct)
             nodes)
      in
      let off = g.Refine.dev_off and tn = g.Refine.term_net in
      let ncolor = Array.init n_nets chain_seed in
      let dcolor = Array.map (fun (tag, _, _) -> tag) nodes in
      let seen = ref [] in
      let step k =
        if k = 0 then seen := Array.copy ncolor :: !seen;
        let lo = off.(k) and hi = off.(k + 1) in
        let ends = Refine.hash_pair ncolor.(tn.(hi - 2)) ncolor.(tn.(hi - 1)) in
        Refine.mix
          (Refine.mix
             (Refine.mix dcolor.(k) (Refine.hash_terms g ncolor lo (hi - 2)))
             ends)
          19
      in
      let rounds' = Refine.run g ~net_color:ncolor ~dev_color:dcolor step in
      rounds' = rounds && List.rev !seen = snaps && ncolor = final)

(* The glue refinement on random (role, net) terminal lists, with roles
   that include arbitrary pin colors; verdicts compare a graph against
   its own devices in reverse order and against an independent graph. *)
let gen_glue_graph =
  let open QCheck2.Gen in
  let* n_nets = int_range 2 20 in
  let* devs =
    list_size (int_range 1 30)
      (let* tag = int_range 0 3 in
       let* terms =
         list_size (int_range 0 5)
           (pair
              (frequency [ (3, int_range 1 2); (1, int) ])
              (int_range 0 (n_nets - 1)))
       in
       return (tag, terms))
  in
  return (n_nets, Array.of_list devs)

let prop_glue_colors =
  Tutil.qtest ~count:80 "glue colors and verdicts equal the oracle's"
    QCheck2.Gen.(pair gen_glue_graph gen_glue_graph)
    (fun (ga, gb) ->
      let reversed (n_nets, devs) =
        (n_nets, Array.of_list (List.rev (Array.to_list devs)))
      in
      let both (n_nets, devs) =
        let na, da = Oracle.glue_refine ~n_nets ~seed:chain_seed devs in
        let na', da' = HierLvs.glue_colors ~nets:n_nets ~seed:chain_seed devs in
        ((na, da), (Array.to_list na', Array.to_list da'))
      in
      let oa, ka = both ga and ob, kb = both gb and oa', ka' = both (reversed ga) in
      oa = ka && ob = kb && oa' = ka' && oa = oa'
      && (oa = ob) = (ka = kb))

(* Cancellation reaches the canonicalizer's rounds. *)
let test_canonicalize_cancel () =
  let r =
    Reduce.reduce
      (build_perm_chain 4 [ 2; 0; 3; 1 ] [ false; true; false; true ] false)
  in
  let yields = ref 0 in
  let cancel = Cancel.create ~yield:(fun () -> incr yields) () in
  let r' = Reduce.canonicalize ~cancel r in
  check "canonicalize yields once per round" true (!yields >= 1);
  check "a live token changes nothing" true
    (r'.Reduce.circuit = (Reduce.canonicalize r).Reduce.circuit);
  let tripped = Cancel.create () in
  Cancel.cancel tripped;
  match Reduce.canonicalize ~cancel:tripped r with
  | _ -> Alcotest.fail "a tripped token must stop canonicalize"
  | exception Cancel.Cancelled _ -> ()

(* A traced comparison records one span per LVS stage. *)
let test_lvs_spans () =
  Trace.start ();
  let session =
    match
      let layout = extract_cif "nand2.cif" in
      let reference, _ = Reference.parse (data_file "nand2.extra.sp") in
      ignore (Match.run ~layout ~reference ());
      ignore (hier_run "mesh4x4.cif" "mesh4x4.sp")
    with
    | () -> Trace.stop ()
    | exception e ->
        ignore (Trace.stop ());
        raise e
  in
  let names =
    List.concat_map
      (fun (t : Trace.track) ->
        Array.to_list t.Trace.t_events
        |> List.filter_map (fun (e : Trace.event) ->
               if e.Trace.kind = Trace.Begin then Some e.Trace.ename else None))
      session.Trace.tracks
  in
  List.iter
    (fun span -> check (span ^ " recorded") true (List.mem span names))
    [
      "lvs.reference"; "lvs.hier_view"; "lvs.reduce"; "lvs.canonicalize";
      "lvs.refine"; "lvs.localize"; "lvs.hier";
    ]

(* ------------------------------------------------------------------ *)
(* Exact equivalence                                                   *)

(* A three-inverter chain on nets VDD 0, GND 1, IN 2, 3, 4 and [out] 5.
   Refinement ends with every net and device in its own color class, so
   [exact] verifies the induced mapping edge by edge. *)
let chain3 ?(out = "OUT") () =
  circuit
    [
      dev ~g:2 ~s:1 ~d:3 0;
      dev ~dtype:Nmos.Depletion ~g:3 ~s:3 ~d:0 1;
      dev ~g:3 ~s:1 ~d:4 2;
      dev ~dtype:Nmos.Depletion ~g:4 ~s:4 ~d:0 3;
      dev ~g:4 ~s:1 ~d:5 4;
      dev ~dtype:Nmos.Depletion ~g:5 ~s:5 ~d:0 5;
    ]
    [
      net ~names:[ "VDD" ] 0;
      net ~names:[ "GND" ] 1;
      net ~names:[ "IN" ] 2;
      net 3;
      net 4;
      net ~names:[ out ] 5;
    ]

let verdict = Alcotest.testable (Fmt.of_to_string Match.verdict_to_string) ( = )

let structural = function
  | Match.Distinct (Match.Structure _) -> true
  | Match.Equivalent | Match.Distinct _ -> false

let test_exact_counts () =
  let c = chain3 () in
  let fewer = { c with Circuit.devices = Array.sub c.Circuit.devices 0 5 } in
  Alcotest.check verdict "dropped device"
    (Match.Distinct (Match.Device_counts (6, 5)))
    (Match.exact c fewer);
  check_string "device message" "distinct: device counts differ: 6 vs 5"
    (Match.verdict_to_string (Match.exact c fewer));
  (* a named net with no devices is a connected net; an unnamed one is
     not *)
  let with_net names =
    { c with Circuit.nets = Array.append c.Circuit.nets [| net ~names 6 |] }
  in
  Alcotest.check verdict "named deviceless net"
    (Match.Distinct (Match.Net_counts (6, 7)))
    (Match.exact c (with_net [ "SPARE" ]));
  check_string "net message" "connected net counts differ: 6 vs 7"
    (Match.reason_to_string (Match.Net_counts (6, 7)));
  Alcotest.check verdict "unnamed deviceless net" Match.Equivalent
    (Match.exact c (with_net []))

let test_exact_names () =
  let c = chain3 () in
  check "renamed net distinct under names" true
    (structural (Match.exact ~with_names:true c (chain3 ~out:"Q" ())));
  check "names compare case-sensitively" true
    (structural (Match.exact ~with_names:true c (chain3 ~out:"out" ())));
  Alcotest.check verdict "renamed net equivalent without names"
    Match.Equivalent
    (Match.exact c (chain3 ~out:"Q" ()))

let test_exact_individuated () =
  let c = chain3 () in
  (* reverse the net and device numbering and swap every channel *)
  let n = Array.length c.Circuit.nets and m = Array.length c.Circuit.devices in
  let p i = n - 1 - i in
  let renumbered =
    {
      c with
      Circuit.nets = Array.init n (fun i -> c.Circuit.nets.(p i));
      devices =
        Array.init m (fun k ->
            let (d : Circuit.device) = c.Circuit.devices.(m - 1 - k) in
            { d with gate = p d.gate; source = p d.drain; drain = p d.source });
    }
  in
  List.iter
    (fun (with_sizes, with_names) ->
      Alcotest.check verdict "renumbered copy" Match.Equivalent
        (Match.exact ~with_sizes ~with_names c renumbered))
    [ (false, false); (true, false); (false, true); (true, true) ];
  (* the last pull-down's gate moves from net 4 to IN: same counts *)
  let rewired =
    {
      c with
      Circuit.devices =
        Array.mapi
          (fun k (d : Circuit.device) -> if k = 4 then { d with gate = 2 } else d)
          c.Circuit.devices;
    }
  in
  check "rewired copy distinct" true (structural (Match.exact c rewired))

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "lvs"
    [
      ( "reference",
        [
          Alcotest.test_case "basics" `Quick test_parse_basics;
          Alcotest.test_case "lexing" `Quick test_parse_lexing;
          Alcotest.test_case "dimensions" `Quick test_parse_dims;
          Alcotest.test_case "hierarchy" `Quick test_parse_hierarchy;
          Alcotest.test_case "hierarchy errors" `Quick
            test_parse_hierarchy_errors;
          Alcotest.test_case "lenient" `Quick test_parse_lenient;
          Alcotest.test_case "wirelist sniff" `Quick test_load_sniffs_wirelist;
          Alcotest.test_case "repeated formal" `Quick test_parse_repeated_formal;
          Alcotest.test_case "expansion bomb" `Quick test_expansion_bomb;
          Alcotest.test_case "instance bomb" `Quick test_instance_bomb;
          Alcotest.test_case "oracle: data decks" `Quick
            test_reference_oracle_corpus;
          Alcotest.test_case "oracle: key collisions" `Quick
            test_reference_key_collisions;
          Alcotest.test_case "oracle: paper chip decks" `Quick
            test_reference_oracle_chips;
          prop_reference_like_oracle;
          prop_view_matches_flat;
        ] );
      ( "flatten",
        [
          Alcotest.test_case "oracle: paper chips" `Quick
            test_flatten_oracle_chips;
          Alcotest.test_case "flatten_sub errors" `Quick test_flatten_sub_errors;
          prop_flatten_like_oracle;
        ] );
      ( "reduce",
        [
          Alcotest.test_case "parallel" `Quick test_reduce_parallel;
          Alcotest.test_case "series" `Quick test_reduce_series;
          Alcotest.test_case "names and gates" `Quick
            test_reduce_respects_names_and_gates;
        ] );
      ( "match",
        [
          Alcotest.test_case "corpus clean" `Quick test_corpus_clean;
          Alcotest.test_case "seeded mismatches" `Quick test_seeded_mismatches;
          Alcotest.test_case "size knobs" `Quick test_size_knobs;
          Alcotest.test_case "one-sided names" `Quick
            test_one_sided_names_harmless;
          Alcotest.test_case "shared names pin" `Quick test_shared_names_pin;
          Alcotest.test_case "canonicalize swapped nand" `Quick
            test_canonicalize_swapped_nand;
          Alcotest.test_case "max findings" `Quick test_max_findings;
        ] );
      ( "exact",
        [
          Alcotest.test_case "counts" `Quick test_exact_counts;
          Alcotest.test_case "names" `Quick test_exact_names;
          Alcotest.test_case "individuated" `Quick test_exact_individuated;
        ] );
      ( "verilog",
        [
          Alcotest.test_case "basics" `Quick test_verilog_basics;
          Alcotest.test_case "total on garbage" `Quick test_verilog_total;
          Alcotest.test_case "corpus" `Quick test_verilog_corpus;
          Alcotest.test_case "expansion bomb" `Quick test_verilog_expansion_bomb;
          Alcotest.test_case "instance bomb" `Quick test_verilog_instance_bomb;
        ] );
      ( "hier",
        [
          Alcotest.test_case "agrees with flat" `Quick
            test_hier_agrees_with_flat;
          Alcotest.test_case "mesh counters" `Quick test_hier_mesh_counters;
          Alcotest.test_case "cell findings" `Quick test_hier_cell_findings;
        ] );
      ( "refine",
        [
          Alcotest.test_case "sort, hash and distinct" `Quick test_sort_and_hash;
          Alcotest.test_case "canonicalize cancel" `Quick
            test_canonicalize_cancel;
          Alcotest.test_case "stage spans" `Quick test_lvs_spans;
          prop_kernel_rounds;
          prop_match_colors;
          prop_canonicalize_equals_oracle;
          prop_kernel_canon_loop;
          prop_glue_colors;
        ] );
      ( "report",
        [
          Alcotest.test_case "baseline round-trip" `Quick test_report_baseline;
          Alcotest.test_case "rules cover codes" `Quick
            test_report_rules_cover_codes;
        ] );
      ( "properties",
        [
          prop_reduce_preserves_conduction;
          prop_compare_reflexive;
          prop_compare_symmetric;
          prop_self_lvs_through_spice;
          prop_gate_permutation_invariant;
          prop_hier_agrees_with_flat;
        ] );
    ]
