(* acelvs — layout-vs-schematic comparison on the shared CLI conventions.

   The layout side is a .cif layout (extracted in-process, optionally
   sharded with -j) or an already-extracted wirelist; the reference side
   is a SPICE-ish schematic netlist (Ace_lvs.Reference) or a wirelist.
   Exit codes: 0 = clean, 1 = mismatch (or error diagnostics),
   2 = unreadable input, 3 = inconclusive (the colour multisets agree
   but the mapping they induce does not verify). *)

module Diag = Ace_diag.Diag
module Lvs = Ace_lvs

let fail_usage msg =
  prerr_endline ("acelvs: " ^ msg);
  exit 2

(* Layout side, exactly like acecheck: CIF by suffix, wirelist otherwise,
   CIF as the fallback for suffix-less files. *)
let load_layout ~strict ~max_errors ~jobs path =
  match Cli_common.read_input path with
  | Error d -> (None, "", [ d ])
  | Ok text ->
      let from_cif () =
        match Cli_common.load_text ~strict ~max_errors text with
        | None, diags -> (None, text, diags)
        | Some design, diags ->
            let name = Filename.basename path in
            (Some (Ace_core.Parallel.extract ~jobs ~name design), text, diags)
      in
      if Filename.check_suffix path ".cif" then from_cif ()
      else (
        match Ace_netlist.Wirelist.of_string text with
        | c -> (Some c, text, [])
        | exception Ace_netlist.Wirelist.Error _ -> from_cif ())

(* Hierarchical layout side: CIF through the hierarchical extractor, a
   Figure 2-2 wirelist through Hier.of_string.  Flat wirelists have no
   hierarchy to exploit; the caller falls back to the flat path. *)
let load_layout_hier ~strict ~max_errors path =
  match Cli_common.read_input path with
  | Error d -> (None, "", [ d ])
  | Ok text ->
      let from_cif () =
        match Cli_common.load_text ~strict ~max_errors text with
        | None, diags -> (None, text, diags)
        | Some design, diags ->
            let h, _ = Ace_hext.Hext.extract design in
            (Some h, text, diags)
      in
      if Filename.check_suffix path ".cif" then from_cif ()
      else (
        match Ace_netlist.Hier.of_string text with
        | h -> (Some h, text, [])
        | exception Ace_netlist.Hier.Error _ -> (None, text, []))

let load_reference ~format ~want_view ~vdd ~gnd path =
  match Cli_common.read_input path with
  | Error d -> (None, None, "", [ d ])
  | Ok text -> (
      let name = Filename.basename path in
      let verilog =
        match format with
        | `Verilog -> true
        | `Spice -> false
        | `Auto -> Filename.check_suffix path ".v"
      in
      if verilog then
        let c, diags = Lvs.Verilog.parse ~name ~vdd ~gnd text in
        (Some c, None, text, diags)
      else
        let loaded, view =
          if want_view then Lvs.Reference.load_view ~name ~gnd text
          else (Lvs.Reference.load ~name ~gnd text, None)
        in
        match loaded with
        | Ok (c, diags) -> (Some c, view, text, diags)
        | Error d -> (None, None, text, [ d ]))

let print_rules () =
  Printf.printf "%-26s %-8s %s\n" "CODE" "LEVEL" "SUMMARY";
  List.iter
    (fun (r : Ace_diag.Sarif.rule) ->
      Printf.printf "%-26s %-8s %s\n" r.id r.level r.summary)
    (Lvs.Report.sarif_rules ())

let run layout_path ref_path vdd gnd no_sizes tolerance strict max_errors
    diag_format baseline_file write_baseline list_rules stats jobs hier
    ref_format max_findings trace =
  Cli_common.setup_trace trace;
  if list_rules then begin
    print_rules ();
    exit 0
  end;
  if jobs < 1 then fail_usage "-j must be at least 1";
  if tolerance < 0. then fail_usage "--tolerance must be non-negative";
  if max_findings < 0 then fail_usage "--max-findings must be non-negative";
  let layout, layout_src, layout_diags =
    let flat () =
      let c, src, diags = load_layout ~strict ~max_errors ~jobs layout_path in
      (Option.map (fun c -> `Flat c) c, src, diags)
    in
    if hier then
      match load_layout_hier ~strict ~max_errors layout_path with
      | Some h, src, diags -> (Some (`Hier h), src, diags)
      | None, _, _ ->
          (* no exploitable hierarchy (flat wirelist, unreadable CIF):
             the flat path owns diagnostics and the verdict *)
          flat ()
    else flat ()
  in
  let reference, ref_view, ref_src, ref_diags =
    load_reference ~format:ref_format ~want_view:hier ~vdd ~gnd ref_path
  in
  let sarif = diag_format = Cli_common.Sarif in
  let rules = Lvs.Report.sarif_rules () in
  (match (layout, reference) with
  | Some _, Some _ -> ()
  | _ ->
      Cli_common.report ~format:diag_format ~tool:"acelvs" ~uri:layout_path
        ~rules
        (layout_diags @ ref_diags);
      exit 2);
  let layout = Option.get layout and reference = Option.get reference in
  if strict && List.exists Diag.is_error ref_diags then begin
    Cli_common.report ~format:diag_format ~tool:"acelvs" ~uri:ref_path ~rules
      ~source:ref_src (layout_diags @ ref_diags);
    exit 2
  end;
  let r, hier_stats =
    match layout with
    | `Hier h ->
        let hr =
          Lvs.Hier.run ~with_sizes:(not no_sizes) ~tolerance ~vdd ~gnd
            ~max_findings ~layout:h ~reference ?ref_view ()
        in
        (hr.Lvs.Hier.r, Some hr)
    | `Flat layout ->
        ( Lvs.Match.run ~with_sizes:(not no_sizes) ~tolerance ~vdd ~gnd
            ~max_findings ~layout ~reference (),
          None )
  in
  let fingerprinted =
    List.map (fun f -> (f, Lvs.Report.fingerprint f)) r.Lvs.Match.findings
  in
  let baseline =
    match baseline_file with
    | None -> Ace_lint.Baseline.empty
    | Some path -> (
        match Ace_lint.Baseline.load path with
        | Ok b -> b
        | Error m -> fail_usage m)
  in
  let kept, waived =
    List.partition
      (fun (_, fp) -> not (Ace_lint.Baseline.mem baseline fp))
      fingerprinted
  in
  (match write_baseline with
  | None -> ()
  | Some path ->
      let path =
        if path <> "" then path
        else
          match baseline_file with
          | Some p -> p
          | None ->
              fail_usage
                "--write-baseline needs a path (or --baseline to overwrite)"
      in
      Ace_lint.Baseline.save path
        (Ace_lint.Baseline.of_fingerprints (List.map snd fingerprinted)));
  let annotated =
    List.map (fun (f, fp) -> (Lvs.Report.to_diag f, fp)) kept
  in
  let fingerprint d = List.assq_opt d annotated in
  if sarif then
    (* SARIF is one complete log per run: everything in one call, located
       in the layout artifact (findings carry no source spans anyway). *)
    Cli_common.report ~format:diag_format ~tool:"acelvs" ~uri:layout_path
      ~rules ~fingerprint
      (layout_diags @ ref_diags @ List.map fst annotated)
  else begin
    Cli_common.report ~format:diag_format ~tool:"acelvs" ~source:layout_src
      layout_diags;
    Cli_common.report ~format:diag_format ~tool:"acelvs" ~source:ref_src
      ref_diags;
    Cli_common.report ~format:diag_format ~tool:"acelvs" ~rules ~fingerprint
      (List.map fst annotated)
  end;
  let effective_outcome =
    if kept = [] then Lvs.Match.Clean else r.Lvs.Match.outcome
  in
  let s = r.Lvs.Match.stats in
  let verdict =
    match effective_outcome with
    | Lvs.Match.Clean -> "clean"
    | Lvs.Match.Mismatch -> "MISMATCH"
    | Lvs.Match.Inconclusive -> "inconclusive"
  in
  let summary =
    Printf.sprintf
      "%s vs %s: %s — %d/%d devices, %d/%d nets (layout/reference), %d \
       findings%s"
      layout_path ref_path verdict s.Lvs.Match.layout_devices
      s.Lvs.Match.ref_devices s.Lvs.Match.layout_nets s.Lvs.Match.ref_nets
      (List.length kept)
      (match List.length waived with
      | 0 -> ""
      | n -> Printf.sprintf " (%d waived by baseline)" n)
  in
  (* SARIF owns stdout: human chatter moves to stderr. *)
  let oc = if sarif then stderr else stdout in
  Printf.fprintf oc "%s\n" summary;
  flush oc;
  if stats then begin
    Printf.eprintf
      "acelvs: %d devices matched, %d series/parallel reductions, %d \
       refinement rounds\n"
      s.Lvs.Match.matched s.Lvs.Match.reductions s.Lvs.Match.rounds;
    (match hier_stats with
    | Some hr ->
        Printf.eprintf
          "acelvs: hierarchical: %d cell matches, %d memo hits%s\n"
          hr.Lvs.Hier.cell_matches hr.Lvs.Hier.cell_hits
          (if hr.Lvs.Hier.fallback then " (fell back to flat compare)"
           else "")
    | None -> ());
    Cli_common.print_counters ()
  end;
  match effective_outcome with
  | Lvs.Match.Inconclusive -> exit 3
  | Lvs.Match.Mismatch -> exit 1
  | Lvs.Match.Clean ->
      exit
        (Cli_common.exit_code
           ~diags:
             (List.filter Diag.is_error
                (layout_diags @ ref_diags @ List.map fst annotated))
           ~usable:true)

open Cmdliner

let layout_path =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"LAYOUT" ~doc:"A .cif layout or an extracted wirelist.")

let ref_path =
  Arg.(
    required
    & pos 1 (some string) None
    & info [] ~docv:"REFERENCE"
        ~doc:"The reference netlist: SPICE-ish (.sp) or a wirelist.")

let vdd = Arg.(value & opt string "VDD" & info [ "vdd" ] ~docv:"NAME")
let gnd = Arg.(value & opt string "GND" & info [ "gnd" ] ~docv:"NAME")

let no_sizes =
  Arg.(
    value & flag
    & info [ "no-sizes" ]
        ~doc:"Skip the transistor L/W audit (topology and multiplicity only).")

let tolerance =
  Arg.(
    value & opt float 0.
    & info [ "tolerance" ] ~docv:"FRAC"
        ~doc:
          "Relative L/W deviation allowed before a size mismatch is \
           reported, e.g. $(b,0.05) for 5%.  Reference sizes of 0 \
           (unspecified) are never checked.")

let baseline_file =
  Arg.(
    value
    & opt (some string) None
    & info [ "baseline" ] ~docv:"FILE"
        ~doc:
          "Waiver baseline: findings whose fingerprints appear in $(docv) \
           are suppressed, so only new discrepancies are reported.")

let write_baseline =
  Arg.(
    value
    & opt ~vopt:(Some "") (some string) None
    & info [ "write-baseline" ] ~docv:"FILE"
        ~doc:
          "Write the fingerprints of every finding of this run to $(docv) \
           (use $(b,--write-baseline=FILE)); with no value, overwrite the \
           $(b,--baseline) file.")

let list_rules =
  Arg.(
    value & flag
    & info [ "list-rules" ]
        ~doc:"Print every stable lvs-* code with its level and summary, then \
              exit.")

let stats =
  Arg.(
    value & flag
    & info [ "s"; "stats" ]
        ~doc:
          "Print match/reduction/refinement telemetry and the counter table \
           on standard error.")

let jobs =
  Arg.(
    value & opt int 1
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Extract CIF layout input with $(docv) parallel shards (see \
           $(b,ace -j)); ignored for wirelist input.")

let hier =
  Arg.(
    value & flag
    & info [ "hier" ]
        ~doc:
          "Compare hierarchically: match each distinct layout cell against \
           a reference subcircuit once, memoize the verdict, and verify \
           only the top-level glue.  Verdicts are identical to the flat \
           compare (any obstruction falls back to it); $(b,lvs-cell-*) \
           findings name cells that fail to match.  Needs a CIF layout or \
           a hierarchical wirelist, and a $(b,.SUBCKT)-structured SPICE \
           reference; degenerates gracefully to the flat compare \
           otherwise.")

let ref_format =
  Arg.(
    value
    & opt (enum [ ("auto", `Auto); ("spice", `Spice); ("verilog", `Verilog) ])
        `Auto
    & info [ "ref-format" ] ~docv:"FMT"
        ~doc:
          "Reference netlist dialect: $(b,spice) (SPICE-ish or CMU \
           wirelist), $(b,verilog) (structural Verilog with \
           $(b,not)/$(b,nand)/$(b,nor)/$(b,nmos) primitives lowered to \
           NMOS networks), or $(b,auto) (default: by file suffix, \
           $(b,.v) means verilog).")

let max_findings =
  Arg.(
    value & opt int 20
    & info [ "max-findings" ] ~docv:"N"
        ~doc:
          "Cap each per-code finding flood at $(docv), with an overflow \
           note ($(b,0) = unlimited).  Default 20.")

let cmd =
  Cmd.v
    (Cmd.info "acelvs"
       ~doc:
         "Layout-vs-schematic: compare an extracted layout against a \
          reference netlist by series/parallel reduction and seeded \
          partition refinement")
    Term.(
      const run $ layout_path $ ref_path $ vdd $ gnd $ no_sizes $ tolerance
      $ Cli_common.strict_t $ Cli_common.max_errors_t
      $ Cli_common.diag_format_t $ baseline_file $ write_baseline $ list_rules
      $ stats $ jobs $ hier $ ref_format $ max_findings $ Cli_common.trace_t)

let () = exit (Cmd.eval cmd)
