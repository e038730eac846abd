(* acecheck — the electrical rule engine (Ace_lint) over a layout or
   wirelist: configurable rule registry, waiver baselines, and text / JSON
   / SARIF reporting under one --diag-format flag. *)

module Lint = Ace_lint

(* Returns the circuit (None = unrecoverable), the input text and the
   front-end diagnostics. *)
let load ~strict ~max_errors ~jobs ~tile path =
  match Cli_common.read_input path with
  | Error d -> (None, "", [ d ])
  | Ok text ->
      let from_cif () =
        match Cli_common.load_text ~strict ~max_errors text with
        | None, diags -> (None, text, diags)
        | Some design, diags ->
            let name = Filename.basename path in
            ( Some (Ace_core.Parallel.extract ~jobs ?tile ~name design),
              text,
              diags )
      in
      if Filename.check_suffix path ".cif" then from_cif ()
      else (
        match Ace_netlist.Wirelist.of_string text with
        | c -> (Some c, text, [])
        | exception Ace_netlist.Wirelist.Error _ ->
            (* fall back to CIF for suffix-less files *)
            from_cif ())

let fail_usage msg =
  prerr_endline ("acecheck: " ^ msg);
  exit 2

let print_rules () =
  Printf.printf "%-16s %-8s %s\n" "CODE" "DEFAULT" "SUMMARY";
  List.iter
    (fun (r : Lint.Rule.t) ->
      Printf.printf "%-16s %-8s %s\n" r.code
        (Lint.Finding.severity_to_string r.default)
        r.summary)
    Lint.Rules.all

(* --rules FILE first, then --rule code=level overrides, newest winning. *)
let build_config rules_file overrides =
  let cfg = Lint.Config.default in
  let cfg =
    match rules_file with
    | None -> cfg
    | Some path -> (
        match Cli_common.read_input path with
        | Error d -> fail_usage d.Ace_diag.Diag.message
        | Ok text -> (
            match Lint.Config.parse ~file:path cfg text with
            | Ok cfg -> cfg
            | Error m -> fail_usage m))
  in
  List.fold_left
    (fun cfg spec ->
      match Lint.Config.parse_binding cfg spec with
      | Ok cfg -> cfg
      | Error m -> fail_usage (Printf.sprintf "--rule %s: %s" spec m))
    cfg overrides

let sarif_rules () =
  List.map
    (fun (r : Lint.Rule.t) ->
      {
        Ace_diag.Sarif.id = r.code;
        summary = r.summary;
        help = r.doc;
        level = Lint.Finding.sarif_level r.default;
      })
    Lint.Rules.all

let run input vdd gnd verbose timing flow stats strict max_errors
    diag_format rules_file rule_overrides baseline_file write_baseline
    list_rules jobs tile trace =
  Cli_common.setup_trace trace;
  if list_rules then begin
    print_rules ();
    exit 0
  end;
  if jobs < 1 then fail_usage "-j must be at least 1";
  let tile =
    match tile with
    | None -> None
    | Some spec -> (
        match Ace_core.Parallel.tile_of_string spec with
        | Ok g -> Some g
        | Error msg -> fail_usage msg)
  in
  let config = build_config rules_file rule_overrides in
  let circuit, source, diags = load ~strict ~max_errors ~jobs ~tile input in
  let report = Cli_common.report ~format:diag_format ~tool:"acecheck" ~uri:input in
  match circuit with
  | None ->
      report ~source diags;
      exit 2
  | Some circuit ->
      (* the context is kept so that -s can report the verdict the flow-*
         rules forced, if they forced one *)
      let ctx =
        Lint.Engine.context ~config ~vdd ~gnd
          ~flow:(if flow then `Auto else `Off)
          circuit
      in
      let findings = Lint.Engine.check config ctx in
      let fingerprinted =
        List.map (fun f -> (f, Lint.Finding.fingerprint circuit f)) findings
      in
      let baseline =
        match baseline_file with
        | None -> Lint.Baseline.empty
        | Some path -> (
            match Lint.Baseline.load path with
            | Ok b -> b
            | Error m -> fail_usage m)
      in
      let kept, waived =
        List.partition
          (fun (_, fp) -> not (Lint.Baseline.mem baseline fp))
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
                    "--write-baseline needs a path (or --baseline to \
                     overwrite)"
          in
          Lint.Baseline.save path
            (Lint.Baseline.of_fingerprints (List.map snd fingerprinted)));
      (* Info findings are hidden unless -v, except in SARIF where CI wants
         the complete picture. *)
      let shown =
        List.filter
          (fun ((f : Lint.Finding.t), _) ->
            verbose
            || diag_format = Cli_common.Sarif
            || f.severity <> Lint.Finding.Info)
          kept
      in
      let annotated =
        List.map
          (fun (f, fp) -> (Lint.Finding.to_diag circuit f, fp))
          shown
      in
      let timing_result, timing_diags =
        if timing then Ace_analysis.Sta.analyze_checked ~vdd ~gnd circuit
        else (None, [])
      in
      let fingerprint d = List.assq_opt d annotated in
      report ~source ~rules:(sarif_rules ()) ~fingerprint
        (diags @ List.map fst annotated @ timing_diags);
      let errors, warnings, infos = Lint.Finding.summarize (List.map fst kept) in
      let summary =
        Printf.sprintf
          "%s: %d devices, %d nets — %d errors, %d warnings, %d infos%s" input
          (Ace_netlist.Circuit.device_count circuit)
          (Ace_netlist.Circuit.net_count circuit)
          errors warnings infos
          (match List.length waived with
          | 0 -> ""
          | n -> Printf.sprintf " (%d waived by baseline)" n)
      in
      let info_ppf =
        (* SARIF owns stdout: human chatter moves to stderr *)
        if diag_format = Cli_common.Sarif then Format.err_formatter
        else Format.std_formatter
      in
      Format.fprintf info_ppf "%s@." summary;
      if timing then begin
        match (timing_result, timing_diags) with
        | Some r, _ ->
            Format.fprintf info_ppf "@.timing: %a"
              (Ace_analysis.Sta.pp_result circuit) r
        | None, _ :: _ ->
            Format.fprintf info_ppf "@.timing: skipped (missing rail)@."
        | None, [] -> Format.fprintf info_ppf "@.timing: no gates recognized@."
      end;
      Format.pp_print_flush info_ppf ();
      (* -s: solver telemetry on stderr, like ace -s. *)
      if stats then begin
        let verdict = ctx.Lint.Rule.flow in
        (if not flow then
           Printf.eprintf "acecheck: flow analysis off (use --flow)\n"
         else if not (Lazy.is_val verdict) then
           Printf.eprintf
             "acecheck: flow analysis not run (no flow-* rule enabled)\n"
         else
           match Lazy.force verdict with
           | None -> Printf.eprintf "acecheck: flow analysis skipped (rails)\n"
           | Some v ->
               Format.eprintf "acecheck: flow %a@." Ace_flow.Solver.pp_stats
                 v.Ace_flow.Ternary.stats);
        Cli_common.print_counters ()
      end;
      if errors > 0 then exit 1
      else exit (Cli_common.exit_code ~diags:(diags @ timing_diags) ~usable:true)

open Cmdliner

let input = Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc:"A .cif layout or a wirelist.")
let vdd = Arg.(value & opt string "VDD" & info [ "vdd" ] ~docv:"NAME")
let gnd = Arg.(value & opt string "GND" & info [ "gnd" ] ~docv:"NAME")
let verbose = Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Also print informational findings.")
let timing = Arg.(value & flag & info [ "timing" ] ~doc:"Run static timing analysis over the recognized gates.")

let flow =
  Arg.(
    value & flag
    & info [ "flow" ]
        ~doc:
          "Enable the ternary dataflow analysis feeding the flow-* rules \
           (contention, dead logic, charge storage, charge sharing, X \
           propagation).")

let stats =
  Arg.(
    value & flag
    & info [ "s"; "stats" ] ~doc:"Print solver telemetry on standard error.")

let rules_file =
  Arg.(
    value
    & opt (some string) None
    & info [ "rules" ] ~docv:"FILE"
        ~doc:
          "Rule configuration file: one $(i,key=value) per line, where \
           $(i,key) is a rule code bound to error|warn|info|off or an \
           engine parameter (lambda, max-fanout, max-pass-depth); $(b,#) \
           starts a comment.")

let rule_overrides =
  Arg.(
    value & opt_all string []
    & info [ "rule" ] ~docv:"CODE=LEVEL"
        ~doc:
          "Override one rule, e.g. $(b,--rule ratio=error) or $(b,--rule \
           isolated=off).  Repeatable; applied after $(b,--rules).")

let baseline_file =
  Arg.(
    value
    & opt (some string) None
    & info [ "baseline" ] ~docv:"FILE"
        ~doc:
          "Waiver baseline: findings whose fingerprints appear in $(docv) \
           are suppressed, so only new problems are reported.")

let write_baseline =
  Arg.(
    value
    & opt ~vopt:(Some "") (some string) None
    & info [ "write-baseline" ] ~docv:"FILE"
        ~doc:
          "Write the fingerprints of every finding of this run to \
           $(docv) (use $(b,--write-baseline=FILE)); with no value, \
           overwrite the $(b,--baseline) file.")

let list_rules =
  Arg.(
    value & flag
    & info [ "list-rules" ]
        ~doc:"Print the rule registry (code, default severity, summary) and exit.")

let jobs =
  Arg.(
    value & opt int 1
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Extract CIF input over $(docv) worker domains before checking \
           (see $(b,ace -j)); ignored for wirelist input.")

let tile =
  Arg.(
    value
    & opt (some string) None
    & info [ "tile" ] ~docv:"CxR"
        ~doc:
          "Tile grid for the extraction (see $(b,ace --tile)); ignored for \
           wirelist input.")

let cmd =
  Cmd.v
    (Cmd.info "acecheck"
       ~doc:
         "Electrical rule engine: ratio checks, malformed transistors, \
          stuck signals, pass-network and labelling analyses")
    Term.(
      const run $ input $ vdd $ gnd $ verbose $ timing $ flow $ stats
      $ Cli_common.strict_t $ Cli_common.max_errors_t
      $ Cli_common.diag_format_t $ rules_file $ rule_overrides $ baseline_file
      $ write_baseline $ list_rules $ jobs $ tile $ Cli_common.trace_t)

let () = exit (Cmd.eval cmd)
