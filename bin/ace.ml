(* ace — flat edge-based circuit extraction: CIF in, CMU wirelist out. *)

let run input output geometry spice name quantum stats jobs tile strict
    max_errors diag_format trace =
  Cli_common.setup_trace trace;
  let loaded = Cli_common.load ~strict ~max_errors ~quantum input in
  match loaded.Cli_common.design with
  | None ->
      Cli_common.report ~format:diag_format ~tool:"ace" ~uri:input
        ~source:loaded.source loaded.diags;
      exit 2
  | Some design ->
      let name =
        match name with
        | Some n -> n
        | None -> if input = "-" then "chip" else Filename.basename input
      in
      if jobs < 1 then begin
        prerr_endline "ace: -j must be at least 1";
        exit 2
      end;
      let tile =
        match tile with
        | None -> None
        | Some spec -> (
            match Ace_core.Parallel.tile_of_string spec with
            | Ok g -> Some g
            | Error msg ->
                prerr_endline ("ace: " ^ msg);
                exit 2)
      in
      (* geometry output is per-net box lists, which the shard stitcher
         does not carry through the hierarchy: -g forces a flat run *)
      let jobs, tile = if geometry then (1, None) else (jobs, tile) in
      let t0 = Unix.gettimeofday () in
      let circuit, run_stats =
        if jobs > 1 || tile <> None then
          Ace_core.Parallel.extract_with_stats ~jobs ?tile ~name design
        else
          let circuit, st =
            Ace_core.Extractor.extract_with_stats ~emit_geometry:geometry
              ~name design
          in
          (circuit, Ace_core.Parallel.stats_of_flat st)
      in
      let elapsed = Unix.gettimeofday () -. t0 in
      let oc = match output with None -> stdout | Some p -> open_out p in
      if spice then output_string oc (Ace_netlist.Spice.to_string circuit)
      else Ace_netlist.Wirelist.to_channel ~emit_geometry:geometry oc circuit;
      if output <> None then close_out oc;
      let diags = loaded.diags @ run_stats.Ace_core.Parallel.warnings in
      Cli_common.report ~format:diag_format ~tool:"ace" ~uri:input
        ~source:loaded.source diags;
      if stats then begin
        let devs = Ace_netlist.Circuit.device_count circuit in
        Printf.eprintf
          "%s: %d devices, %d nets, %d boxes, %d scanline stops, peak %d \
           active, %.3f s (%.0f devices/s, %.0f boxes/s)\n"
          name devs
          (Ace_netlist.Circuit.net_count circuit)
          run_stats.boxes run_stats.stops run_stats.max_active elapsed
          (float_of_int devs /. elapsed)
          (float_of_int run_stats.boxes /. elapsed);
        if run_stats.Ace_core.Parallel.shards <> [] then begin
          Printf.eprintf
            "parallel: %d workers, %d tiles, stitch %.3f s (compose %.3f, \
             flatten %.3f, order %.3f), balance %.2f\n"
            run_stats.Ace_core.Parallel.jobs
            (List.length run_stats.Ace_core.Parallel.shards)
            run_stats.stitch_seconds run_stats.compose_seconds
            run_stats.flatten_seconds run_stats.order_seconds
            (Ace_core.Parallel.balance run_stats);
          List.iteri
            (fun i (s : Ace_core.Parallel.shard) ->
              Printf.eprintf
                "  tile %d: x [%d, %d) y [%d, %d), %d boxes, %d stops, %d \
                 devices (+%d partial), %.3f s (fold-down %.3f s)\n"
                (i + 1) s.s_window.Ace_geom.Box.l s.s_window.Ace_geom.Box.r
                s.s_window.Ace_geom.Box.b s.s_window.Ace_geom.Box.t s.s_boxes
                s.s_stops s.s_devices s.s_partials s.s_seconds s.s_fold_seconds)
            run_stats.shards
        end;
        Format.eprintf "layout: %a@." Ace_cif.Stats.pp
          (Ace_cif.Stats.of_design design);
        Cli_common.print_counters ()
      end;
      exit (Cli_common.exit_code ~diags ~usable:true)

open Cmdliner

let input =
  Arg.(value & pos 0 string "-" & info [] ~docv:"CIF" ~doc:"Input CIF file (- for stdin).")

let output =
  Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Write the wirelist here instead of stdout.")

let geometry =
  Arg.(value & flag & info [ "g"; "geometry" ] ~doc:"Output the geometry of each net and device (normally suppressed, as in the paper).  Forces a flat (-j 1) run.")

let spice =
  Arg.(value & flag & info [ "spice" ] ~doc:"Emit a SPICE deck instead of the CMU wirelist format.")

let part_name =
  Arg.(value & opt (some string) None & info [ "n"; "name" ] ~docv:"NAME" ~doc:"Wirelist part name (defaults to the file name).")

let quantum =
  Arg.(value & opt int 125 & info [ "quantum" ] ~docv:"CU" ~doc:"Strip height (centimicrons) for approximating non-manhattan geometry.")

let stats =
  Arg.(value & flag & info [ "s"; "stats" ] ~doc:"Print run statistics to stderr.")

let jobs =
  Arg.(
    value & opt int 1
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Extract over $(docv) worker domains.  Without $(b,--tile) the \
           chip splits into $(docv) full-height vertical strips; tiles are \
           scheduled by work-stealing and the per-tile wirelists are \
           stitched across the seams.  The output is byte-identical to the \
           default flat run ($(b,-j 1)).")

let tile =
  Arg.(
    value
    & opt (some string) None
    & info [ "tile" ] ~docv:"CxR"
        ~doc:
          "Split the chip into an explicit $(docv) grid of tiles (e.g. \
           $(b,4x2) is four columns by two rows) instead of $(b,-j) \
           vertical strips.  Engages the tiled path even at $(b,-j 1); the \
           output is byte-identical for every grid.")

let cmd =
  Cmd.v
    (Cmd.info "ace" ~doc:"Flat edge-based NMOS circuit extractor (Gupta, DAC 1983)")
    Term.(
      const run $ input $ output $ geometry $ spice $ part_name $ quantum
      $ stats $ jobs $ tile $ Cli_common.strict_t $ Cli_common.max_errors_t
      $ Cli_common.diag_format_t $ Cli_common.trace_t)

let () = exit (Cmd.eval cmd)
