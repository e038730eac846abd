(* The testram scenario: a regular memory array is where hierarchical
   extraction shines (HEXT Table 5-1 shows testram at 1:36 against ACE's
   26:36).

   This example builds a 64×64 single-transistor core, extracts it with
   both extractors, shows the speedup and the window statistics, and
   verifies the two wirelists are the same circuit. *)

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let () =
  let rows = 64 and cols = 64 in
  let design =
    Ace_cif.Design.of_ast (Ace_workloads.Arrays.mesh ~rows ~cols ())
  in
  Printf.printf "memory core: %d x %d cells, %d boxes\n" rows cols
    (Ace_cif.Design.count_boxes design);

  let (flat, flat_stats), t_flat =
    time (fun () -> Ace_core.Extractor.extract_with_stats ~name:"ram" design)
  in
  Printf.printf "\nACE  (flat):        %.4f s — %s\n" t_flat
    (Format.asprintf "%a" Ace_netlist.Circuit.pp_summary flat);
  Printf.printf "  scanline stops %d, peak %d boxes active\n"
    flat_stats.Ace_core.Extractor.stops flat_stats.max_active;

  let (hier, hext_stats), t_hext =
    time (fun () -> Ace_hext.Hext.extract design)
  in
  Printf.printf "\nHEXT (hierarchical): %.4f s\n" t_hext;
  Printf.printf
    "  %d unique windows (flat extractor ran %d times on a %d-cell array)\n"
    hext_stats.Ace_hext.Hext.leaf_extractions
    hext_stats.Ace_hext.Hext.leaf_extractions (rows * cols);
  Printf.printf "  %d composes, %d window-table hits, %d compose-table hits\n"
    hext_stats.compose_calls hext_stats.window_hits hext_stats.compose_hits;
  Printf.printf "  %.0f%% of back-end time spent composing\n"
    (100.0 *. Ace_hext.Hext.compose_fraction hext_stats);

  let flat_of_hier = Ace_netlist.Hier.flatten hier in
  Printf.printf "\nverification: %s\n"
    (Ace_lvs.Match.verdict_to_string
       (Ace_lvs.Match.exact ~with_sizes:true flat flat_of_hier));
  Printf.printf "speedup on this regular array: %.1fx\n" (t_flat /. t_hext)
