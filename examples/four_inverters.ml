(* The four-inverter chain of HEXT Figures 2-1/2-2.

   The chip is built exactly as the paper describes the windows: an
   inverter cell, a pair of inverters, and a pair of pairs.  HEXT's
   front-end recognizes the redundant windows (the second pair is never
   re-analyzed), the back-end composes the unique ones, and the output is
   a hierarchical wirelist in the Figure 2-2 dialect. *)

let () =
  let file = Ace_workloads.Chips.four_inverters () in
  let design = Ace_cif.Design.of_ast file in

  let hier, stats = Ace_hext.Hext.extract design in
  print_endline "--- hierarchical wirelist (compare with HEXT Figure 2-2) ---";
  print_string (Ace_netlist.Hier.to_string hier);

  Printf.printf
    "\nfront-end: %d unique windows extracted, %d redundant windows skipped\n"
    stats.Ace_hext.Hext.leaf_extractions stats.window_hits;
  Printf.printf "back-end:  %d compose operations (%d served from the table)\n"
    stats.compose_calls stats.compose_hits;

  (* flattening the hierarchical wirelist gives the flat circuit… *)
  let flat_of_hier = Ace_netlist.Hier.flatten hier in
  (* …which must equal what the flat extractor sees *)
  let flat = Ace_core.Extractor.extract ~name:"four_inverters" design in
  Printf.printf "\nflat extractor:  %s\n"
    (Format.asprintf "%a" Ace_netlist.Circuit.pp_summary flat);
  Printf.printf "HEXT, flattened: %s\n"
    (Format.asprintf "%a" Ace_netlist.Circuit.pp_summary flat_of_hier);
  Printf.printf "equivalent: %s\n"
    (Ace_lvs.Match.verdict_to_string
       (Ace_lvs.Match.exact ~with_sizes:true flat flat_of_hier));

  (* the chain inverts: in=1 makes out=1 after four inversions *)
  let sim = Ace_analysis.Sim.create flat_of_hier ~vdd:"VDD" ~gnd:"GND" in
  match
    Ace_analysis.Sim.eval sim
      ~inputs:[ ("in", Ace_analysis.Sim.High) ]
      ~outputs:[ "out" ]
  with
  | Some [ (_, v) ] ->
      Printf.printf "simulate: in=1 -> out=%s (four inversions)\n"
        (Ace_analysis.Sim.level_to_string v)
  | _ -> print_endline "simulation did not settle"
