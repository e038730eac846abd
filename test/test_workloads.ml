open Ace_netlist

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let extract file = Ace_core.Extractor.extract (Ace_cif.Design.of_ast file)

let test_builder_guards () =
  check "odd lambda rejected" true
    (match Ace_workloads.Builder.create ~lambda:251 () with
    | exception Invalid_argument _ -> true
    | _ -> false);
  let b = Ace_workloads.Builder.create () in
  check "degenerate box rejected" true
    (match Ace_workloads.Builder.box b Ace_tech.Layer.Metal ~l:2 ~b:0 ~r:2 ~t_:4 with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_inverter_counts () =
  let c = extract (Ace_workloads.Chips.single_inverter ()) in
  check_int "devices" 2 (Circuit.device_count c);
  check_int "nets" 4 (Circuit.net_count c);
  List.iter
    (fun name -> check name true (Circuit.find_net c name >= 0))
    [ "VDD"; "GND"; "INP"; "OUT" ]

let test_inverter_is_clean () =
  let c = extract (Ace_workloads.Chips.single_inverter ()) in
  let errors, warnings, _ =
    Ace_lint.Finding.summarize (Ace_lint.Engine.run c)
  in
  check_int "no errors" 0 errors;
  check_int "no warnings" 0 warnings

let test_chain_counts () =
  List.iter
    (fun n ->
      let c = extract (Ace_workloads.Chips.inverter_chain ~n ()) in
      check_int (Printf.sprintf "chain %d devices" n) (2 * n)
        (Circuit.device_count c);
      (* VDD + GND + INP + n internal/output nodes *)
      check_int (Printf.sprintf "chain %d nets" n) (n + 3) (Circuit.net_count c))
    [ 1; 2; 5; 9 ]

let test_chain_simulates () =
  let c =
    Ace_core.Extractor.extract
      (Ace_cif.Design.of_ast (Ace_workloads.Chips.inverter_chain ~n:4 ()))
  in
  let sim = Ace_analysis.Sim.create c ~vdd:"VDD" ~gnd:"GND" in
  match
    Ace_analysis.Sim.eval sim
      ~inputs:[ ("INP", Ace_analysis.Sim.Low) ]
      ~outputs:[ "OUT" ]
  with
  | Some [ (_, v) ] -> check "0 through 4 inverters" true (v = Ace_analysis.Sim.Low)
  | _ -> Alcotest.fail "simulation failed"

let test_four_inverters () =
  let c = extract (Ace_workloads.Chips.four_inverters ()) in
  check_int "devices" 8 (Circuit.device_count c);
  check "in and out named" true
    (Circuit.find_net c "in" >= 0 && Circuit.find_net c "out" >= 0)

let test_mesh_counts () =
  List.iter
    (fun (rows, cols) ->
      let c = extract (Ace_workloads.Arrays.mesh ~rows ~cols ()) in
      check_int
        (Printf.sprintf "mesh %dx%d devices" rows cols)
        (rows * cols) (Circuit.device_count c);
      check_int
        (Printf.sprintf "mesh %dx%d nets" rows cols)
        (rows + (cols * (rows + 1)))
        (Circuit.net_count c))
    [ (1, 1); (3, 5); (8, 8) ]

let test_tree_equals_mesh () =
  let tree = extract (Ace_workloads.Arrays.square_array_tree ~cells:64 ()) in
  let mesh = extract (Ace_workloads.Arrays.mesh ~rows:8 ~cols:8 ()) in
  check "same circuit" true (Tutil.circuit_equal ~with_sizes:true tree mesh)

let test_tree_validates_input () =
  check "non power of 4 rejected" true
    (match Ace_workloads.Arrays.square_array_tree ~cells:48 () with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_datapath_counts () =
  let c = extract (Ace_workloads.Chips.datapath ~bits:5 ~stages:7 ()) in
  check_int "devices" (2 * 5 * 7) (Circuit.device_count c)

let test_random_logic_deterministic () =
  let a = extract (Ace_workloads.Chips.random_logic ~cells:25 ~seed:42 ()) in
  let b = extract (Ace_workloads.Chips.random_logic ~cells:25 ~seed:42 ()) in
  check "same seed, same chip" true (Tutil.circuit_equal ~with_sizes:true a b);
  let c = extract (Ace_workloads.Chips.random_logic ~cells:25 ~seed:43 ()) in
  check_int "device count independent of seed" (Circuit.device_count a)
    (Circuit.device_count c)

let test_recipes_hit_targets () =
  List.iter
    (fun (r : Ace_workloads.Chips.recipe) ->
      let design = r.build ~scale:0.02 in
      let c = Ace_core.Extractor.extract design in
      let expected = float_of_int r.devices_target *. 0.02 in
      let got = float_of_int (Circuit.device_count c) in
      check
        (Printf.sprintf "%s devices within 2x of scaled target (%f vs %f)"
           r.chip_name expected got)
        true
        (got > expected /. 2.0 && got < expected *. 2.0))
    Ace_workloads.Chips.paper_suite

let test_comparison_suite_subset () =
  check_int "five chips" 5 (List.length Ace_workloads.Chips.comparison_suite);
  List.iter
    (fun (r : Ace_workloads.Chips.recipe) ->
      check r.chip_name true
        (List.exists
           (fun (p : Ace_workloads.Chips.recipe) -> p.chip_name = r.chip_name)
           Ace_workloads.Chips.paper_suite))
    Ace_workloads.Chips.comparison_suite

let test_nand_nor_extract () =
  let b = Ace_workloads.Builder.create () in
  let sym = Ace_workloads.Builder.symbol b (Ace_workloads.Cells.nand2 ~labels:true b) in
  let file = Ace_workloads.Builder.file b [ Ace_workloads.Builder.call b sym ~dx:0 ~dy:0 ] in
  let c = extract file in
  check_int "nand devices" 3 (Circuit.device_count c);
  let b2 = Ace_workloads.Builder.create () in
  let sym2 = Ace_workloads.Builder.symbol b2 (Ace_workloads.Cells.nor2 ~labels:true b2) in
  let file2 = Ace_workloads.Builder.file b2 [ Ace_workloads.Builder.call b2 sym2 ~dx:0 ~dy:0 ] in
  let c2 = extract file2 in
  check_int "nor devices" 3 (Circuit.device_count c2)

let test_nand_truth_table_extracted () =
  let b = Ace_workloads.Builder.create () in
  let sym = Ace_workloads.Builder.symbol b (Ace_workloads.Cells.nand2 ~labels:true b) in
  let file = Ace_workloads.Builder.file b [ Ace_workloads.Builder.call b sym ~dx:0 ~dy:0 ] in
  let c = extract file in
  let sim = Ace_analysis.Sim.create c ~vdd:"VDD" ~gnd:"GND" in
  List.iter
    (fun (a, bv, expect) ->
      match
        Ace_analysis.Sim.eval sim
          ~inputs:[ ("A", a); ("B", bv) ]
          ~outputs:[ "OUT" ]
      with
      | Some [ (_, v) ] -> check "nand row" true (v = expect)
      | _ -> Alcotest.fail "no result")
    Ace_analysis.Sim.
      [
        (Low, Low, High); (Low, High, High); (High, Low, High); (High, High, Low);
      ]

let test_pass_gate_extracts () =
  let b = Ace_workloads.Builder.create () in
  let sym = Ace_workloads.Builder.symbol b (Ace_workloads.Cells.pass_gate b) in
  let file =
    Ace_workloads.Builder.file b [ Ace_workloads.Builder.call b sym ~dx:0 ~dy:0 ]
  in
  let c = extract file in
  check_int "one device" 1 (Circuit.device_count c);
  check_int "three nets" 3 (Circuit.net_count c);
  let d = c.Circuit.devices.(0) in
  check "enhancement" true (d.dtype = Ace_tech.Nmos.Enhancement);
  check "gate distinct from data" true (d.gate <> d.source && d.gate <> d.drain)

let test_mesh_is_paper_worst_case_structure () =
  (* n poly lines crossing n diffusion lines: the paper's worst-case mesh
     grows devices quadratically while boxes grow linearly *)
  let devices n =
    Circuit.device_count (extract (Ace_workloads.Arrays.mesh ~rows:n ~cols:n ()))
  in
  check_int "4x devices for 2x side" (4 * devices 4) (devices 8)

let test_datapath_connectivity () =
  (* each slice is an independent chain; slices do not short together *)
  let c = extract (Ace_workloads.Chips.datapath ~bits:3 ~stages:4 ()) in
  let findings = Ace_lint.Engine.run c in
  (* rails are unnamed in the datapath, so only rail-skip infos appear *)
  check "no errors" true
    (List.for_all
       (fun (f : Ace_lint.Finding.t) -> f.severity <> Ace_lint.Finding.Error)
       findings)

let test_chain_gate_recognition () =
  let c = extract (Ace_workloads.Chips.inverter_chain ~n:7 ()) in
  let r = Ace_analysis.Gates.recognize c in
  check_int "seven inverters" 7 (List.length r.Ace_analysis.Gates.gates)

let test_recipes_character () =
  List.iter
    (fun (name, character) ->
      let r =
        List.find
          (fun (r : Ace_workloads.Chips.recipe) -> r.chip_name = name)
          Ace_workloads.Chips.paper_suite
      in
      check (name ^ " character") true (r.character = character))
    [ ("testram", "regular"); ("schip2", "irregular"); ("psc", "mixed") ]

let () =
  Alcotest.run "workloads"
    [
      ( "builder",
        [ Alcotest.test_case "guards" `Quick test_builder_guards ] );
      ( "cells",
        [
          Alcotest.test_case "inverter counts" `Quick test_inverter_counts;
          Alcotest.test_case "inverter clean" `Quick test_inverter_is_clean;
          Alcotest.test_case "nand/nor extract" `Quick test_nand_nor_extract;
          Alcotest.test_case "nand truth table" `Quick test_nand_truth_table_extracted;
        ] );
      ( "chips",
        [
          Alcotest.test_case "chain counts" `Quick test_chain_counts;
          Alcotest.test_case "chain simulates" `Quick test_chain_simulates;
          Alcotest.test_case "four inverters" `Quick test_four_inverters;
          Alcotest.test_case "datapath counts" `Quick test_datapath_counts;
          Alcotest.test_case "random deterministic" `Quick test_random_logic_deterministic;
          Alcotest.test_case "recipes hit targets" `Quick test_recipes_hit_targets;
          Alcotest.test_case "comparison suite" `Quick test_comparison_suite_subset;
        ] );
      ( "arrays",
        [
          Alcotest.test_case "mesh counts" `Quick test_mesh_counts;
          Alcotest.test_case "tree equals mesh" `Quick test_tree_equals_mesh;
          Alcotest.test_case "tree input validation" `Quick test_tree_validates_input;
          Alcotest.test_case "worst-case mesh structure" `Quick
            test_mesh_is_paper_worst_case_structure;
        ] );
      ( "more-cells",
        [
          Alcotest.test_case "pass gate" `Quick test_pass_gate_extracts;
          Alcotest.test_case "datapath clean" `Quick test_datapath_connectivity;
          Alcotest.test_case "chain recognition" `Quick test_chain_gate_recognition;
          Alcotest.test_case "recipe characters" `Quick test_recipes_character;
        ] );
    ]
