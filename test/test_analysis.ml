open Ace_netlist
open Ace_analysis

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let extract_workload file =
  Ace_core.Extractor.extract ~emit_geometry:true
    (Ace_cif.Design.of_ast file)

let inverter () = extract_workload (Ace_workloads.Chips.single_inverter ())
let chain n = extract_workload (Ace_workloads.Chips.inverter_chain ~n ())

let has_code code findings =
  List.exists (fun (f : Ace_lint.Finding.t) -> f.code = code) findings

(* ------------------------------------------------------------------ *)
(* Static checker                                                       *)
(* ------------------------------------------------------------------ *)

let test_clean_inverter () =
  let findings = Ace_lint.Engine.run (inverter ()) in
  let errors, _, _ = Ace_lint.Finding.summarize findings in
  check_int "no errors" 0 errors;
  check "no ratio complaint (k = 4)" false (has_code "ratio" findings)

let test_power_short () =
  let c = inverter () in
  (* merge VDD and GND by renaming: point both names at one net *)
  let v = Circuit.find_net c "VDD" in
  let shorted =
    {
      c with
      Circuit.nets =
        Array.mapi
          (fun i (n : Circuit.net) ->
            if i = v then { n with names = [ "GND"; "VDD" ] }
            else if List.mem "GND" n.names then { n with names = [] }
            else n)
          c.Circuit.nets;
    }
  in
  check "short reported" true (has_code "power-short" (Ace_lint.Engine.run shorted))

let test_bad_ratio () =
  let c = inverter () in
  (* weaken the pull-down: double its length *)
  let weak =
    {
      c with
      Circuit.devices =
        Array.map
          (fun (d : Circuit.device) ->
            match d.dtype with
            | Ace_tech.Nmos.Enhancement -> { d with length = 2 * d.length }
            | Ace_tech.Nmos.Depletion -> d)
          c.Circuit.devices;
    }
  in
  check "ratio reported" true (has_code "ratio" (Ace_lint.Engine.run weak))

let test_malformed_device () =
  let c = inverter () in
  let v = Circuit.find_net c "VDD" in
  let broken =
    {
      c with
      Circuit.devices =
        Array.append c.Circuit.devices
          [|
            {
              Circuit.dtype = Ace_tech.Nmos.Enhancement;
              gate = v;
              source = v;
              drain = v;
              length = 2;
              width = 2;
              location = Ace_geom.Point.origin;
              geometry = [];
            };
          |];
    }
  in
  check "malformed reported" true (has_code "malformed" (Ace_lint.Engine.run broken))

let test_undriven_gate () =
  let c = inverter () in
  (* cut the pull-down off GND by retargeting its source to a fresh net *)
  let n = Circuit.net_count c in
  let floating =
    {
      c with
      Circuit.nets =
        Array.append c.Circuit.nets
          [| { Circuit.names = []; location = Ace_geom.Point.origin; geometry = [] } |];
      devices =
        Array.map
          (fun (d : Circuit.device) ->
            match d.dtype with
            | Ace_tech.Nmos.Enhancement -> { d with gate = n }
            | Ace_tech.Nmos.Depletion -> d)
          c.Circuit.devices;
    }
  in
  let findings = Ace_lint.Engine.run floating in
  check "floating gate reported" true (has_code "floating-gate" findings)

let test_stuck_node () =
  (* an output with only a pull-up that also gates something: stuck at 1 *)
  let net names = { Circuit.names; location = Ace_geom.Point.origin; geometry = [] } in
  let c =
    {
      Circuit.name = "stuck";
      nets = [| net [ "VDD" ]; net [ "N" ]; net [ "GND" ]; net [] |];
      devices =
        [|
          {
            Circuit.dtype = Ace_tech.Nmos.Depletion;
            gate = 1; source = 0; drain = 1; length = 8; width = 2;
            location = Ace_geom.Point.origin; geometry = [];
          };
          {
            Circuit.dtype = Ace_tech.Nmos.Enhancement;
            gate = 1; source = 2; drain = 3; length = 2; width = 2;
            location = Ace_geom.Point.origin; geometry = [];
          };
        |];
    }
  in
  check "stuck reported" true (has_code "stuck" (Ace_lint.Engine.run c))

let test_missing_rails () =
  let c = Ace_core.Extractor.extract_boxes
      [ (Ace_tech.Layer.Metal, Tutil.box ~l:0 ~b:0 ~r:4 ~t:4) ]
  in
  let findings = Ace_lint.Engine.run c in
  check "rail skip reported" true (has_code "no-rail" findings);
  check "isolated net reported" true (has_code "isolated" findings)

(* ------------------------------------------------------------------ *)
(* Switch-level simulator                                               *)
(* ------------------------------------------------------------------ *)

let test_sim_inverter () =
  let sim = Sim.create (inverter ()) ~vdd:"VDD" ~gnd:"GND" in
  (match Sim.eval sim ~inputs:[ ("INP", Sim.High) ] ~outputs:[ "OUT" ] with
  | Some [ (_, v) ] -> check "1 -> 0" true (v = Sim.Low)
  | _ -> Alcotest.fail "no result");
  match Sim.eval sim ~inputs:[ ("INP", Sim.Low) ] ~outputs:[ "OUT" ] with
  | Some [ (_, v) ] -> check "0 -> 1" true (v = Sim.High)
  | _ -> Alcotest.fail "no result"

let test_sim_chain () =
  let c = chain 5 in
  let sim = Sim.create c ~vdd:"VDD" ~gnd:"GND" in
  (* five inversions flip the value *)
  (match Sim.eval sim ~inputs:[ ("INP", Sim.High) ] ~outputs:[ "OUT" ] with
  | Some [ (_, v) ] -> check "odd chain inverts" true (v = Sim.Low)
  | _ -> Alcotest.fail "no result");
  let c6 = chain 6 in
  let sim6 = Sim.create c6 ~vdd:"VDD" ~gnd:"GND" in
  match Sim.eval sim6 ~inputs:[ ("INP", Sim.High) ] ~outputs:[ "OUT" ] with
  | Some [ (_, v) ] -> check "even chain follows" true (v = Sim.High)
  | _ -> Alcotest.fail "no result"

let test_sim_unknown_propagates () =
  let sim = Sim.create (inverter ()) ~vdd:"VDD" ~gnd:"GND" in
  match Sim.eval sim ~inputs:[ ("INP", Sim.Unknown) ] ~outputs:[ "OUT" ] with
  | Some [ (_, v) ] -> check "X in, X out" true (v = Sim.Unknown)
  | _ -> Alcotest.fail "no result"

let test_sim_nand_truth_table () =
  (* hand-built NAND: two series pull-downs *)
  let net names = { Circuit.names; location = Ace_geom.Point.origin; geometry = [] } in
  let dev dtype gate source drain =
    {
      Circuit.dtype; gate; source; drain; length = 2; width = 2;
      location = Ace_geom.Point.origin; geometry = [];
    }
  in
  let c =
    {
      Circuit.name = "nand";
      nets =
        [| net [ "VDD" ]; net [ "OUT" ]; net [ "A" ]; net [ "B" ];
           net [] (* mid *); net [ "GND" ] |];
      devices =
        [|
          { (dev Ace_tech.Nmos.Depletion 1 0 1) with length = 8 };
          dev Ace_tech.Nmos.Enhancement 2 1 4;
          dev Ace_tech.Nmos.Enhancement 3 4 5;
        |];
    }
  in
  let sim = Sim.create c ~vdd:"VDD" ~gnd:"GND" in
  List.iter
    (fun (a, b, expect) ->
      match
        Sim.eval sim ~inputs:[ ("A", a); ("B", b) ] ~outputs:[ "OUT" ]
      with
      | Some [ (_, v) ] ->
          check
            (Printf.sprintf "nand(%s,%s)" (Sim.level_to_string a)
               (Sim.level_to_string b))
            true (v = expect)
      | _ -> Alcotest.fail "no result")
    [
      (Sim.Low, Sim.Low, Sim.High);
      (Sim.Low, Sim.High, Sim.High);
      (Sim.High, Sim.Low, Sim.High);
      (Sim.High, Sim.High, Sim.Low);
    ]

let test_sim_oscillation_detected () =
  (* a ring oscillator: inverter with output fed back to its input can
     never settle *)
  let net names = { Circuit.names; location = Ace_geom.Point.origin; geometry = [] } in
  let c =
    {
      Circuit.name = "ring";
      nets = [| net [ "VDD" ]; net [ "N" ]; net [ "GND" ] |];
      devices =
        [|
          {
            Circuit.dtype = Ace_tech.Nmos.Depletion;
            gate = 1; source = 0; drain = 1; length = 8; width = 2;
            location = Ace_geom.Point.origin; geometry = [];
          };
          {
            Circuit.dtype = Ace_tech.Nmos.Enhancement;
            gate = 1; source = 1; drain = 2; length = 2; width = 2;
            location = Ace_geom.Point.origin; geometry = [];
          };
        |];
    }
  in
  let sim = Sim.create c ~vdd:"VDD" ~gnd:"GND" in
  (* force N high first so the feedback has an edge to chew on *)
  Sim.set_input sim "N" Sim.High;
  check "stabilizes while forced" true (Sim.stabilize sim);
  Sim.release_input sim "N";
  check "oscillates when released" false (Sim.stabilize ~max_steps:50 sim)

let test_sim_charge_storage () =
  (* pass gate: drive a node high, close the gate; the node keeps its
     charge *)
  let net names = { Circuit.names; location = Ace_geom.Point.origin; geometry = [] } in
  let c =
    {
      Circuit.name = "dyn";
      nets = [| net [ "VDD" ]; net [ "G" ]; net [ "S" ]; net [ "D" ]; net [ "GND" ] |];
      devices =
        [|
          {
            Circuit.dtype = Ace_tech.Nmos.Enhancement;
            gate = 1; source = 2; drain = 3; length = 2; width = 2;
            location = Ace_geom.Point.origin; geometry = [];
          };
        |];
    }
  in
  let sim = Sim.create c ~vdd:"VDD" ~gnd:"GND" in
  Sim.set_input sim "S" Sim.High;
  Sim.set_input sim "G" Sim.High;
  check "settled" true (Sim.stabilize sim);
  check "passed through" true (Sim.value sim "D" = Sim.High);
  (* turn the gate off first (dynamic-logic order), then move the source *)
  Sim.set_input sim "G" Sim.Low;
  check "settled with gate off" true (Sim.stabilize sim);
  Sim.set_input sim "S" Sim.Low;
  check "settled again" true (Sim.stabilize sim);
  check "charge retained" true (Sim.value sim "D" = Sim.High)

(* ------------------------------------------------------------------ *)
(* Gate recognition                                                     *)
(* ------------------------------------------------------------------ *)

let gate_cell (cell : ?labels:bool -> _) =
  let b = Ace_workloads.Builder.create () in
  let sym = Ace_workloads.Builder.symbol b (cell ~labels:true b) in
  extract_workload
    (Ace_workloads.Builder.file b
       [ Ace_workloads.Builder.call b sym ~dx:0 ~dy:0 ])

let test_recognize_inverter () =
  let r = Gates.recognize (inverter ()) in
  check_int "one gate" 1 (List.length r.Gates.gates);
  check_int "both devices matched" 2 r.matched_devices;
  match r.gates with
  | [ Gates.Inverter { input; output } ] ->
      let c = inverter () in
      check_int "input is INP" (Circuit.find_net c "INP") input;
      check_int "output is OUT" (Circuit.find_net c "OUT") output
  | _ -> Alcotest.fail "expected an inverter"

let test_recognize_nand () =
  let c = gate_cell Ace_workloads.Cells.nand2 in
  let r = Gates.recognize c in
  (match r.Gates.gates with
  | [ Gates.Nand { inputs; output } ] ->
      check_int "two inputs" 2 (List.length inputs);
      check_int "output is OUT" (Circuit.find_net c "OUT") output;
      let names = List.sort compare (List.map (Circuit.net_display_name c) inputs) in
      check "inputs are A and B" true (names = [ "A"; "B" ])
  | _ -> Alcotest.fail "expected a NAND");
  check_int "all devices matched" 3 r.matched_devices

let test_recognize_nor () =
  let c = gate_cell Ace_workloads.Cells.nor2 in
  let r = Gates.recognize c in
  match r.Gates.gates with
  | [ Gates.Nor { inputs; output } ] ->
      check_int "two inputs" 2 (List.length inputs);
      check_int "output is OUT" (Circuit.find_net c "OUT") output
  | _ -> Alcotest.fail "expected a NOR"

let test_recognize_chain () =
  let c = chain 6 in
  let r = Gates.recognize c in
  check_int "six inverters" 6 (List.length r.Gates.gates);
  check_int "all matched" 12 r.matched_devices;
  check "all are inverters" true
    (List.for_all
       (function Gates.Inverter _ -> true | Gates.Nand _ | Gates.Nor _ -> false)
       r.gates)

let test_recognize_nand3 () =
  (* three series pull-downs: a hand-built 3-input NAND *)
  let net names = { Circuit.names; location = Ace_geom.Point.origin; geometry = [] } in
  let dev dtype gate source drain =
    {
      Circuit.dtype; gate; source; drain; length = 2; width = 2;
      location = Ace_geom.Point.origin; geometry = [];
    }
  in
  let c =
    {
      Circuit.name = "nand3";
      nets =
        [| net [ "VDD" ]; net [ "OUT" ]; net [ "A" ]; net [ "B" ]; net [ "C" ];
           net [] (* m1 *); net [] (* m2 *); net [ "GND" ] |];
      devices =
        [|
          { (dev Ace_tech.Nmos.Depletion 1 0 1) with length = 12 };
          dev Ace_tech.Nmos.Enhancement 2 1 5;
          dev Ace_tech.Nmos.Enhancement 3 5 6;
          dev Ace_tech.Nmos.Enhancement 4 6 7;
        |];
    }
  in
  let r = Gates.recognize c in
  (match r.Gates.gates with
  | [ Gates.Nand { inputs; _ } ] ->
      check_int "three inputs" 3 (List.length inputs);
      let names = List.sort compare (List.map (Circuit.net_display_name c) inputs) in
      check "A B C" true (names = [ "A"; "B"; "C" ])
  | _ -> Alcotest.fail "expected NAND3");
  check_int "all four matched" 4 r.matched_devices

let test_recognize_leaves_pass_gates () =
  (* a mesh of bare transistors has no loads: nothing is recognized *)
  let c =
    Ace_core.Extractor.extract
      (Ace_cif.Design.of_ast (Ace_workloads.Arrays.mesh ~rows:3 ~cols:3 ()))
  in
  let r = Gates.recognize c in
  check_int "no gates" 0 (List.length r.Gates.gates);
  check_int "nothing matched" 0 r.matched_devices

(* ------------------------------------------------------------------ *)
(* Parasitics                                                           *)
(* ------------------------------------------------------------------ *)

let test_parasitics_basic () =
  let c = inverter () in
  let out = Circuit.find_net c "OUT" in
  let p = Parasitics.net_parasitics c out in
  check "positive cap" true (p.Parasitics.cap_ff > 0.0);
  check "gate load counted" true (p.Parasitics.gate_cap_ff > 0.0);
  check "has diffusion and poly area" true
    (List.length p.Parasitics.area_by_layer >= 2)

let test_parasitics_needs_geometry () =
  let c = Ace_core.Extractor.extract (Ace_cif.Design.of_ast (Ace_workloads.Chips.single_inverter ())) in
  let out = Circuit.find_net c "OUT" in
  check "raises without geometry" true
    (match Parasitics.net_parasitics c out with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_parasitics_monotone () =
  (* a longer wire has more capacitance *)
  let wire len =
    Ace_core.Extractor.extract_boxes ~emit_geometry:true
      ~labels:[ { Ace_cif.Design.name = "W"; position = Ace_geom.Point.make 1 1; layer = None } ]
      [ (Ace_tech.Layer.Metal, Tutil.box ~l:0 ~b:0 ~r:len ~t:250) ]
  in
  let short = wire 2500 and long = wire 25000 in
  let cap c = (Parasitics.net_parasitics c (Circuit.find_net c "W")).Parasitics.cap_ff in
  check "longer wire, more cap" true (cap long > cap short);
  check "10x length = 10x cap" true
    (abs_float (cap long /. cap short -. 10.0) < 0.01)

let test_device_parasitics () =
  let c = inverter () in
  let dep =
    Array.to_list c.Circuit.devices
    |> List.find (fun (d : Circuit.device) -> d.dtype = Ace_tech.Nmos.Depletion)
  in
  (* pull-up L/W = 4 -> 40 kΩ at the 10 kΩ/square default *)
  check "pull-up resistance" true
    (abs_float (Parasitics.device_resistance dep -. 40_000.0) < 1.0);
  check "gate cap positive" true (Parasitics.device_gate_cap dep > 0.0)

let test_rc_delay () =
  let c = chain 3 in
  let out = Circuit.find_net c "OUT" in
  (* find the depletion device driving OUT *)
  let driver = ref (-1) in
  Array.iteri
    (fun i (d : Circuit.device) ->
      if d.dtype = Ace_tech.Nmos.Depletion && (d.source = out || d.drain = out)
      then driver := i)
    c.Circuit.devices;
  check "driver found" true (!driver >= 0);
  let delay = Parasitics.rc_delay_seconds c ~driver:!driver ~net:out in
  check "delay in plausible ns range" true (delay > 1e-12 && delay < 1e-6)

(* ------------------------------------------------------------------ *)
(* Static timing analysis                                               *)
(* ------------------------------------------------------------------ *)

let test_sta_chain_depth () =
  List.iter
    (fun n ->
      let c =
        Ace_core.Extractor.extract ~emit_geometry:true
          (Ace_cif.Design.of_ast (Ace_workloads.Chips.inverter_chain ~n ()))
      in
      match Sta.analyze c with
      | Some r ->
          check_int
            (Printf.sprintf "chain %d: path has %d stages" n n)
            n
            (List.length r.Sta.critical_path);
          check "positive delay" true (r.critical_delay_s > 0.0);
          check "no feedback" false r.has_feedback;
          (* arrival times increase along the path *)
          let rec increasing = function
            | (a : Sta.timed_gate) :: (b : Sta.timed_gate) :: rest ->
                a.arrival_s < b.arrival_s && increasing (b :: rest)
            | _ -> true
          in
          check "arrivals increase" true (increasing r.critical_path)
      | None -> Alcotest.fail "expected gates")
    [ 1; 3; 7 ]

let test_sta_delay_monotone () =
  let delay n =
    let c =
      Ace_core.Extractor.extract ~emit_geometry:true
        (Ace_cif.Design.of_ast (Ace_workloads.Chips.inverter_chain ~n ()))
    in
    match Sta.analyze c with
    | Some r -> r.Sta.critical_delay_s
    | None -> 0.0
  in
  check "longer chain, longer delay" true (delay 8 > delay 2)

let test_sta_feedback_detected () =
  (* two cross-coupled inverters: a latch *)
  let net names = { Circuit.names; location = Ace_geom.Point.origin; geometry = [] } in
  let dev dtype gate source drain =
    {
      Circuit.dtype; gate; source; drain; length = 2; width = 2;
      location = Ace_geom.Point.origin; geometry = [];
    }
  in
  let c =
    {
      Circuit.name = "latch";
      nets = [| net [ "VDD" ]; net [ "Q" ]; net [ "QB" ]; net [ "GND" ] |];
      devices =
        [|
          { (dev Ace_tech.Nmos.Depletion 1 0 1) with length = 8 };
          { (dev Ace_tech.Nmos.Depletion 2 0 2) with length = 8 };
          dev Ace_tech.Nmos.Enhancement 2 1 3 (* QB gates the Q pulldown *);
          dev Ace_tech.Nmos.Enhancement 1 2 3 (* Q gates the QB pulldown *);
        |];
    }
  in
  match Sta.analyze c with
  | Some r -> check "feedback flagged" true r.Sta.has_feedback
  | None -> Alcotest.fail "expected gates"

let test_sta_feedback_ring () =
  (* three-stage ring oscillator: the gate graph is one cycle *)
  let net names = { Circuit.names; location = Ace_geom.Point.origin; geometry = [] } in
  let dev dtype gate source drain =
    {
      Circuit.dtype; gate; source; drain; length = 2; width = 2;
      location = Ace_geom.Point.origin; geometry = [];
    }
  in
  let c =
    {
      Circuit.name = "ring3";
      nets = [| net [ "VDD" ]; net [ "N1" ]; net [ "N2" ]; net [ "N3" ]; net [ "GND" ] |];
      devices =
        [|
          { (dev Ace_tech.Nmos.Depletion 1 0 1) with length = 8 };
          { (dev Ace_tech.Nmos.Depletion 2 0 2) with length = 8 };
          { (dev Ace_tech.Nmos.Depletion 3 0 3) with length = 8 };
          dev Ace_tech.Nmos.Enhancement 3 1 4 (* N3 -> N1 stage *);
          dev Ace_tech.Nmos.Enhancement 1 2 4 (* N1 -> N2 stage *);
          dev Ace_tech.Nmos.Enhancement 2 3 4 (* N2 -> N3 stage *);
        |];
    }
  in
  match Sta.analyze c with
  | Some r -> check "ring feedback flagged" true r.Sta.has_feedback
  | None -> Alcotest.fail "expected gates"

let test_sta_missing_rail_diag () =
  let c = inverter () in
  let result, diags = Sta.analyze_checked ~vdd:"VCC" c in
  check "no result without rail" true (result = None);
  check "missing-rail diagnostic" true
    (List.exists
       (fun (d : Ace_diag.Diag.t) -> d.Ace_diag.Diag.code = "missing-rail")
       diags);
  let result, diags = Sta.analyze_checked c in
  check "clean run has no diags" true (diags = []);
  check "clean run analyzes" true (result <> None)

let test_sta_no_gates () =
  let c =
    Ace_core.Extractor.extract
      (Ace_cif.Design.of_ast (Ace_workloads.Arrays.mesh ~rows:2 ~cols:2 ()))
  in
  check "no result on pass arrays" true (Sta.analyze c = None)

let test_sim_missing_rail_diag () =
  let c = inverter () in
  (match Sim.create_result c ~vdd:"VCC" ~gnd:"GND" with
  | Ok _ -> Alcotest.fail "expected missing-rail error"
  | Error d ->
      check "missing-rail code" true (d.Ace_diag.Diag.code = "missing-rail"));
  check "create still raises Not_found" true
    (match Sim.create c ~vdd:"VCC" ~gnd:"GND" with
    | exception Not_found -> true
    | _ -> false)

let test_sim_case_insensitive_rails () =
  (* rails labelled "Vdd"/"gnd" still resolve (case-insensitive fallback) *)
  let c = inverter () in
  let relabelled =
    {
      c with
      Circuit.nets =
        Array.map
          (fun (n : Circuit.net) ->
            let swap = function
              | "VDD" -> "Vdd"
              | "GND" -> "gnd"
              | s -> s
            in
            { n with Circuit.names = List.map swap n.Circuit.names })
          c.Circuit.nets;
    }
  in
  match Sim.create_result relabelled ~vdd:"VDD" ~gnd:"GND" with
  | Error _ -> Alcotest.fail "case-insensitive rail lookup failed"
  | Ok sim -> (
      match
        Sim.eval sim ~inputs:[ ("INP", Sim.Low) ] ~outputs:[ "OUT" ]
      with
      | Some [ (_, Sim.High) ] -> ()
      | _ -> Alcotest.fail "inverter did not simulate")

let test_parasitics_all_nets_total () =
  (* extracted without geometry: every net is skipped, summarised in one
     "no-geometry" hint, and the call never raises *)
  let bare =
    Ace_core.Extractor.extract
      (Ace_cif.Design.of_ast (Ace_workloads.Chips.single_inverter ()))
  in
  let values, diags = Parasitics.all_nets bare in
  check_int "aligned with nets" (Circuit.net_count bare) (Array.length values);
  check_int "one summary diagnostic" 1 (List.length diags);
  check "diag code" true
    (match diags with
    | [ d ] -> d.Ace_diag.Diag.code = "no-geometry"
    | _ -> false);
  check "zero estimates" true
    (Array.for_all (fun p -> p.Parasitics.cap_ff = 0.0) values);
  (* with geometry the connected nets get real estimates *)
  let geo = inverter () in
  let values, _ = Parasitics.all_nets geo in
  check "some capacitance with geometry" true
    (Array.exists (fun p -> p.Parasitics.cap_ff > 0.0) values)

let () =
  Alcotest.run "analysis"
    [
      ( "static-check",
        [
          Alcotest.test_case "clean inverter" `Quick test_clean_inverter;
          Alcotest.test_case "power short" `Quick test_power_short;
          Alcotest.test_case "bad ratio" `Quick test_bad_ratio;
          Alcotest.test_case "malformed device" `Quick test_malformed_device;
          Alcotest.test_case "undriven gate" `Quick test_undriven_gate;
          Alcotest.test_case "stuck node" `Quick test_stuck_node;
          Alcotest.test_case "missing rails" `Quick test_missing_rails;
        ] );
      ( "sim",
        [
          Alcotest.test_case "inverter" `Quick test_sim_inverter;
          Alcotest.test_case "chains" `Quick test_sim_chain;
          Alcotest.test_case "X propagation" `Quick test_sim_unknown_propagates;
          Alcotest.test_case "nand truth table" `Quick test_sim_nand_truth_table;
          Alcotest.test_case "oscillation" `Quick test_sim_oscillation_detected;
          Alcotest.test_case "charge storage" `Quick test_sim_charge_storage;
          Alcotest.test_case "missing rail diag" `Quick test_sim_missing_rail_diag;
          Alcotest.test_case "case-insensitive rails" `Quick test_sim_case_insensitive_rails;
        ] );
      ( "gates",
        [
          Alcotest.test_case "inverter" `Quick test_recognize_inverter;
          Alcotest.test_case "nand" `Quick test_recognize_nand;
          Alcotest.test_case "nor" `Quick test_recognize_nor;
          Alcotest.test_case "nand3" `Quick test_recognize_nand3;
          Alcotest.test_case "chain" `Quick test_recognize_chain;
          Alcotest.test_case "pass gates unmatched" `Quick test_recognize_leaves_pass_gates;
        ] );
      ( "sta",
        [
          Alcotest.test_case "chain depth" `Quick test_sta_chain_depth;
          Alcotest.test_case "delay monotone" `Quick test_sta_delay_monotone;
          Alcotest.test_case "feedback" `Quick test_sta_feedback_detected;
          Alcotest.test_case "ring feedback" `Quick test_sta_feedback_ring;
          Alcotest.test_case "missing rail diag" `Quick test_sta_missing_rail_diag;
          Alcotest.test_case "no gates" `Quick test_sta_no_gates;
        ] );
      ( "parasitics",
        [
          Alcotest.test_case "basic" `Quick test_parasitics_basic;
          Alcotest.test_case "needs geometry" `Quick test_parasitics_needs_geometry;
          Alcotest.test_case "monotone in length" `Quick test_parasitics_monotone;
          Alcotest.test_case "device values" `Quick test_device_parasitics;
          Alcotest.test_case "rc delay" `Quick test_rc_delay;
          Alcotest.test_case "all_nets total" `Quick test_parasitics_all_nets_total;
        ] );
    ]
