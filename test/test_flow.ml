(* Tests for Ace_flow: the generic fixpoint solver, the reachability
   analyses and the ternary switch-level abstract interpretation. *)
open Ace_netlist
open Ace_flow

module Sim = Ace_analysis.Sim

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let extract_workload file =
  Ace_core.Extractor.extract ~emit_geometry:true
    (Ace_cif.Design.of_ast file)

let inverter () = extract_workload (Ace_workloads.Chips.single_inverter ())

let net names =
  { Circuit.names; location = Ace_geom.Point.origin; geometry = [] }

let dev dtype gate source drain =
  {
    Circuit.dtype;
    gate;
    source;
    drain;
    length = 2;
    width = 2;
    location = Ace_geom.Point.origin;
    geometry = [];
  }

let enh = dev Ace_tech.Nmos.Enhancement
let dep g s d = { (dev Ace_tech.Nmos.Depletion g s d) with length = 8 }

(* ------------------------------------------------------------------ *)
(* Solver                                                              *)
(* ------------------------------------------------------------------ *)

module Max = struct
  type t = int

  let bottom = min_int
  let join = max
  let equal = Int.equal
  let widen = max
end

module S = Solver.Make (Max)

let test_solver_chain () =
  (* x0 = 5; x_i = x_{i-1}: an acyclic chain solves in one sweep *)
  let system =
    {
      S.size = 4;
      deps = (fun i -> if i = 0 then [] else [ i - 1 ]);
      transfer = (fun env i -> if i = 0 then 5 else env (i - 1));
    }
  in
  let values, stats = S.solve system in
  Array.iter (fun v -> check_int "chain value" 5 v) values;
  check_int "four singleton components" 4 stats.Solver.sccs;
  check_int "max component" 1 stats.Solver.max_scc;
  check "converged" true stats.Solver.converged;
  check_int "no widenings" 0 stats.Solver.widenings

let test_solver_cycle () =
  (* x0 = join(1, x1); x1 = x0: one two-node component, fixpoint 1 *)
  let system =
    {
      S.size = 2;
      deps = (fun i -> [ 1 - i ]);
      transfer = (fun env i -> if i = 0 then max 1 (env 1) else env 0);
    }
  in
  let values, stats = S.solve system in
  check_int "x0" 1 values.(0);
  check_int "x1" 1 values.(1);
  check_int "one component" 1 stats.Solver.sccs;
  check_int "component size" 2 stats.Solver.max_scc;
  check "converged" true stats.Solver.converged

let test_solver_backstop () =
  (* x0 = x0 + 1 on (int, max) has no fixpoint; the bounded-iteration
     backstop must report non-convergence instead of spinning *)
  let system =
    {
      S.size = 1;
      deps = (fun _ -> [ 0 ]);
      transfer = (fun env _ -> env 0 + 1);
    }
  in
  let _, stats = S.solve ~widen_after:4 system in
  check "did not converge" false stats.Solver.converged;
  check "widenings counted" true (stats.Solver.widenings > 0)

let test_solver_empty () =
  let system =
    { S.size = 0; deps = (fun _ -> []); transfer = (fun _ _ -> 0) }
  in
  let values, stats = S.solve system in
  check_int "no values" 0 (Array.length values);
  check "converged" true stats.Solver.converged

(* ------------------------------------------------------------------ *)
(* Reachability                                                        *)
(* ------------------------------------------------------------------ *)

let test_reachable_inverter () =
  let c = inverter () in
  let v = Option.get (Circuit.find_rail c "VDD") in
  let g = Option.get (Circuit.find_rail c "GND") in
  let out = Circuit.find_net c "OUT" in
  let inp = Circuit.find_net c "INP" in
  let r = Reach.reachable c [ v ] in
  check "vdd reaches out" true r.(out);
  check "vdd reaches gnd through channels" true r.(g);
  check "gate-only input not channel-reachable" false r.(inp);
  (* a stop net is marked but blocks propagation *)
  let r = Reach.reachable ~stop:[ out ] c [ v ] in
  check "stop net itself reached" true r.(out);
  check "propagation blocked at stop" false r.(g)

let test_distances_inverter () =
  let c = inverter () in
  let v = Option.get (Circuit.find_rail c "VDD") in
  let g = Option.get (Circuit.find_rail c "GND") in
  let out = Circuit.find_net c "OUT" in
  let inp = Circuit.find_net c "INP" in
  let d = Reach.distances c ~seeds:[ v ] ~use_device:(fun _ _ -> true) in
  check_int "seed at zero" 0 d.(v);
  check_int "out one hop" 1 d.(out);
  check_int "gnd two hops" 2 d.(g);
  check "input unreachable" true (d.(inp) = max_int)

(* ------------------------------------------------------------------ *)
(* Ternary abstract interpretation                                     *)
(* ------------------------------------------------------------------ *)

let rails c =
  ( Option.get (Circuit.find_rail c "VDD"),
    Option.get (Circuit.find_rail c "GND") )

let test_ternary_clean_inverter () =
  let c = inverter () in
  let v, g = rails c in
  let verdict = Ternary.analyze c ~vdd:v ~gnd:g in
  let out = Circuit.find_net c "OUT" in
  check "out may be high" true (Ternary.may1 verdict.Ternary.values.(out));
  check "out may be low" true (Ternary.may0 verdict.Ternary.values.(out));
  check "no contention" true (verdict.Ternary.contention = []);
  check "no bridges" true (verdict.Ternary.bridges = []);
  check "no dead logic" true (verdict.Ternary.dead = []);
  check "no floating nets" true (verdict.Ternary.float_nets = []);
  check "no charge sharing" true (verdict.Ternary.share = []);
  check "no x" true (verdict.Ternary.x_nets = []);
  check "converged" true verdict.Ternary.stats.Solver.converged

let test_ternary_contention_and_bridge () =
  (* both enhancement devices conduct when IN is high: OUT is fought
     over, and a third device is a direct VDD-GND bridge *)
  let c =
    {
      Circuit.name = "fight";
      nets = [| net [ "VDD" ]; net [ "IN" ]; net [ "OUT" ]; net [ "GND" ] |];
      devices = [| enh 1 0 2; enh 1 2 3; enh 1 0 3 |];
    }
  in
  let verdict = Ternary.analyze c ~vdd:0 ~gnd:3 in
  check "contention on OUT" true (List.mem 2 verdict.Ternary.contention);
  check "bridge device flagged" true (List.mem 2 verdict.Ternary.bridges)

let test_ternary_dead_gate () =
  (* N is held at weak-1 by a self-gated depletion load and gates the
     pull-down: it can never go low *)
  let c =
    {
      Circuit.name = "dead";
      nets = [| net [ "VDD" ]; net [ "N" ]; net [ "GND" ]; net [ "OUT" ] |];
      devices = [| dep 1 0 1; enh 1 3 2 |];
    }
  in
  let verdict = Ternary.analyze c ~vdd:0 ~gnd:2 in
  check "N never low" true
    (List.mem (1, Ternary.Never_low) verdict.Ternary.dead)

let test_ternary_floating () =
  (* pass transistor into a stub: S stores charge when G is off *)
  let c =
    {
      Circuit.name = "pass";
      nets =
        [| net [ "VDD" ]; net [ "GND" ]; net [ "G" ]; net [ "IN" ]; net [ "S" ] |];
      devices = [| enh 2 3 4 |];
    }
  in
  let inputs = [| false; false; true; true; false |] in
  let verdict = Ternary.analyze ~inputs c ~vdd:0 ~gnd:1 in
  check "S floats" true (List.mem 4 verdict.Ternary.float_nets);
  check "S not always driven" true verdict.Ternary.floating.(4)

let test_ternary_charge_sharing () =
  (* two charge-storage nets joined by a pass gate *)
  let c =
    {
      Circuit.name = "share";
      nets =
        [|
          net [ "VDD" ]; net [ "GND" ]; net [ "G" ]; net [ "IN" ];
          net [ "A" ]; net [ "B" ];
        |];
      devices = [| enh 2 3 4; enh 2 4 5 |];
    }
  in
  let inputs = [| false; false; true; true; false; false |] in
  let verdict = Ternary.analyze ~inputs c ~vdd:0 ~gnd:1 in
  check "pass gate shares charge" true (List.mem 1 verdict.Ternary.share)

let test_ternary_x_trace () =
  (* F floats and gates d1, injecting X into S (itself floating); the
     X flows through the G-gated pass d2 into the driven net OUT.  The
     trace from OUT must walk back to the floating source S. *)
  let c =
    {
      Circuit.name = "xsrc";
      nets =
        [|
          net [ "VDD" ]; net [ "GND" ]; net [ "G" ]; net [];
          net [ "S" ]; net [ "OUT" ];
        |];
      devices = [| enh 3 1 4; enh 2 4 5; dep 5 0 5 |];
    }
  in
  let inputs = [| false; false; true; false; false; false |] in
  let verdict = Ternary.analyze ~inputs c ~vdd:0 ~gnd:1 in
  check "OUT can carry X" true (List.mem 5 verdict.Ternary.x_nets);
  check "OUT itself is driven" false verdict.Ternary.floating.(5);
  (match Ternary.x_trace verdict c 5 with
  | [ 4; 5 ] -> ()
  | chain ->
      Alcotest.failf "unexpected trace [%s]"
        (String.concat "; " (List.map string_of_int chain)));
  (* a floating net is its own source *)
  check "floating net traces to itself" true
    (Ternary.x_trace verdict c 4 = [ 4 ])

let test_ternary_total_on_shared_rail () =
  (* vdd = gnd must not raise and must not report rail contention *)
  let c = inverter () in
  let v, _ = rails c in
  let verdict = Ternary.analyze c ~vdd:v ~gnd:v in
  check "shared rail tolerated" true
    (Array.length verdict.Ternary.values = Circuit.net_count c)

let test_ternary_corpus_converges () =
  (* the flow analysis must converge on every extractable data/ chip *)
  let dir =
    List.find Sys.file_exists [ "../data"; "data"; "_build/default/data" ]
  in
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f ->
         Filename.check_suffix f ".cif"
         && not (String.starts_with ~prefix:"broken" f))
  |> List.iter (fun f ->
         let c =
           Ace_core.Extractor.extract
             (Ace_cif.Design.of_ast
                (Ace_cif.Parser.parse_file (Filename.concat dir f)))
         in
         let vdd = Circuit.find_rail c "VDD" in
         let gnd = Circuit.find_rail c "GND" in
         let v, g =
           match (vdd, gnd) with
           | Some v, Some g when v <> g -> (v, g)
           | _ ->
               (* no rails (array workloads): force two nets so the
                  solver still runs end to end *)
               (0, min 1 (max 0 (Circuit.net_count c - 1)))
         in
         if Circuit.net_count c > 0 then begin
           let verdict = Ternary.analyze c ~vdd:v ~gnd:g in
           check (f ^ " converges") true verdict.Ternary.stats.Solver.converged
         end)

(* ------------------------------------------------------------------ *)
(* Soundness against the concrete simulator                            *)
(* ------------------------------------------------------------------ *)

(* Random circuits with rails at nets 0/1 and up to three named inputs
   that only gate devices (so both the simulator and the abstraction
   agree on what a primary input is). *)
let gen_railed_circuit =
  let open QCheck2.Gen in
  let* n_nets = int_range 5 8 in
  let n_inputs = 2 in
  let* n_devs = int_range 1 8 in
  let chan_min = 2 + n_inputs in
  let* devices =
    list_size (return n_devs)
      (let* dtype =
         frequency
           [
             (3, return Ace_tech.Nmos.Enhancement);
             (1, return Ace_tech.Nmos.Depletion);
           ]
       in
       let* gate = int_range 2 (n_nets - 1) in
       let* source = oneof [ return 0; return 1; int_range chan_min (n_nets - 1) ] in
       let* drain = int_range chan_min (n_nets - 1) in
       return
         {
           Circuit.dtype;
           gate;
           source;
           drain;
           length = (if dtype = Ace_tech.Nmos.Depletion then 8 else 2);
           width = 2;
           location = Ace_geom.Point.origin;
           geometry = [];
         })
  in
  let nets =
    Array.init n_nets (fun i ->
        net
          (if i = 0 then [ "VDD" ]
           else if i = 1 then [ "GND" ]
           else if i < chan_min then [ Printf.sprintf "IN%d" (i - 2) ]
           else []))
  in
  return { Circuit.name = "random"; devices = Array.of_list devices; nets }

let assignments k =
  (* all 2^k boolean vectors *)
  let rec go k = if k = 0 then [ [] ] else
      let rest = go (k - 1) in
      List.map (fun a -> false :: a) rest @ List.map (fun a -> true :: a) rest
  in
  go k

let flow_sound_vs_sim c =
  let verdict = Ternary.analyze c ~vdd:0 ~gnd:1 in
  let input_nets =
    List.filter (fun i -> verdict.Ternary.inputs.(i))
      (List.init (Circuit.net_count c) Fun.id)
  in
  let input_names =
    List.map (fun i -> List.hd c.Circuit.nets.(i).Circuit.names) input_nets
  in
  List.for_all
    (fun bits ->
      let sim = Sim.create c ~vdd:"VDD" ~gnd:"GND" in
      List.iter2
        (fun name b ->
          Sim.set_input sim name
            (if b then Ace_analysis.Sim.High else Ace_analysis.Sim.Low))
        input_names bits;
      if not (Sim.stabilize sim) then true (* oscillation: out of scope *)
      else
        List.for_all
          (fun n ->
            let v = verdict.Ternary.values.(n) in
            let covered may =
              may v || Ternary.mayx v || v land Ternary.float_bit <> 0
            in
            match Sim.value_of_net sim n with
            | Ace_analysis.Sim.High ->
                (* a concrete 1 must be abstractly possible, and
                   falsifies any Never_high claim *)
                covered Ternary.may1
                && not (List.mem (n, Ternary.Never_high) verdict.Ternary.dead)
            | Ace_analysis.Sim.Low ->
                covered Ternary.may0
                && not (List.mem (n, Ternary.Never_low) verdict.Ternary.dead)
            | Ace_analysis.Sim.Unknown -> true)
          (List.init (Circuit.net_count c) Fun.id))
    (assignments (List.length input_nets))

let qcheck_soundness =
  Tutil.qtest ~count:200 "flow sound vs exhaustive sim" gen_railed_circuit
    flow_sound_vs_sim

let () =
  Alcotest.run "flow"
    [
      ( "solver",
        [
          Alcotest.test_case "acyclic chain" `Quick test_solver_chain;
          Alcotest.test_case "cycle" `Quick test_solver_cycle;
          Alcotest.test_case "backstop" `Quick test_solver_backstop;
          Alcotest.test_case "empty system" `Quick test_solver_empty;
        ] );
      ( "reach",
        [
          Alcotest.test_case "reachable" `Quick test_reachable_inverter;
          Alcotest.test_case "distances" `Quick test_distances_inverter;
        ] );
      ( "ternary",
        [
          Alcotest.test_case "clean inverter" `Quick test_ternary_clean_inverter;
          Alcotest.test_case "contention and bridge" `Quick
            test_ternary_contention_and_bridge;
          Alcotest.test_case "dead gate" `Quick test_ternary_dead_gate;
          Alcotest.test_case "floating" `Quick test_ternary_floating;
          Alcotest.test_case "charge sharing" `Quick test_ternary_charge_sharing;
          Alcotest.test_case "x trace" `Quick test_ternary_x_trace;
          Alcotest.test_case "shared rail total" `Quick
            test_ternary_total_on_shared_rail;
          Alcotest.test_case "corpus converges" `Quick
            test_ternary_corpus_converges;
        ] );
      ("soundness", [ qcheck_soundness ]);
    ]
