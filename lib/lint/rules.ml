open Ace_tech
open Ace_netlist
open Rule

(* ------------------------------------------------------------------ *)
(* Shared structural helpers                                           *)
(* ------------------------------------------------------------------ *)

(* Channel-graph reachability from a seed net list.  Nets in [stop] are
   marked when touched but never expanded: a rail is a fixed potential,
   not a conductor to route through, so a VDD-origin search must not
   continue out the far side of GND.  Now solved as a boolean dataflow
   problem on the shared fixpoint engine. *)
let reachable = Ace_flow.Reach.reachable

(* gates.(n) / channels.(n): net n appears on a gate / channel terminal *)
let terminal_roles circuit =
  let n = Circuit.net_count circuit in
  let gates = Array.make n false in
  let channels = Array.make n false in
  Array.iter
    (fun (d : Circuit.device) ->
      gates.(d.gate) <- true;
      channels.(d.source) <- true;
      channels.(d.drain) <- true)
    circuit.Circuit.devices;
  (gates, channels)

(* [other_terminal d rail] is the net across the channel from [rail], or
   [None] when the device does not touch [rail] (or is degenerate). *)
let other_terminal (d : Circuit.device) rail =
  if d.source = rail && d.drain <> rail then Some d.drain
  else if d.drain = rail && d.source <> rail then Some d.source
  else None

(* Push-pull (superbuffer) output nodes: an enhancement pull-up from VDD
   whose gate is a separate control node, together with an enhancement
   pull-down to GND on the same node.  The Mead-Conway ratio rule does not
   apply to such actively-driven stages, and a VDD-GND path through them
   is intentional, not a sneak path.  Returns (nodes, pullup_devices):
   [nodes.(n)] marks the output node, [pullup_devices.(i)] the pull-up. *)
let push_pull circuit ~vdd ~gnd =
  let n = Circuit.net_count circuit in
  let up = Array.make n (-1) in
  let down = Array.make n false in
  Array.iteri
    (fun i (d : Circuit.device) ->
      if d.dtype = Nmos.Enhancement then begin
        (match other_terminal d vdd with
        | Some m when d.gate <> m -> up.(m) <- i
        | Some _ | None -> ());
        match other_terminal d gnd with
        | Some m -> down.(m) <- true
        | None -> ()
      end)
    circuit.Circuit.devices;
  let nodes = Array.init n (fun i -> up.(i) >= 0 && down.(i)) in
  let pullups = Array.make (Circuit.device_count circuit) false in
  Array.iteri (fun i is_pp -> if is_pp then pullups.(up.(i)) <- true) nodes;
  (nodes, pullups)

(* ------------------------------------------------------------------ *)
(* ACE §1's static-checker battery                                     *)
(* ------------------------------------------------------------------ *)

let no_rail =
  {
    code = "no-rail";
    summary = "a power rail net (VDD/GND) could not be located by name";
    doc =
      "ACE \xc2\xa71's ratio and stuck-at checks need both rails; a chip \
       without the expected labels silently loses most of the battery.";
    default = Finding.Info;
    check =
      (fun ctx ->
        match (ctx.vdd, ctx.gnd) with
        | None, _ ->
            [
              draft "no net named %s: rail-dependent checks skipped"
                ctx.vdd_name;
            ]
        | _, None ->
            [
              draft "no net named %s: rail-dependent checks skipped"
                ctx.gnd_name;
            ]
        | Some _, Some _ -> []);
  }

let power_short =
  {
    code = "power-short";
    summary = "VDD and GND resolve to the same net";
    doc =
      "A conducting path merging the rails shorts the supply: the chip \
       cannot function and every ratio check is meaningless.";
    default = Finding.Error;
    check =
      (fun ctx ->
        match (ctx.vdd, ctx.gnd) with
        | Some v, Some g when v = g ->
            [ draft ~net:v "%s and %s are the same net" ctx.vdd_name ctx.gnd_name ]
        | _ -> []);
  }

let malformed =
  {
    code = "malformed";
    summary = "floating channel: gate, source and drain on one net";
    doc =
      "ACE \xc2\xa71: the static checker \"detects malformed transistors\" \
       \xe2\x80\x94 a channel whose three terminals merged into one net does \
       nothing and usually marks a layout slip.";
    default = Finding.Error;
    check =
      (fun ctx ->
        let out = ref [] in
        Array.iteri
          (fun i (d : Circuit.device) ->
            if d.gate = d.source && d.gate = d.drain then
              out :=
                draft ~device:i
                  "floating channel: gate, source and drain on one net"
                :: !out)
          ctx.circuit.Circuit.devices;
        List.rev !out);
  }

let self_gate =
  {
    code = "self-gate";
    summary = "enhancement device gated by its own source/drain";
    doc =
      "An enhancement transistor whose gate is its own channel terminal can \
       never be driven past threshold by that node \xe2\x80\x94 legitimate \
       only for depletion loads (gate tied to source is the standard \
       Mead-Conway load).";
    default = Finding.Warning;
    check =
      (fun ctx ->
        let out = ref [] in
        Array.iteri
          (fun i (d : Circuit.device) ->
            if not (d.gate = d.source && d.gate = d.drain) then
              match d.dtype with
              | Nmos.Enhancement ->
                  if d.gate = d.source || d.gate = d.drain then
                    out :=
                      draft ~device:i
                        "enhancement device gated by its own source/drain"
                      :: !out
              | Nmos.Depletion -> ())
          ctx.circuit.Circuit.devices;
        List.rev !out);
  }

let ratio =
  {
    code = "ratio";
    summary = "pull-up/pull-down ratio below the Mead-Conway 4:1 minimum";
    doc =
      "ACE \xc2\xa71: the checker \"performs ratio checks\".  A gate-tied \
       depletion load against an enhancement pull-down must satisfy \
       (L/W)up / (L/W)down \xe2\x89\xa5 4 or the output low level rises above \
       the inverter threshold.  Push-pull (superbuffer) stages are exempt.";
    default = Finding.Warning;
    check =
      (fun ctx ->
        match (ctx.vdd, ctx.gnd) with
        | Some v, Some g ->
            let circuit = ctx.circuit in
            let pp_nodes, _ = push_pull circuit ~vdd:v ~gnd:g in
            (* depletion load from VDD to node N with gate tied to N *)
            let loads = Hashtbl.create 16 in
            Array.iter
              (fun (d : Circuit.device) ->
                match d.dtype with
                | Nmos.Depletion -> (
                    match other_terminal d v with
                    | Some n when d.gate = n -> Hashtbl.replace loads n d
                    | Some _ | None -> ())
                | Nmos.Enhancement -> ())
              circuit.Circuit.devices;
            let out = ref [] in
            Array.iteri
              (fun i (d : Circuit.device) ->
                match d.dtype with
                | Nmos.Enhancement -> (
                    match other_terminal d g with
                    | Some n when not pp_nodes.(n) -> (
                        match Hashtbl.find_opt loads n with
                        | Some (load : Circuit.device) ->
                            let k =
                              float_of_int load.length
                              /. float_of_int load.width
                              /. (float_of_int d.length /. float_of_int d.width)
                            in
                            if k < Nmos.min_inverter_ratio -. 1e-9 then
                              out :=
                                draft ~device:i ~net:n
                                  "pull-up/pull-down ratio %.2f below %.1f" k
                                  Nmos.min_inverter_ratio
                                :: !out
                        | None -> ())
                    | Some _ | None -> ())
                | Nmos.Depletion -> ())
              circuit.Circuit.devices;
            List.rev !out
        | _ -> []);
  }

let undriven =
  {
    code = "undriven";
    summary = "net gates devices but has no channel path to either rail";
    doc =
      "A gate input with no conducting path to VDD or GND floats at an \
       unknown level (stuck at X): ACE \xc2\xa71's \"signals stuck at \
       logical 0 or 1\" family.";
    default = Finding.Warning;
    check =
      (fun ctx ->
        match (ctx.vdd, ctx.gnd) with
        | Some v, Some g ->
            let circuit = ctx.circuit in
            let gates, channels = terminal_roles circuit in
            let from_vdd = reachable ~stop:[ g ] circuit [ v ] in
            let from_gnd = reachable ~stop:[ v ] circuit [ g ] in
            let out = ref [] in
            for net = 0 to Circuit.net_count circuit - 1 do
              if
                gates.(net) && net <> v && net <> g
                && (not (from_vdd.(net) || from_gnd.(net)))
                && (channels.(net) || circuit.Circuit.nets.(net).names = [])
              then
                out :=
                  draft ~net
                    "gates devices but has no channel path to either rail"
                  :: !out
            done;
            List.rev !out
        | _ -> []);
  }

let stuck =
  {
    code = "stuck";
    summary = "net reachable from only one rail (stuck at 0 or 1)";
    doc =
      "ACE \xc2\xa71: the checker \"checks for signals that are stuck at \
       logical 0 or 1\" \xe2\x80\x94 a gating net whose only channel paths \
       come from a single rail can never switch.";
    default = Finding.Warning;
    check =
      (fun ctx ->
        match (ctx.vdd, ctx.gnd) with
        | Some v, Some g ->
            let circuit = ctx.circuit in
            let gates, channels = terminal_roles circuit in
            let from_vdd = reachable ~stop:[ g ] circuit [ v ] in
            let from_gnd = reachable ~stop:[ v ] circuit [ g ] in
            let out = ref [] in
            for net = 0 to Circuit.net_count circuit - 1 do
              if gates.(net) && net <> v && net <> g then
                if from_vdd.(net) && not from_gnd.(net) then
                  out :=
                    draft ~net "can only be pulled high (stuck at 1)" :: !out
                else if from_gnd.(net) && (not from_vdd.(net)) && channels.(net)
                then
                  out :=
                    draft ~net "can only be pulled low (stuck at 0)" :: !out
            done;
            List.rev !out
        | _ -> []);
  }

let floating_gate =
  {
    code = "floating-gate";
    summary = "gate net with no channel connection and no name";
    doc =
      "A net that only gates devices, touches no channel and carries no \
       user label is almost always a wire that missed its contact.";
    default = Finding.Warning;
    check =
      (fun ctx ->
        let circuit = ctx.circuit in
        let gates, channels = terminal_roles circuit in
        let out = ref [] in
        for net = 0 to Circuit.net_count circuit - 1 do
          if
            gates.(net) && (not channels.(net))
            && circuit.Circuit.nets.(net).names = []
          then out := draft ~net "gate net has no driver and no name" :: !out
        done;
        List.rev !out);
  }

let isolated =
  {
    code = "isolated";
    summary = "unnamed net touching no devices";
    doc =
      "Decorative or dead geometry; harmless, but worth surfacing because \
       isolated conducting islands sometimes mark a missing contact cut.";
    default = Finding.Info;
    check =
      (fun ctx ->
        let circuit = ctx.circuit in
        let gates, channels = terminal_roles circuit in
        let out = ref [] in
        for net = 0 to Circuit.net_count circuit - 1 do
          if
            (not gates.(net))
            && (not channels.(net))
            && circuit.Circuit.nets.(net).names = []
          then out := draft ~net "unnamed net touches no devices" :: !out
        done;
        List.rev !out);
  }

(* ------------------------------------------------------------------ *)
(* New NMOS analyses                                                   *)
(* ------------------------------------------------------------------ *)

(* Pass devices: enhancement transistors whose channel connects two
   internal (non-rail) nets — the building blocks of pass-transistor
   steering networks. *)
let pass_devices circuit ~vdd ~gnd =
  Array.map
    (fun (d : Circuit.device) ->
      d.dtype = Nmos.Enhancement && d.source <> vdd && d.source <> gnd
      && d.drain <> vdd && d.drain <> gnd && d.source <> d.drain)
    circuit.Circuit.devices

let pass_depth =
  {
    code = "pass-depth";
    summary = "gate input reached only through a deep series pass chain";
    doc =
      "Each enhancement pass transistor drops one threshold voltage; after \
       a few in series an NMOS level no longer clears V_th at the receiving \
       gate (Mead-Conway budget: restore after at most one drop; the \
       default limit here is 3).";
    default = Finding.Warning;
    check =
      (fun ctx ->
        match (ctx.vdd, ctx.gnd) with
        | Some v, Some g when v <> g ->
            let circuit = ctx.circuit in
            let n = Circuit.net_count circuit in
            let is_pass = pass_devices circuit ~vdd:v ~gnd:g in
            (* restored (full-level) nets: the rails and anything a
               depletion load touches *)
            let seeds = ref [ v; g ] in
            Array.iter
              (fun (d : Circuit.device) ->
                if d.dtype = Nmos.Depletion then
                  seeds := d.source :: d.drain :: !seeds)
              circuit.Circuit.devices;
            let dist =
              Ace_flow.Reach.distances circuit ~seeds:!seeds
                ~use_device:(fun i _ -> is_pass.(i))
            in
            let gates, _ = terminal_roles circuit in
            let out = ref [] in
            for net = 0 to n - 1 do
              if
                gates.(net) && dist.(net) <> max_int
                && dist.(net) > ctx.max_pass_depth
              then
                out :=
                  draft ~net
                    "gate input driven through %d series pass transistors \
                     (threshold-drop limit %d)"
                    dist.(net) ctx.max_pass_depth
                  :: !out
            done;
            List.rev !out
        | _ -> []);
  }

let fanout =
  {
    code = "fanout";
    summary = "net drives more transistor gates than the fan-out limit";
    doc =
      "Every driven gate adds its oxide capacitance to the net; past the \
       limit (default 16) a ratioed NMOS stage becomes unacceptably slow \
       and should be superbuffered (Mead-Conway ch. 1).";
    default = Finding.Warning;
    check =
      (fun ctx ->
        let circuit = ctx.circuit in
        let n = Circuit.net_count circuit in
        let counts = Array.make n 0 in
        Array.iter
          (fun (d : Circuit.device) ->
            counts.(d.gate) <- counts.(d.gate) + 1)
          circuit.Circuit.devices;
        let out = ref [] in
        for net = 0 to n - 1 do
          if counts.(net) > ctx.max_fanout then
            out :=
              draft ~net "drives %d transistor gates (fan-out limit %d)"
                counts.(net) ctx.max_fanout
              :: !out
        done;
        List.rev !out);
  }

let sneak_path =
  {
    code = "sneak-path";
    summary = "load-free conducting path between VDD and GND";
    doc =
      "A rail-to-rail path made only of enhancement channels has no \
       current-limiting load: when every gate on it happens to be high the \
       supply is shorted through the pass network.  Recognized push-pull \
       (superbuffer) stages are exempt.";
    default = Finding.Warning;
    check =
      (fun ctx ->
        match (ctx.vdd, ctx.gnd) with
        | Some v, Some g when v <> g ->
            let circuit = ctx.circuit in
            let _, pp_pullups = push_pull circuit ~vdd:v ~gnd:g in
            (* Shortest-hop distances from VDD over enhancement channels,
               skipping recognized push-pull pull-ups; the report anchors
               on a closing edge of a shortest path into GND. *)
            let eligible i (d : Circuit.device) =
              d.dtype = Nmos.Enhancement
              && (not pp_pullups.(i))
              && d.source <> d.drain
            in
            let dist =
              Ace_flow.Reach.distances circuit ~seeds:[ v ]
                ~use_device:eligible
            in
            if dist.(g) = max_int then []
            else begin
              let hit = ref None in
              Array.iteri
                (fun i (d : Circuit.device) ->
                  if !hit = None && eligible i d then
                    match other_terminal d g with
                    | Some m when dist.(m) = dist.(g) - 1 -> hit := Some i
                    | Some _ | None -> ())
                circuit.Circuit.devices;
              match !hit with
              | Some dev ->
                  [
                    draft ~device:dev
                      "possible sneak path: %s reaches %s through %d \
                       enhancement channels with no load"
                      ctx.vdd_name ctx.gnd_name dist.(g);
                  ]
              | None -> []
            end
        | _ -> []);
  }

let superbuffer =
  {
    code = "superbuffer";
    summary = "recognized push-pull / bootstrap driver stage";
    doc =
      "Superbuffers and bootstrap drivers are the Mead-Conway idiom for \
       driving large loads; recognizing them here both documents the \
       design and suppresses false ratio warnings on their output nodes.";
    default = Finding.Info;
    check =
      (fun ctx ->
        match (ctx.vdd, ctx.gnd) with
        | Some v, Some g when v <> g ->
            let circuit = ctx.circuit in
            let pp_nodes, _ = push_pull circuit ~vdd:v ~gnd:g in
            let out = ref [] in
            Array.iteri
              (fun net is_pp ->
                if is_pp then
                  out :=
                    draft ~net
                      "push-pull (superbuffer) output stage: ratio check \
                       suppressed"
                    :: !out)
              pp_nodes;
            (* bootstrap / off-node depletion loads: gate on a separate
               node rather than tied to the output *)
            Array.iteri
              (fun i (d : Circuit.device) ->
                if d.dtype = Nmos.Depletion then
                  match other_terminal d v with
                  | Some m when d.gate <> m && d.gate <> v ->
                      out :=
                        draft ~device:i ~net:m
                          "depletion load with off-node gate (bootstrap \
                           driver?): not ratio-checked"
                        :: !out
                  | Some _ | None -> ())
              circuit.Circuit.devices;
            List.rev !out
        | _ -> []);
  }

let name_collision =
  {
    code = "name-collision";
    summary = "one label names several electrically distinct nets";
    doc =
      "Two nets carrying the same user label usually mean a wire the \
       designer believed connected but the extractor found split \xe2\x80\x94 \
       the classic extraction bug ACE exists to catch.";
    default = Finding.Warning;
    check =
      (fun ctx ->
        let circuit = ctx.circuit in
        let first = Hashtbl.create 16 in
        let seen = Hashtbl.create 16 in
        Array.iteri
          (fun i (net : Circuit.net) ->
            List.iter
              (fun name ->
                match Hashtbl.find_opt seen name with
                | None ->
                    Hashtbl.replace seen name 1;
                    Hashtbl.replace first name i
                | Some k ->
                    (* count distinct nets only once each *)
                    if Hashtbl.find first name <> i then
                      Hashtbl.replace seen name (k + 1))
              (List.sort_uniq compare net.names))
          circuit.Circuit.nets;
        Hashtbl.fold
          (fun name k acc ->
            if k > 1 then
              draft
                ~net:(Hashtbl.find first name)
                "label %S names %d electrically distinct nets" name k
              :: acc
            else acc)
          seen []
        |> List.sort compare);
  }

let aliased_net =
  {
    code = "aliased-net";
    summary = "one net carries several distinct labels";
    doc =
      "Multiple labels merging onto one net is sometimes intentional \
       (aliases) and sometimes an accidental short between two signals \
       \xe2\x80\x94 surfaced as informational so shorts are visible in \
       review.";
    default = Finding.Info;
    check =
      (fun ctx ->
        let out = ref [] in
        Array.iteri
          (fun i (net : Circuit.net) ->
            let names = List.sort_uniq compare net.names in
            if List.length names > 1 then
              out :=
                draft ~net:i "net carries %d labels: %s" (List.length names)
                  (String.concat ", " names)
                :: !out)
          ctx.circuit.Circuit.nets;
        List.rev !out);
  }

let off_grid =
  {
    code = "off-grid";
    summary = "channel dimensions not a multiple of λ";
    doc =
      "Mead-Conway design rules are stated in λ; a channel length or width \
       that is not a λ multiple means artwork drawn off the design grid, \
       which the fabrication line may round unpredictably.";
    default = Finding.Warning;
    check =
      (fun ctx ->
        if ctx.lambda <= 0 then []
        else begin
          let out = ref [] in
          Array.iteri
            (fun i (d : Circuit.device) ->
              if d.length mod ctx.lambda <> 0 || d.width mod ctx.lambda <> 0
              then
                out :=
                  draft ~device:i
                    "channel %d x %d c\xc2\xb5 is not on the \xce\xbb=%d grid"
                    d.length d.width ctx.lambda
                  :: !out)
            ctx.circuit.Circuit.devices;
          List.rev !out
        end);
  }

(* ------------------------------------------------------------------ *)
(* Dataflow rules: ternary switch-level abstract interpretation        *)
(* over the shared fixpoint engine                                     *)
(* ------------------------------------------------------------------ *)

module Flow = Ace_flow.Ternary

let with_flow ctx f =
  match Lazy.force ctx.flow with None -> [] | Some fv -> f fv

let flow_contention =
  {
    code = "flow-contention";
    summary = "an input assignment can drive strong 0 and strong 1 together";
    doc =
      "The ternary dataflow pass over-approximates every net's reachable \
       drive set; a net whose inflows include both a strong high and a \
       strong low can be fought over under some input assignment, burning \
       static current through the pass network.  Push-pull output stages \
       are exempt (their fight is brief and intentional); direct \
       rail-to-rail enhancement channels are reported at the device.";
    default = Finding.Error;
    check =
      (fun ctx ->
        with_flow ctx (fun fv ->
            let pp_nodes, _ =
              push_pull ctx.circuit ~vdd:fv.Flow.vdd ~gnd:fv.Flow.gnd
            in
            let nets =
              List.filter
                (fun n ->
                  n <> fv.Flow.vdd && n <> fv.Flow.gnd && not pp_nodes.(n))
                fv.Flow.contention
            in
            List.map
              (fun n ->
                draft ~net:n
                  "a strong 0 and a strong 1 can drive this net under the \
                   same input assignment (possible contention)")
              nets
            @ List.map
                (fun di ->
                  draft ~device:di
                    "enhancement channel connects %s and %s directly and its \
                     gate can go high"
                    ctx.vdd_name ctx.gnd_name)
                fv.Flow.bridges));
  }

let flow_dead =
  {
    code = "flow-dead";
    summary = "gate net with a provably constant logic level (dead logic)";
    doc =
      "A net that gates transistors but can only ever reach one logic level \
       never switches them: the logic behind it is dead \xe2\x80\x94 \
       typically a tied-off input that should be a rail contact, or a \
       missing pull path.  Proved by the ternary dataflow pass (a \
       may-analysis, so the constancy is sound).";
    default = Finding.Warning;
    check =
      (fun ctx ->
        with_flow ctx (fun fv ->
            List.map
              (fun (n, kind) ->
                match kind with
                | Flow.Never_low ->
                    draft ~net:n
                      "gate net can never be driven low (value always %s): \
                       pull-down logic dead or missing"
                      (Flow.mask_to_string fv.Flow.values.(n))
                | Flow.Never_high ->
                    draft ~net:n
                      "gate net can never be driven high (value always %s): \
                       pull-up logic dead or missing"
                      (Flow.mask_to_string fv.Flow.values.(n)))
              fv.Flow.dead));
  }

let flow_float =
  {
    code = "flow-float";
    summary = "net driven under some inputs but floating under others";
    doc =
      "A net not always connected to a driver stores charge while isolated \
       (dynamic node).  Legitimate in clocked designs, but each instance \
       deserves review: the stored level decays, and any path that can \
       later dump the charge into a sampling gate is a hazard.";
    default = Finding.Warning;
    check =
      (fun ctx ->
        with_flow ctx (fun fv ->
            List.map
              (fun n ->
                draft ~net:n
                  "can be isolated from all drivers (charge storage); \
                   reachable drive set %s"
                  (Flow.mask_to_string fv.Flow.values.(n)))
              fv.Flow.float_nets));
  }

let flow_share =
  {
    code = "flow-share";
    summary = "pass transistor can bridge two charge-storage nets";
    doc =
      "When a pass transistor whose gate can go high joins two nets that \
       can both be floating, their stored charge redistributes by \
       capacitance ratio \xe2\x80\x94 the classic charge-sharing hazard of \
       dynamic NMOS design.";
    default = Finding.Warning;
    check =
      (fun ctx ->
        with_flow ctx (fun fv ->
            List.map
              (fun di ->
                draft ~device:di
                  "can connect two charge-storage nets (charge sharing \
                   hazard)")
              fv.Flow.share));
  }

let flow_x =
  {
    code = "flow-x";
    summary = "transistor gated by a possibly-unknown (X) level";
    doc =
      "A gate that can sit at an unknown level makes the channel's state \
       unpredictable; the trace names the floating net the X originates \
       from, which is where the fix belongs.";
    default = Finding.Info;
    check =
      (fun ctx ->
        with_flow ctx (fun fv ->
            List.map
              (fun di ->
                let d = ctx.circuit.Circuit.devices.(di) in
                let suffix =
                  match Flow.x_trace fv ctx.circuit d.gate with
                  | src :: _ :: _ ->
                      Printf.sprintf " (X originates at floating net %s)"
                        (Circuit.net_display_name ctx.circuit src)
                  | _ -> ""
                in
                draft ~device:di ~net:d.gate
                  "gate can be at an unknown level%s" suffix)
              fv.Flow.x_devices));
  }

(* ------------------------------------------------------------------ *)
(* Registry                                                            *)
(* ------------------------------------------------------------------ *)

let all =
  [
    no_rail;
    power_short;
    malformed;
    self_gate;
    ratio;
    undriven;
    stuck;
    floating_gate;
    isolated;
    pass_depth;
    fanout;
    sneak_path;
    superbuffer;
    name_collision;
    aliased_net;
    off_grid;
    flow_contention;
    flow_dead;
    flow_float;
    flow_share;
    flow_x;
  ]

let find code = List.find_opt (fun r -> r.code = code) all
