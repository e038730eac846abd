open Ace_netlist

let find_rail = Circuit.find_rail

let context ?(config = Config.default) ?(vdd = "VDD") ?(gnd = "GND")
    ?(flow = `Auto) circuit =
  let vdd_net = find_rail circuit vdd in
  let gnd_net = find_rail circuit gnd in
  let flow =
    match flow with
    | `Off -> Lazy.from_val None
    | `Auto ->
        lazy
          (match (vdd_net, gnd_net) with
          | Some v, Some g when v <> g ->
              Some (Ace_flow.Ternary.analyze circuit ~vdd:v ~gnd:g)
          | _ -> None)
  in
  {
    Rule.circuit;
    vdd = vdd_net;
    gnd = gnd_net;
    vdd_name = vdd;
    gnd_name = gnd;
    lambda = config.Config.lambda;
    max_fanout = config.Config.max_fanout;
    max_pass_depth = config.Config.max_pass_depth;
    flow;
  }

let check config ctx =
  Ace_trace.Trace.with_span "lint.run" @@ fun () ->
  List.concat_map
    (fun (r : Rule.t) ->
      match Config.severity_for config r with
      | None -> []
      | Some severity ->
          List.map
            (fun (d : Rule.draft) ->
              {
                Finding.code = r.Rule.code;
                severity;
                message = d.Rule.message;
                device = d.Rule.device;
                net = d.Rule.net;
              })
            (r.Rule.check ctx))
    Rules.all

let run ?(config = Config.default) ?vdd ?gnd circuit =
  check config (context ~config ?vdd ?gnd circuit)
