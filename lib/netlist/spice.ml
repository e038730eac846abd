open Ace_tech

let sanitize name =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> c
      | _ -> '_')
    name

let to_string ?(gnd = "GND") (c : Circuit.t) =
  let gnd_net = try Some (Circuit.find_net c gnd) with Not_found -> None in
  let node i =
    if Some i = gnd_net then "0"
    else
      match c.Circuit.nets.(i).Circuit.names with
      | name :: _ -> sanitize name
      | [] -> Printf.sprintf "N%d" i
  in
  let buf = Buffer.create 1024 in
  Printf.bprintf buf "* %s — extracted by ace\n" c.Circuit.name;
  Printf.bprintf buf
    ".MODEL ENH NMOS (LEVEL=1 VTO=1.0 KP=20U GAMMA=0.4 PHI=0.6)\n";
  Printf.bprintf buf
    ".MODEL DEP NMOS (LEVEL=1 VTO=-3.0 KP=20U GAMMA=0.4 PHI=0.6)\n";
  Array.iteri
    (fun i (d : Circuit.device) ->
      (* centimicrons to microns *)
      let microns v = float_of_int v /. 100.0 in
      Printf.bprintf buf "M%d %s %s %s 0 %s L=%.2fU W=%.2fU\n" i
        (node d.drain) (node d.gate) (node d.source)
        (match d.dtype with
        | Nmos.Enhancement -> "ENH"
        | Nmos.Depletion -> "DEP")
        (microns d.length) (microns d.width))
    c.Circuit.devices;
  (* a comment block mapping every named net to its node *)
  Array.iteri
    (fun i (n : Circuit.net) ->
      match n.Circuit.names with
      | [] -> ()
      | names ->
          Printf.bprintf buf "* net %s: %s\n" (node i)
            (String.concat " " names))
    c.Circuit.nets;
  Buffer.add_string buf ".END\n";
  Buffer.contents buf

let to_file ?gnd path c =
  let oc = open_out path in
  output_string oc (to_string ?gnd c);
  close_out oc

(* ------------------------------------------------------------------ *)
(* Hierarchical decks                                                   *)
(* ------------------------------------------------------------------ *)

let of_hier (h : Hier.t) =
  let parts = Hier.index h in
  let buf = Buffer.create 4096 in
  Printf.bprintf buf "* hierarchical deck for %s — extracted by hext\n" h.Hier.top;
  Printf.bprintf buf
    ".MODEL ENH NMOS (LEVEL=1 VTO=1.0 KP=20U GAMMA=0.4 PHI=0.6)\n";
  Printf.bprintf buf
    ".MODEL DEP NMOS (LEVEL=1 VTO=-3.0 KP=20U GAMMA=0.4 PHI=0.6)\n";
  let node part i =
    match List.assoc_opt i part.Hier.net_names with
    | Some name -> sanitize name
    | None -> Printf.sprintf "N%d" i
  in
  let emit_body ~indent part =
    List.iteri
      (fun k (d : Hier.hdevice) ->
        let microns v = float_of_int v /. 100.0 in
        Printf.bprintf buf "%sM%d %s %s %s 0 %s L=%.2fU W=%.2fU\n" indent k
          (node part d.Hier.drain) (node part d.Hier.gate)
          (node part d.Hier.source)
          (match d.Hier.dtype with
          | Ace_tech.Nmos.Enhancement -> "ENH"
          | Ace_tech.Nmos.Depletion -> "DEP")
          (microns d.Hier.length) (microns d.Hier.width))
      part.Hier.devices;
    List.iteri
      (fun k (inst : Hier.instance) ->
        let child = Hier.find parts inst.Hier.part_name in
        (* pin order = child exports; actual = parent net bound to it,
           fresh local node when unbound *)
        let actuals =
          List.map
            (fun pin ->
              match List.assoc_opt pin inst.Hier.net_map with
              | Some outer -> node part outer
              | None -> Printf.sprintf "%s_u%d" (sanitize inst.Hier.inst_name) pin)
            child.Hier.exports
        in
        Printf.bprintf buf "%sX%d_%s %s %s\n" indent k
          (sanitize inst.Hier.inst_name)
          (String.concat " " actuals)
          (sanitize inst.Hier.part_name))
      part.Hier.instances
  in
  List.iter
    (fun part ->
      if part.Hier.part_name <> h.Hier.top then begin
        Printf.bprintf buf ".SUBCKT %s %s\n"
          (sanitize part.Hier.part_name)
          (String.concat " " (List.map (node part) part.Hier.exports));
        emit_body ~indent:"  " part;
        Printf.bprintf buf ".ENDS %s\n" (sanitize part.Hier.part_name)
      end)
    h.Hier.parts;
  emit_body ~indent:"" (Hier.find parts h.Hier.top);
  Buffer.add_string buf ".END\n";
  Buffer.contents buf
