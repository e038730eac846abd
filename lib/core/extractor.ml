open Ace_geom
open Ace_tech
open Ace_netlist

type stats = {
  boxes : int;
  stops : int;
  max_active : int;
  timing : Timing.t;
  warnings : Ace_diag.Diag.t list;
}

(* Contact order: longest edge first; ties broken by the edge's
   geometric position so flat and hierarchical extraction always agree.
   On a full tie the contact met first comes first. *)
let before (_, la, (pa : Point.t), sa) (_, lb, (pb : Point.t), sb) =
  la > lb || (la = lb && Engine.edge_key_lt pa.x pa.y sa pb.x pb.y sb)

let no_contact = (-1, 0, Point.origin, 0)

(* The first two contacts in that order, in one scan without a sort or
   a tuple per comparison: a strictly earlier contact displaces [first]
   or [second]. *)
let rec best_two first second = function
  | [] -> (first, second)
  | c :: rest ->
      if first == no_contact then best_two c second rest
      else if before c first then best_two c first rest
      else if second == no_contact || before c second then
        best_two first c rest
      else best_two first second rest

(* The transistor sizing rule of ACE §3: source edge = perimeter along
   which the source net touches the channel; W = mean(source edge, drain
   edge); L = area / W. *)
let channel_terminals ~gate ~area ~contacts =
  let ((n1, l1, _, _) as first), ((n2, l2, _, _) as second) =
    best_two no_contact no_contact contacts
  in
  let source, drain, width =
    if first == no_contact then
      (* floating channel; keep indices valid, let the checker flag it *)
      (gate, gate, max 1 (int_of_float (sqrt (float_of_int area))))
    else if second == no_contact then (n1, n1, l1 / 2)
    else (n1, n2, (l1 + l2) / 2)
  in
  let width = max 1 width in
  let length = max 1 (area / width) in
  (source, drain, width, length)

let resolve_device nets dense (data : Engine.device_data) =
  let resolve e = dense.(Union_find.find nets e) in
  let gate = if data.gate >= 0 then resolve data.gate else 0 in
  let contacts =
    List.map (fun (n, l, p, side) -> (resolve n, l, p, side)) data.contacts
  in
  let source, drain, width, length =
    channel_terminals ~gate ~area:data.area ~contacts
  in
  let dtype = Nmos.channel_type ~implanted:(2 * data.implant_area >= data.area) in
  {
    Circuit.dtype;
    gate;
    source;
    drain;
    length;
    width;
    location = Box.min_corner data.bbox;
    geometry = List.map (fun bx -> (Layer.Diffusion, bx)) data.channel_geometry;
  }

let circuit_of_raw ~name ~include_partial (raw : Engine.raw) =
  let nets = raw.nets in
  let dense = Union_find.compress nets in
  let class_count = Union_find.class_count nets in
  let names = Array.make class_count [] in
  List.iter
    (fun (e, n) ->
      let c = dense.(Union_find.find nets e) in
      names.(c) <- n :: names.(c))
    raw.net_names;
  (* location: the creation point of each class's earliest (lowest,
     topmost-created) element, met first in one ascending pass *)
  let locations = Array.make class_count Point.origin in
  let located = Array.make class_count false in
  for e = 0 to Union_find.count nets - 1 do
    let c = dense.(Union_find.find nets e) in
    if not located.(c) then begin
      located.(c) <- true;
      locations.(c) <- Point.make raw.net_x.(e) raw.net_y.(e)
    end
  done;
  let geometry = Array.make class_count [] in
  Hashtbl.iter
    (fun e boxes ->
      let c = dense.(Union_find.find nets e) in
      geometry.(c) <- boxes @ geometry.(c))
    raw.net_geometry;
  (* order nets by descending location y (the figures list top nets first) *)
  let order = Array.init class_count (fun i -> i) in
  Array.sort
    (fun a b ->
      let pa = locations.(a) and pb = locations.(b) in
      let c = Int.compare pb.Point.y pa.Point.y in
      if c <> 0 then c else Int.compare pa.Point.x pb.Point.x)
    order;
  let position = Array.make class_count 0 in
  Array.iteri (fun rank c -> position.(c) <- rank) order;
  let coalesce boxes =
    List.concat_map
      (fun layer ->
        let mine =
          List.filter_map
            (fun (l, b) -> if Layer.equal l layer then Some b else None)
            boxes
        in
        List.map (fun b -> (layer, b)) (Poly.coalesce_columns mine))
      Layer.conducting_layers
  in
  let nets_arr =
    Array.map
      (fun c ->
        {
          Circuit.names = List.sort_uniq String.compare names.(c);
          location = locations.(c);
          geometry = (match geometry.(c) with [] -> [] | g -> coalesce g);
        })
      order
  in
  (* dense-with-ordering mapping for terminals *)
  let dense_ordered =
    Array.init (Union_find.count nets) (fun e -> position.(dense.(e)))
  in
  let devices =
    Array.of_list
      (List.filter_map
         (fun (_, (d : Engine.device_data)) ->
           if include_partial || not d.touches_boundary then
             Some (resolve_device nets dense_ordered d)
           else None)
         raw.devices)
  in
  Array.stable_sort
    (fun (a : Circuit.device) b ->
      let c = Int.compare a.location.Point.y b.location.Point.y in
      if c <> 0 then c else Int.compare a.location.Point.x b.location.Point.x)
    devices;
  { Circuit.name; devices; nets = nets_arr }

let extract_with_stats ?(cancel = Cancel.never) ?(emit_geometry = false)
    ?(name = "chip") design =
  let stream = Ace_cif.Stream.create design in
  let labels = Ace_cif.Stream.labels stream in
  let source = Engine.source_of_stream ~cancel stream in
  let raw =
    Engine.run ~cancel { Engine.emit_geometry; window = None } source ~labels
  in
  (* read now: the stream's heap and pools are garbage while
     [circuit_of_raw] allocates *)
  let boxes = Ace_cif.Stream.boxes_popped stream in
  let circuit = circuit_of_raw ~name ~include_partial:true raw in
  ( circuit,
    {
      boxes;
      stops = raw.stops;
      max_active = raw.max_active;
      timing = raw.timing;
      warnings =
        List.map
          (Ace_diag.Diag.warning ~code:"extract-anomaly")
          raw.warnings;
    } )

let extract ?cancel ?emit_geometry ?name design =
  fst (extract_with_stats ?cancel ?emit_geometry ?name design)

let extract_boxes ?(emit_geometry = false) ?(name = "chip") ?(labels = []) boxes =
  let source = Engine.source_of_boxes boxes in
  let raw = Engine.run { Engine.emit_geometry; window = None } source ~labels in
  circuit_of_raw ~name ~include_partial:true raw

let extract_cif_string ?emit_geometry ?name text =
  let ast = Ace_cif.Parser.parse_string text in
  let design = Ace_cif.Design.of_ast ast in
  extract ?emit_geometry ?name design
