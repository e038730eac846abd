open Ace_geom
open Ace_tech
open Ace_netlist

type stats = { grid_width : int; grid_height : int; squares_visited : int }

let layer_bit lyr = 1 lsl Layer.index lyr
let has mask lyr = mask land layer_bit lyr <> 0

let extract_raw ~grid boxes labels =
  let bbox =
    match Box.hull_list (List.map snd boxes) with
    | Some b -> b
    | None -> Box.make ~l:0 ~b:0 ~r:1 ~t:1
  in
  let floor_div a b = if a >= 0 then a / b else -(((-a) + b - 1) / b) in
  let ceil_div a b = -floor_div (-a) b in
  let x0 = floor_div bbox.Box.l grid and y0 = floor_div bbox.Box.b grid in
  let x1 = ceil_div bbox.Box.r grid and y1 = ceil_div bbox.Box.t grid in
  let gw = x1 - x0 and gh = y1 - y0 in
  let masks = Bytes.make (gw * gh) '\000' in
  let idx x y = (y * gw) + x in
  List.iter
    (fun (lyr, (bx : Box.t)) ->
      let cl = floor_div bx.l grid - x0
      and cr = ceil_div bx.r grid - x0
      and cb = floor_div bx.b grid - y0
      and ct = ceil_div bx.t grid - y0 in
      for y = cb to ct - 1 do
        for x = cl to cr - 1 do
          let i = idx x y in
          Bytes.unsafe_set masks i
            (Char.chr (Char.code (Bytes.unsafe_get masks i) lor layer_bit lyr))
        done
      done)
    boxes;
  let mask_at x y =
    if x < 0 || y < 0 || x >= gw || y >= gh then 0
    else Char.code (Bytes.unsafe_get masks (idx x y))
  in
  let is_channel m =
    has m Layer.Diffusion && has m Layer.Poly && not (has m Layer.Buried)
  in
  let is_diffc m = has m Layer.Diffusion && not (is_channel m) in
  let is_poly m = has m Layer.Poly in
  let is_metal m = has m Layer.Metal in
  let nets = Union_find.create () in
  let dev_uf = Union_find.create () in
  let net_x = Ibuf.create () and net_y = Ibuf.create () in
  (* id grids: diffusion, poly, metal nets and channel devices *)
  let none = -1 in
  let diff_id = Array.make (gw * gh) none in
  let poly_id = Array.make (gw * gh) none in
  let metal_id = Array.make (gw * gh) none in
  let chan_id = Array.make (gw * gh) none in
  let fresh_net x y =
    let e = Union_find.fresh nets in
    Ibuf.push net_x ((x + x0) * grid);
    Ibuf.push net_y ((y + y0) * grid);
    e
  in
  (* Assign an id to the cell from its left and upper neighbours (the
     L-shaped window); returns the id. *)
  let assign uf ids ~fresh x y =
    let left = if x > 0 then ids.(idx (x - 1) y) else none in
    (* scanning top to bottom: the row above is y+1 *)
    let up = if y < gh - 1 then ids.(idx x (y + 1)) else none in
    let id =
      match (left, up) with
      | -1, -1 -> fresh x y
      | l, -1 -> l
      | -1, u -> u
      | l, u -> Union_find.union uf l u
    in
    ids.(idx x y) <- id;
    id
  in
  let visited = ref 0 in
  for y = gh - 1 downto 0 do
    for x = 0 to gw - 1 do
      incr visited;
      let m = mask_at x y in
      if m <> 0 then begin
        let d =
          if is_diffc m then assign nets diff_id ~fresh:fresh_net x y else none
        in
        let p =
          if is_poly m then assign nets poly_id ~fresh:fresh_net x y else none
        in
        let mt =
          if is_metal m then assign nets metal_id ~fresh:fresh_net x y else none
        in
        if is_channel m then
          ignore
            (assign dev_uf chan_id
               ~fresh:(fun _ _ -> Union_find.fresh dev_uf)
               x y);
        (* contact cut connects whatever conductors are present *)
        if has m Layer.Contact then begin
          let present = List.filter (fun i -> i <> none) [ d; p; mt ] in
          match present with
          | a :: rest -> List.iter (fun b -> ignore (Union_find.union nets a b)) rest
          | [] -> ()
        end;
        (* buried contact connects poly and diffusion *)
        if has m Layer.Buried && d <> none && p <> none then
          ignore (Union_find.union nets d p)
      end
    done
  done;
  (* Contact runs: the scanline engine's cut rule bridges every conductor
     overlapping a cut interval within one strip, so a wide cut can join
     conductors that never share a grid square.  Mirror that semantics: in
     each row, union everything conducting under a maximal run of cut
     squares. *)
  for y = 0 to gh - 1 do
    let run_ids = ref [] in
    let flush () =
      (match !run_ids with
      | [] | [ _ ] -> ()
      | first :: rest ->
          List.iter (fun b -> ignore (Union_find.union nets first b)) rest);
      run_ids := []
    in
    for x = 0 to gw - 1 do
      if has (mask_at x y) Layer.Contact then
        List.iter
          (fun ids ->
            let id = ids.(idx x y) in
            if id <> none then run_ids := id :: !run_ids)
          [ diff_id; poly_id; metal_id ]
      else flush ()
    done;
    flush ()
  done;
  (* second pass: device data and channel/diffusion adjacency *)
  let dev_area = Hashtbl.create 64 in
  let dev_implant = Hashtbl.create 64 in
  let dev_bbox = Hashtbl.create 64 in
  let dev_gate = Hashtbl.create 64 in
  let edges : (int * int, (int * (Point.t * int)) ref) Hashtbl.t =
    Hashtbl.create 64
  in
  let bump tbl key v =
    match Hashtbl.find_opt tbl key with
    | Some r -> r := !r + v
    | None -> Hashtbl.replace tbl key (ref v)
  in
  let bump_edge tbl key len key_edge =
    match Hashtbl.find_opt tbl key with
    | Some r ->
        let total, best = !r in
        r :=
          ( total + len,
            if Ace_core.Engine.edge_key_less key_edge best then key_edge
            else best )
    | None -> Hashtbl.replace tbl key (ref (len, key_edge))
  in
  for y = 0 to gh - 1 do
    for x = 0 to gw - 1 do
      let c = chan_id.(idx x y) in
      if c <> none then begin
        let root = Union_find.find dev_uf c in
        bump dev_area root (grid * grid);
        if has (mask_at x y) Layer.Implant then bump dev_implant root (grid * grid);
        let cell =
          Box.make ~l:((x + x0) * grid) ~b:((y + y0) * grid)
            ~r:((x + x0 + 1) * grid)
            ~t:((y + y0 + 1) * grid)
        in
        (match Hashtbl.find_opt dev_bbox root with
        | Some r -> r := Box.hull !r cell
        | None -> Hashtbl.replace dev_bbox root (ref cell));
        if not (Hashtbl.mem dev_gate root) then
          Hashtbl.replace dev_gate root poly_id.(idx x y);
        List.iter
          (fun (nx, ny) ->
            if nx >= 0 && ny >= 0 && nx < gw && ny < gh then begin
              let n = diff_id.(idx nx ny) in
              if n <> none then begin
                (* edge position and side in chip coordinates, matching the
                   scanline engine's convention: vertical edges use
                   (x, bottom), horizontal edges (left, y) *)
                let key_edge =
                  if ny = y then
                    ( Point.make ((x0 + max x nx) * grid) ((y0 + y) * grid),
                      if nx < x then Ace_core.Engine.side_left
                      else Ace_core.Engine.side_right )
                  else
                    ( Point.make ((x0 + x) * grid) ((y0 + max y ny) * grid),
                      if ny < y then Ace_core.Engine.side_below
                      else Ace_core.Engine.side_above )
                in
                bump_edge edges (root, Union_find.find nets n) grid key_edge
              end
            end)
          [ (x - 1, y); (x + 1, y); (x, y - 1); (x, y + 1) ]
      end
    done
  done;
  (* labels *)
  let net_names = ref [] in
  let warnings = ref [] in
  List.iter
    (fun (lab : Ace_cif.Design.label) ->
      let x = floor_div lab.position.Point.x grid - x0
      and y = floor_div lab.position.Point.y grid - y0 in
      let lookup ids =
        if x < 0 || y < 0 || x >= gw || y >= gh then none else ids.(idx x y)
      in
      let candidates =
        match lab.layer with
        | Some Layer.Metal -> [ lookup metal_id ]
        | Some Layer.Poly -> [ lookup poly_id ]
        | Some Layer.Diffusion -> [ lookup diff_id ]
        | Some (Layer.Contact | Layer.Implant | Layer.Buried | Layer.Glass)
        | None ->
            [ lookup metal_id; lookup poly_id; lookup diff_id ]
      in
      match List.find_opt (fun i -> i <> none) candidates with
      | Some net -> net_names := (net, lab.name) :: !net_names
      | None ->
          warnings :=
            Printf.sprintf "label %S touches no conducting geometry" lab.name
            :: !warnings)
    labels;
  (* package as an Engine.raw so the standard resolution applies *)
  let devices =
    Hashtbl.fold
      (fun root area acc ->
        let implant =
          match Hashtbl.find_opt dev_implant root with Some r -> !r | None -> 0
        in
        let bbox =
          match Hashtbl.find_opt dev_bbox root with
          | Some r -> !r
          | None -> assert false
        in
        let gate =
          match Hashtbl.find_opt dev_gate root with Some g -> g | None -> -1
        in
        let contacts =
          Hashtbl.fold
            (fun (dr, nr) r acc ->
              if dr = root then
                let len, (pos, side) = !r in
                (nr, len, pos, side) :: acc
              else acc)
            edges []
        in
        ( root,
          {
            Ace_core.Engine.area = !area;
            implant_area = implant;
            bbox;
            gate;
            contacts;
            channel_geometry = [];
            touches_boundary = false;
          } )
        :: acc)
      dev_area []
  in
  ( {
      Ace_core.Engine.nets;
      net_names = !net_names;
      net_x = net_x.Ibuf.data;
      net_y = net_y.Ibuf.data;
      net_phase = Array.make net_x.Ibuf.len 0;
      net_geometry = Hashtbl.create 1;
      devices;
      boundary_nets = [];
      boundary_channels = [];
      warnings = List.rev !warnings;
      stops = gh;
      max_active = 0;
      timing = Ace_core.Timing.create ();
    },
    { grid_width = gw; grid_height = gh; squares_visited = !visited } )

let extract_boxes ?(grid = 125) ?(name = "chip") ?(labels = []) boxes =
  let raw, _ = extract_raw ~grid boxes labels in
  Ace_core.Extractor.circuit_of_raw ~name raw

let extract_with_stats ?(grid = 125) ?(name = "chip") design =
  let boxes = Ace_cif.Flatten.flatten design in
  let labels = Ace_cif.Design.labels design in
  let raw, stats = extract_raw ~grid boxes labels in
  (Ace_core.Extractor.circuit_of_raw ~name raw, stats)

let extract ?grid ?name design = fst (extract_with_stats ?grid ?name design)
