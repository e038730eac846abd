open Ace_geom
open Ace_tech
open Ace_netlist

(* An independent re-implementation of strip-decomposition extraction with
   deliberately non-incremental structure: every strip re-scans the whole
   box array to find its active set.  Besides reproducing the comparison
   table's shape, this provides an N-version cross-check of the scanline
   engine (the test-suite requires both to produce equivalent circuits). *)

type stats = { stops : int; boxes_scanned : int }

type tagged = (Interval.span * int) list

let spans_of boxes layer ~top ~bottom =
  let spans =
    List.filter_map
      (fun (lyr, (bx : Box.t)) ->
        if Layer.equal lyr layer && bx.t >= top && bx.b <= bottom then
          Some (bx.l, bx.r)
        else None)
      boxes
  in
  Interval.of_spans spans

(* Tag current-strip intervals with net ids inherited from the previous
   strip by x-overlap. *)
let tag uf prev cur ~fresh =
  List.map
    (fun (c : Interval.span) ->
      let overlapping =
        List.filter_map
          (fun ((p : Interval.span), id) ->
            if max p.lo c.lo < min p.hi c.hi then Some id else None)
          prev
      in
      match overlapping with
      | [] -> (c, fresh c)
      | first :: rest ->
          List.iter (fun id -> ignore (Union_find.union uf first id)) rest;
          (c, first))
    cur

let ids_overlapping (tagged : tagged) (s : Interval.span) =
  List.filter_map
    (fun ((t : Interval.span), id) ->
      if max t.lo s.lo < min t.hi s.hi then Some id else None)
    tagged

let extract_raw boxes labels =
  let nets = Union_find.create () in
  let dev_uf = Union_find.create () in
  let net_x = Ibuf.create () and net_y = Ibuf.create () in
  let net_names = ref [] in
  let warnings = ref [] in
  let dev_area = Hashtbl.create 64 in
  let dev_implant = Hashtbl.create 64 in
  let dev_bbox = Hashtbl.create 64 in
  let dev_gate = Hashtbl.create 64 in
  let edge_len : (int * int, (int * (Point.t * int)) ref) Hashtbl.t =
    Hashtbl.create 64
  in
  let bump tbl key v =
    match Hashtbl.find_opt tbl key with
    | Some r -> r := !r + v
    | None -> Hashtbl.replace tbl key (ref v)
  in
  let bump_edge key len key_edge =
    match Hashtbl.find_opt edge_len key with
    | Some r ->
        let total, best = !r in
        r :=
          ( total + len,
            if Ace_core.Engine.edge_key_less key_edge best then key_edge
            else best )
    | None -> Hashtbl.replace edge_len key (ref (len, key_edge))
  in
  let stops =
    List.concat_map (fun (_, (bx : Box.t)) -> [ bx.t; bx.b ]) boxes
    |> List.sort_uniq (fun a b -> Int.compare b a)
  in
  let boxes_scanned = ref 0 in
  let prev_diff = ref [] and prev_poly = ref [] and prev_metal = ref [] in
  let prev_chan = ref [] in
  let pending_labels = ref labels in
  let rec strip_pairs = function
    | top :: (bottom :: _ as rest) ->
        process ~top ~bottom;
        strip_pairs rest
    | [ _ ] | [] -> ()
  and process ~top ~bottom =
    boxes_scanned := !boxes_scanned + List.length boxes;
    let height = top - bottom in
    let diff_raw = spans_of boxes Layer.Diffusion ~top ~bottom in
    let poly_raw = spans_of boxes Layer.Poly ~top ~bottom in
    let metal_raw = spans_of boxes Layer.Metal ~top ~bottom in
    let cut_raw = spans_of boxes Layer.Contact ~top ~bottom in
    let buried_raw = spans_of boxes Layer.Buried ~top ~bottom in
    let implant_raw = spans_of boxes Layer.Implant ~top ~bottom in
    let gate_overlap = Interval.inter diff_raw poly_raw in
    let channel = Interval.diff gate_overlap buried_raw in
    let buried_contact = Interval.inter gate_overlap buried_raw in
    let diff_cond = Interval.diff diff_raw channel in
    let fresh_net (s : Interval.span) =
      let e = Union_find.fresh nets in
      Ibuf.push net_x s.lo;
      Ibuf.push net_y bottom;
      e
    in
    let new_diff = tag nets !prev_diff diff_cond ~fresh:fresh_net in
    let new_poly = tag nets !prev_poly poly_raw ~fresh:fresh_net in
    let new_metal = tag nets !prev_metal metal_raw ~fresh:fresh_net in
    let new_chan =
      tag dev_uf !prev_chan channel ~fresh:(fun _ -> Union_find.fresh dev_uf)
    in
    (* Accumulate against element ids — classes are still merging; data is
       grouped by final root after the sweep. *)
    List.iter
      (fun ((s : Interval.span), dev) ->
        bump dev_area dev ((s.hi - s.lo) * height);
        let imp = Interval.overlap_length [ s ] implant_raw in
        if imp > 0 then bump dev_implant dev (imp * height);
        let cell = Box.make ~l:s.lo ~b:bottom ~r:s.hi ~t:top in
        (match Hashtbl.find_opt dev_bbox dev with
        | Some r -> r := Box.hull !r cell
        | None -> Hashtbl.replace dev_bbox dev (ref cell));
        (match ids_overlapping new_poly s with
        | g :: _ ->
            if not (Hashtbl.mem dev_gate dev) then Hashtbl.replace dev_gate dev g
        | [] -> ());
        (* same-strip abutment with conducting diffusion *)
        List.iter
          (fun ((d : Interval.span), net) ->
            if d.hi = s.lo then
              bump_edge (dev, net) height
                (Point.make s.lo bottom, Ace_core.Engine.side_left)
            else if d.lo = s.hi then
              bump_edge (dev, net) height
                (Point.make s.hi bottom, Ace_core.Engine.side_right))
          new_diff;
        (* cross-strip overlap with the previous strip's diffusion *)
        List.iter
          (fun ((d : Interval.span), net) ->
            let len = max 0 (min d.hi s.hi - max d.lo s.lo) in
            if len > 0 then
              bump_edge (dev, net) len
                (Point.make (max d.lo s.lo) top, Ace_core.Engine.side_above))
          !prev_diff)
      new_chan;
    (* previous strip's channels over this strip's diffusion *)
    List.iter
      (fun ((s : Interval.span), dev) ->
        List.iter
          (fun ((d : Interval.span), net) ->
            let len = max 0 (min d.hi s.hi - max d.lo s.lo) in
            if len > 0 then
              bump_edge (dev, net) len
                (Point.make (max d.lo s.lo) top, Ace_core.Engine.side_below))
          new_diff)
      !prev_chan;
    let connect vias tracks =
      List.iter
        (fun via ->
          let ids = List.concat_map (fun t -> ids_overlapping t via) tracks in
          match ids with
          | [] | [ _ ] -> ()
          | first :: rest ->
              List.iter (fun id -> ignore (Union_find.union nets first id)) rest)
        vias
    in
    connect cut_raw [ new_metal; new_poly; new_diff ];
    connect buried_contact [ new_poly; new_diff ];
    let rec bind () =
      match !pending_labels with
      | (lab : Ace_cif.Design.label) :: rest
        when lab.position.Point.y >= bottom && lab.position.Point.y < top ->
          pending_labels := rest;
          let x = lab.position.Point.x in
          let find_in tagged =
            List.find_map
              (fun ((s : Interval.span), id) ->
                if s.lo <= x && x < s.hi then Some id else None)
              tagged
          in
          let tracks =
            match lab.layer with
            | Some Layer.Metal -> [ new_metal ]
            | Some Layer.Poly -> [ new_poly ]
            | Some Layer.Diffusion -> [ new_diff ]
            | Some (Layer.Contact | Layer.Implant | Layer.Buried | Layer.Glass)
            | None ->
                [ new_metal; new_poly; new_diff ]
          in
          (match List.find_map find_in tracks with
          | Some net -> net_names := (net, lab.name) :: !net_names
          | None ->
              warnings :=
                Printf.sprintf "label %S touches no conducting geometry"
                  lab.name
                :: !warnings);
          bind ()
      | (_ : Ace_cif.Design.label) :: rest
        when (match !pending_labels with
              | l :: _ -> l.position.Point.y >= top
              | [] -> false) ->
          pending_labels := rest;
          bind ()
      | _ -> ()
    in
    bind ();
    prev_diff := new_diff;
    prev_poly := new_poly;
    prev_metal := new_metal;
    prev_chan := new_chan
  in
  strip_pairs stops;
  (* group per-element accumulators by final device root *)
  let devices =
    let by_root : (int, Ace_core.Engine.device_data ref) Hashtbl.t =
      Hashtbl.create 64
    in
    Hashtbl.iter
      (fun elem area ->
        let root = Union_find.find dev_uf elem in
        let implant =
          match Hashtbl.find_opt dev_implant elem with Some r -> !r | None -> 0
        in
        let bbox =
          match Hashtbl.find_opt dev_bbox elem with
          | Some r -> !r
          | None -> assert false
        in
        let gate =
          match Hashtbl.find_opt dev_gate elem with Some g -> g | None -> -1
        in
        match Hashtbl.find_opt by_root root with
        | Some r ->
            r :=
              {
                !r with
                Ace_core.Engine.area = !r.Ace_core.Engine.area + !area;
                implant_area = !r.Ace_core.Engine.implant_area + implant;
                bbox = Box.hull !r.Ace_core.Engine.bbox bbox;
                gate =
                  (if !r.Ace_core.Engine.gate >= 0 then !r.Ace_core.Engine.gate
                   else gate);
              }
        | None ->
            Hashtbl.replace by_root root
              (ref
                 {
                   Ace_core.Engine.area = !area;
                   implant_area = implant;
                   bbox;
                   gate;
                   contacts = [];
                   channel_geometry = [];
                   touches_boundary = false;
                 }))
      dev_area;
    (* edge contacts: re-key to (final device root, final net root) *)
    let merged : (int * int, (int * (Point.t * int)) ref) Hashtbl.t =
    Hashtbl.create 64
  in
    Hashtbl.iter
      (fun (dev_elem, net_elem) r0 ->
        let len, key_edge = !r0 in
        let key =
          (Union_find.find dev_uf dev_elem, Union_find.find nets net_elem)
        in
        match Hashtbl.find_opt merged key with
        | Some r ->
            let total, best = !r in
            r :=
              ( total + len,
                if Ace_core.Engine.edge_key_less key_edge best then key_edge
                else best )
        | None -> Hashtbl.replace merged key (ref (len, key_edge)))
      edge_len;
    Hashtbl.iter
      (fun (dev_root, net_root) r0 ->
        let len, (pos, side) = !r0 in
        match Hashtbl.find_opt by_root dev_root with
        | Some r ->
            r :=
              {
                !r with
                Ace_core.Engine.contacts =
                  (net_root, len, pos, side) :: !r.Ace_core.Engine.contacts;
              }
        | None -> ())
      merged;
    Hashtbl.fold (fun root r acc -> (root, !r) :: acc) by_root []
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
      stops = List.length stops;
      max_active = 0;
      timing = Ace_core.Timing.create ();
    },
    { stops = List.length stops; boxes_scanned = !boxes_scanned } )

let extract_boxes ?(name = "chip") ?(labels = []) boxes =
  let raw, _ = extract_raw boxes labels in
  Ace_core.Extractor.circuit_of_raw ~name ~include_partial:true raw

let extract_with_stats ?(name = "chip") design =
  let boxes = Ace_cif.Flatten.flatten design in
  let labels = Ace_cif.Design.labels design in
  let raw, stats = extract_raw boxes labels in
  (Ace_core.Extractor.circuit_of_raw ~name ~include_partial:true raw, stats)

let extract ?name design = fst (extract_with_stats ?name design)
