open Ace_geom
open Ace_tech
open Ace_netlist

type partial = {
  p_area : int;
  p_implant : int;
  p_bbox : Box.t;
  p_gate : int;
  p_contacts : (int * int * Point.t * int) list;
      (** (local net, edge length, minimal edge position, edge side) *)
  p_spans : (Engine.face * Interval.span) list;
}

type iface_span = {
  face : Engine.face;
  span : Interval.span;
  layer : Layer.t;
  net : int;
}

type t = {
  id : int;
  width : int;
  height : int;
  part : Hier.part;
  iface : iface_span list;
  partials : partial list;
}

let part_name id = Printf.sprintf "W%d" id

let size_contacts ~resolve ~gate ~area contacts =
  (* merge contact entries that resolve to the same net, keeping the
     minimal edge key for deterministic terminal ties *)
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (n, l, pos, side) ->
      let n = resolve n in
      match Hashtbl.find_opt tbl n with
      | Some r ->
          let total, best = !r in
          r :=
            ( total + l,
              if Engine.edge_key_less (pos, side) best then (pos, side)
              else best )
      | None -> Hashtbl.replace tbl n (ref (l, (pos, side))))
    contacts;
  let contacts =
    Hashtbl.fold
      (fun n r acc ->
        let l, (pos, side) = !r in
        (n, l, pos, side) :: acc)
      tbl []
  in
  Extractor.channel_terminals ~gate ~area ~contacts

let device_of_partial p ~resolve : Hier.hdevice =
  let gate = resolve p.p_gate in
  let source, drain, width, length =
    size_contacts ~resolve ~gate ~area:p.p_area p.p_contacts
  in
  {
    Hier.dtype = Nmos.channel_type ~implanted:(2 * p.p_implant >= p.p_area);
    gate;
    source;
    drain;
    length;
    width;
    location = Box.min_corner p.p_bbox;
  }

(* Coalesce same-tag spans that overlap or abut. *)
let coalesce_spans spans =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (tag, (s : Interval.span)) ->
      let existing = try Hashtbl.find tbl tag with Not_found -> [] in
      Hashtbl.replace tbl tag ((s.lo, s.hi) :: existing))
    spans;
  Hashtbl.fold
    (fun tag raw acc ->
      List.fold_left
        (fun acc s -> (tag, s) :: acc)
        acc
        (Interval.of_spans raw))
    tbl []

(* ------------------------------------------------------------------ *)
(* Leaf                                                                 *)
(* ------------------------------------------------------------------ *)

let complete_devices (raw : Engine.raw) =
  List.fold_left
    (fun acc ((_, (d : Engine.device_data)) as rd) ->
      if d.Engine.touches_boundary then acc else rd :: acc)
    [] raw.Engine.devices
  |> List.stable_sort (fun (_, (a : Engine.device_data)) (_, b) ->
         let a = a.Engine.bbox and b = b.Engine.bbox in
         let c = Int.compare a.Box.b b.Box.b in
         if c <> 0 then c else Int.compare a.Box.l b.Box.l)

let leaf_of_raw ~next_id ~window (raw : Engine.raw) =
  let nets = raw.Engine.nets in
  let dense = Union_find.compress nets in
  let resolve e = dense.(Union_find.find nets e) in
  let net_count = Union_find.class_count nets in
  let dx = -window.Box.l and dy = -window.Box.b in
  let localize (bx : Box.t) = Box.translate bx ~dx ~dy in
  let local_span face (s : Interval.span) =
    match face with
    | Engine.West | Engine.East -> { Interval.lo = s.lo + dy; hi = s.hi + dy }
    | Engine.South | Engine.North -> { Interval.lo = s.lo + dx; hi = s.hi + dx }
  in
  let net_names =
    List.map (fun (e, name) -> (resolve e, name)) raw.Engine.net_names
  in
  (* boundary channel spans grouped by device root *)
  let spans_by_dev : (int, (Engine.face * Interval.span) list) Hashtbl.t =
    Hashtbl.create 16
  in
  List.iter
    (fun (bc : Engine.boundary_channel) ->
      let root = bc.Engine.cdev in
      let prev = try Hashtbl.find spans_by_dev root with Not_found -> [] in
      Hashtbl.replace spans_by_dev root
        ((bc.Engine.cface, local_span bc.Engine.cface bc.Engine.cspan) :: prev))
    raw.Engine.boundary_channels;
  let partials =
    List.fold_left
      (fun acc (root, (d : Engine.device_data)) ->
        if not d.Engine.touches_boundary then acc
        else
          let my_spans =
            match Hashtbl.find_opt spans_by_dev root with
            | Some spans -> spans
            | None -> []
          in
          {
            p_area = d.Engine.area;
            p_implant = d.Engine.implant_area;
            p_bbox = localize d.Engine.bbox;
            p_gate = (if d.Engine.gate >= 0 then resolve d.Engine.gate else 0);
            p_contacts =
              List.map
                (fun (n, l, pos, side) ->
                  (resolve n, l, Point.add pos (Point.make dx dy), side))
                d.Engine.contacts;
            p_spans = coalesce_spans my_spans;
          }
          :: acc)
      [] raw.Engine.devices
  in
  let devices =
    List.map
      (fun (_, d) ->
        let cd = Extractor.resolve_device nets dense d in
        {
          Hier.dtype = cd.Circuit.dtype;
          gate = cd.Circuit.gate;
          source = cd.Circuit.source;
          drain = cd.Circuit.drain;
          length = cd.Circuit.length;
          width = cd.Circuit.width;
          location = Point.add cd.Circuit.location (Point.make dx dy);
        })
      (complete_devices raw)
  in
  let iface =
    coalesce_spans
      (List.map
         (fun (bs : Engine.boundary_span) ->
           ( (bs.Engine.bface, bs.Engine.blayer, resolve bs.Engine.bnet),
             local_span bs.Engine.bface bs.Engine.bspan ))
         raw.Engine.boundary_nets)
    |> List.map (fun ((face, layer, net), span) -> { face; span; layer; net })
  in
  {
    id = next_id;
    width = Box.width window;
    height = Box.height window;
    part =
      {
        Hier.part_name = part_name next_id;
        net_count;
        exports = List.sort_uniq Int.compare (List.map (fun s -> s.net) iface);
        net_names;
        devices;
        instances = [];
      };
    iface;
    partials = List.sort (fun a b -> Box.compare a.p_bbox b.p_bbox) partials;
  }

let leaf ~next_id ~window ~boxes ~labels =
  let source = Engine.source_of_boxes boxes in
  let labels =
    List.sort
      (fun (a : Ace_cif.Design.label) b ->
        Int.compare b.position.Point.y a.position.Point.y)
      labels
  in
  let raw =
    Engine.run { Engine.emit_geometry = false; window = Some window } source
      ~labels
  in
  leaf_of_raw ~next_id ~window raw

(* ------------------------------------------------------------------ *)
(* Compose                                                              *)
(* ------------------------------------------------------------------ *)

let translate_face_span ~(offset : Point.t) face (s : Interval.span) =
  match face with
  | Engine.West | Engine.East ->
      { Interval.lo = s.lo + offset.Point.y; hi = s.hi + offset.Point.y }
  | Engine.South | Engine.North ->
      { Interval.lo = s.lo + offset.Point.x; hi = s.hi + offset.Point.x }

let compose_ext ~next_id a b ~offset =
  let horizontal = offset.Point.x > 0 in
  if horizontal then begin
    if not (offset.Point.x = a.width && offset.Point.y = 0 && a.height = b.height)
    then invalid_arg "Fragment.compose: not a horizontal guillotine pair"
  end
  else if not (offset.Point.y = a.height && offset.Point.x = 0 && a.width = b.width)
  then invalid_arg "Fragment.compose: not a vertical guillotine pair";
  let seam_a = if horizontal then Engine.East else Engine.North in
  let seam_b = if horizontal then Engine.West else Engine.South in
  (* referenced local nets of each side: everything the interfaces and
     partials mention *)
  let refs frag =
    List.sort_uniq Int.compare
      (List.map (fun s -> s.net) frag.iface
      @ List.concat_map
          (fun p -> p.p_gate :: List.map (fun (n, _, _, _) -> n) p.p_contacts)
          frag.partials)
  in
  let refs_a = refs a and refs_b = refs b in
  (* map (side, local net) -> uf element *)
  let uf = Union_find.create () in
  let elem_of = Hashtbl.create 64 in
  let register side net =
    if not (Hashtbl.mem elem_of (side, net)) then
      Hashtbl.replace elem_of (side, net) (Union_find.fresh uf)
  in
  List.iter (register `A) refs_a;
  List.iter (register `B) refs_b;
  let elem side net = Hashtbl.find elem_of (side, net) in
  (* seam net unification: overlapping same-layer spans on the touching
     faces.  b's seam spans need no translation: for a horizontal seam both
     East(a) and West(b) spans are y-ranges with the same y origin. *)
  let a_seam = List.filter (fun s -> s.face = seam_a) a.iface in
  let b_seam = List.filter (fun s -> s.face = seam_b) b.iface in
  List.iter
    (fun sa ->
      List.iter
        (fun sb ->
          if
            Layer.equal sa.layer sb.layer
            && Interval.spans_overlap sa.span sb.span
          then ignore (Union_find.union uf (elem `A sa.net) (elem `B sb.net)))
        b_seam)
    a_seam;
  (* partial knitting: channel spans overlapping across the seam *)
  let puf = Union_find.create () in
  let pa = Array.of_list a.partials and pb = Array.of_list b.partials in
  let na = Array.length pa in
  Array.iteri (fun _ _ -> ignore (Union_find.fresh puf)) pa;
  Array.iteri (fun _ _ -> ignore (Union_find.fresh puf)) pb;
  Array.iteri
    (fun i p ->
      let a_spans =
        List.filter_map
          (fun (f, s) -> if f = seam_a then Some s else None)
          p.p_spans
      in
      Array.iteri
        (fun j q ->
          let q_spans =
            List.filter_map
              (fun (f, s) -> if f = seam_b then Some s else None)
              q.p_spans
          in
          if
            List.exists
              (fun sa ->
                List.exists (fun sb -> Interval.spans_overlap sa sb) q_spans)
              a_spans
          then ignore (Union_find.union puf i (na + j)))
        pb)
    pa;
  (* seam source/drain contacts: a channel ending at the seam against
     conducting diffusion beginning just across it *)
  let seam_contacts : (int * int, (int * (Point.t * int)) ref) Hashtbl.t =
    Hashtbl.create 16
  in
  (* the seam line in composed coordinates: x = a.width (horizontal
     compose) or y = a.height (vertical) *)
  let seam_pos (overlap_lo : int) =
    if horizontal then Point.make a.width overlap_lo
    else Point.make overlap_lo a.height
  in
  let add_seam_contact pidx side_net len key_edge =
    let key = (Union_find.find puf pidx, side_net) in
    match Hashtbl.find_opt seam_contacts key with
    | Some r ->
        let total, best = !r in
        r :=
          ( total + len,
            if Engine.edge_key_less key_edge best then key_edge else best )
    | None -> Hashtbl.replace seam_contacts key (ref (len, key_edge))
  in
  let diff_seam_b =
    List.filter (fun s -> s.face = seam_b && Layer.equal s.layer Layer.Diffusion)
      b.iface
  in
  let diff_seam_a =
    List.filter (fun s -> s.face = seam_a && Layer.equal s.layer Layer.Diffusion)
      a.iface
  in
  Array.iteri
    (fun i p ->
      List.iter
        (fun (f, s) ->
          if f = seam_a then
            List.iter
              (fun d ->
                let len = Interval.span_overlap_length s d.span in
                if len > 0 then
                  add_seam_contact i (elem `B d.net) len
                    ( seam_pos (max s.Interval.lo d.span.Interval.lo),
                      (* channel in a, diffusion beyond the seam in b *)
                      if horizontal then Engine.side_right
                      else Engine.side_above ))
              diff_seam_b)
        p.p_spans)
    pa;
  Array.iteri
    (fun j q ->
      List.iter
        (fun (f, s) ->
          if f = seam_b then
            List.iter
              (fun d ->
                let len = Interval.span_overlap_length s d.span in
                if len > 0 then
                  add_seam_contact (na + j) (elem `A d.net) len
                    ( seam_pos (max s.Interval.lo d.span.Interval.lo),
                      (* channel in b, diffusion back across the seam in a *)
                      if horizontal then Engine.side_left
                      else Engine.side_below ))
              diff_seam_a)
        q.p_spans)
    pb;
  (* quotient the referenced nets *)
  let dense = Union_find.compress uf in
  let net_count = Union_find.class_count uf in
  let resolve side net = dense.(Union_find.find uf (elem side net)) in
  (* merged partials grouped by root *)
  let b_offset = offset in
  let groups : (int, partial ref) Hashtbl.t = Hashtbl.create 8 in
  let remap_partial side (p : partial) =
    let keep_faces (f, s) =
      if f = seam_a && side = `A then None
      else if f = seam_b && side = `B then None
      else
        match side with
        | `A -> Some (f, s)
        | `B -> Some (f, translate_face_span ~offset:b_offset f s)
    in
    {
      p with
      p_gate = resolve side p.p_gate;
      p_contacts =
        List.map
          (fun (n, l, pos, edge_side) ->
            ( resolve side n,
              l,
              (match side with `A -> pos | `B -> Point.add pos b_offset),
              edge_side ))
          p.p_contacts;
      p_bbox =
        (match side with
        | `A -> p.p_bbox
        | `B ->
            Box.translate p.p_bbox ~dx:b_offset.Point.x ~dy:b_offset.Point.y);
      p_spans = List.filter_map keep_faces p.p_spans;
    }
  in
  let merge_into root (p : partial) =
    match Hashtbl.find_opt groups root with
    | Some r ->
        r :=
          {
            p_area = !r.p_area + p.p_area;
            p_implant = !r.p_implant + p.p_implant;
            p_bbox = Box.hull !r.p_bbox p.p_bbox;
            p_gate = !r.p_gate;
            p_contacts = p.p_contacts @ !r.p_contacts;
            p_spans = p.p_spans @ !r.p_spans;
          }
    | None -> Hashtbl.replace groups root (ref p)
  in
  Array.iteri (fun i p -> merge_into (Union_find.find puf i) (remap_partial `A p)) pa;
  Array.iteri
    (fun j q -> merge_into (Union_find.find puf (na + j)) (remap_partial `B q))
    pb;
  (* attach seam contacts *)
  Hashtbl.iter
    (fun (root, net_elem) r0 ->
      let len, (pos, edge_side) = !r0 in
      match Hashtbl.find_opt groups root with
      | Some r ->
          let net = dense.(Union_find.find uf net_elem) in
          r :=
            { !r with p_contacts = (net, len, pos, edge_side) :: !r.p_contacts }
      | None -> ())
    seam_contacts;
  (* completed vs still-partial; sort for determinism (hash-table order is
     arbitrary and fragments are deduplicated by content) *)
  let completed = ref [] and partials = ref [] in
  Hashtbl.iter
    (fun _root r ->
      let p = !r in
      if p.p_spans = [] then
        completed :=
          (device_of_partial p ~resolve:(fun n -> n), p) :: !completed
      else partials := { p with p_spans = coalesce_spans p.p_spans } :: !partials)
    groups;
  let completed =
    List.sort
      (fun ((a : Hier.hdevice), _) (b, _) ->
        Point.compare_yx a.location b.location)
      !completed
  and partials =
    List.sort (fun a b -> Box.compare a.p_bbox b.p_bbox) !partials
  in
  (* composed interface: outer-face spans of both sides *)
  let iface =
    List.filter_map
      (fun s ->
        if s.face = seam_a then None
        else Some { s with net = resolve `A s.net })
      a.iface
    @ List.filter_map
        (fun s ->
          if s.face = seam_b then None
          else
            Some
              {
                s with
                net = resolve `B s.net;
                span = translate_face_span ~offset:b_offset s.face s.span;
              })
        b.iface
  in
  let iface =
    coalesce_spans
      (List.map (fun s -> ((s.face, s.layer, s.net), s.span)) iface)
    |> List.map (fun ((face, layer, net), span) -> { face; span; layer; net })
  in
  let width = if horizontal then a.width + b.width else a.width in
  let height = if horizontal then a.height else a.height + b.height in
  let frag =
    {
      id = next_id;
      width;
      height;
      part =
        {
          Hier.part_name = part_name next_id;
          net_count;
          exports =
            List.sort_uniq Int.compare (List.map (fun s -> s.net) iface);
          net_names = [];
          devices = List.map fst completed;
          instances =
            [
              {
                Hier.part_name = a.part.Hier.part_name;
                inst_name = "P1";
                offset = Point.origin;
                net_map = List.map (fun n -> (n, resolve `A n)) refs_a;
              };
              {
                Hier.part_name = b.part.Hier.part_name;
                inst_name = "P2";
                offset = b_offset;
                net_map = List.map (fun n -> (n, resolve `B n)) refs_b;
              };
            ];
        };
      iface;
      partials;
    }
  in
  (frag, List.map snd completed)

let compose ~next_id a b ~offset = fst (compose_ext ~next_id a b ~offset)

let finalize ~next_id root =
  let refs =
    List.sort_uniq Int.compare
      (List.concat_map
         (fun p -> p.p_gate :: List.map (fun (n, _, _, _) -> n) p.p_contacts)
         root.partials)
  in
  let index = Hashtbl.create 16 in
  List.iteri (fun i n -> Hashtbl.replace index n i) refs;
  let resolve n = Hashtbl.find index n in
  let devices = List.map (device_of_partial ~resolve) root.partials in
  {
    Hier.part_name = part_name next_id;
    net_count = List.length refs;
    exports = [];
    net_names = [];
    devices;
    instances =
      [
        {
          Hier.part_name = root.part.Hier.part_name;
          inst_name = "P1";
          offset = Point.origin;
          net_map = List.map (fun n -> (n, resolve n)) refs;
        };
      ];
  }
