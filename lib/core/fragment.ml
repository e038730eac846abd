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

type resize = {
  r_index : int;
  r_area : int;
  r_contacts : (int * int * Point.t * int) list;
}

let part_name id = Printf.sprintf "W%d" id

(* Two distinct exported nets among [contacts], each renamed by [net];
   [first] is the exported net met so far, or -1. *)
let rec two_exported exported net first = function
  | [] -> false
  | (n, _, _, _) :: rest ->
      let n = net n in
      if not exported.(n) then two_exported exported net first rest
      else if first < 0 || first = n then two_exported exported net n rest
      else true

let exported_nets net_count iface =
  let exported = Array.make net_count false in
  List.iter (fun s -> exported.(s.net) <- true) iface;
  exported

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

let face_rank = function
  | Engine.West -> 0
  | Engine.East -> 1
  | Engine.South -> 2
  | Engine.North -> 3

let same_face f g = face_rank f = face_rank g

(* Coalescing, as {!Interval.of_spans} does for each tag: drop empty
   spans, then merge the spans of one tag that overlap or abut.  Sorting
   by (tag, lo) puts each tag's spans in one run, so the merge is a single
   left-to-right pass and no tag is hashed.  The result is in (tag, lo)
   order. *)
let coalesce ~same_tag ~order spans =
  let arr =
    Array.of_list
      (List.filter (fun (_, (s : Interval.span)) -> s.lo < s.hi) spans)
  in
  Array.sort order arr;
  let acc = ref [] in
  Array.iter
    (fun ((tag, (s : Interval.span)) as x) ->
      match !acc with
      | (ptag, (p : Interval.span)) :: rest
        when same_tag ptag tag && s.lo <= p.hi ->
          if s.hi > p.hi then acc := (ptag, { p with hi = s.hi }) :: rest
      | _ -> acc := x :: !acc)
    arr;
  List.rev !acc

(* A partial's open channel spans, one run per face *)
let coalesce_faces spans =
  coalesce ~same_tag:same_face
    ~order:(fun (f, (s : Interval.span)) (g, (t : Interval.span)) ->
      let c = Int.compare (face_rank f) (face_rank g) in
      if c <> 0 then c else Int.compare s.lo t.lo)
    spans

(* Interface spans, one run per (face, layer, net) *)
let coalesce_iface (spans : iface_span list) =
  let same_tag a b =
    a.net = b.net && same_face a.face b.face && Layer.equal a.layer b.layer
  in
  let order (a, (s : Interval.span)) (b, (t : Interval.span)) =
    let c = Int.compare (face_rank a.face) (face_rank b.face) in
    if c <> 0 then c
    else
      let c = Int.compare (Layer.index a.layer) (Layer.index b.layer) in
      if c <> 0 then c
      else
        let c = Int.compare a.net b.net in
        if c <> 0 then c else Int.compare s.lo t.lo
  in
  coalesce ~same_tag ~order (List.map (fun s -> (s, s.span)) spans)
  |> List.map (fun (s, span) -> if span == s.span then s else { s with span })

(* ------------------------------------------------------------------ *)
(* Leaf                                                                 *)
(* ------------------------------------------------------------------ *)

let leaf_of_raw ~next_id ~window ~dense (raw : Engine.raw) =
  let net_count = Union_find.class_count raw.Engine.nets in
  let dx = -window.Box.l and dy = -window.Box.b in
  let shift = Point.make dx dy in
  let localize (bx : Box.t) = Box.translate bx ~dx ~dy in
  let local_span face (s : Interval.span) =
    match face with
    | Engine.West | Engine.East -> { Interval.lo = s.lo + dy; hi = s.hi + dy }
    | Engine.South | Engine.North -> { Interval.lo = s.lo + dx; hi = s.hi + dx }
  in
  let net_names =
    List.map (fun (e, name) -> (dense.(e), name)) raw.Engine.net_names
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
  (* one pass splits the devices; both lists come out in reverse
     [raw.devices] order, which the stable sorts keep for ties *)
  let partials = ref [] and complete = ref [] in
  List.iter
    (fun (root, (d : Engine.device_data)) ->
      if not d.Engine.touches_boundary then complete := d :: !complete
      else
        let my_spans =
          match Hashtbl.find_opt spans_by_dev root with
          | Some spans -> spans
          | None -> []
        in
        partials :=
          {
            p_area = d.Engine.area;
            p_implant = d.Engine.implant_area;
            p_bbox = localize d.Engine.bbox;
            p_gate = (if d.Engine.gate >= 0 then dense.(d.Engine.gate) else 0);
            p_contacts =
              List.map
                (fun (n, l, pos, side) -> (dense.(n), l, Point.add pos shift, side))
                d.Engine.contacts;
            p_spans = coalesce_faces my_spans;
          }
          :: !partials)
    raw.Engine.devices;
  let iface =
    coalesce_iface
      (List.map
         (fun (bs : Engine.boundary_span) ->
           {
             face = bs.Engine.bface;
             span = local_span bs.Engine.bface bs.Engine.bspan;
             layer = bs.Engine.blayer;
             net = dense.(bs.Engine.bnet);
           })
         raw.Engine.boundary_nets)
  in
  (* complete devices by location (the bbox's lower-left corner), sized
     as the flat extractor sizes them.  The terminals are chosen over the
     engine's contacts, whose order does not depend on net numbers, and
     only the chosen nets are renamed. *)
  let complete = Array.of_list !complete in
  Array.stable_sort
    (fun (a : Engine.device_data) (b : Engine.device_data) ->
      let a = a.Engine.bbox and b = b.Engine.bbox in
      let c = Int.compare a.Box.b b.Box.b in
      if c <> 0 then c else Int.compare a.Box.l b.Box.l)
    complete;
  let exported = exported_nets net_count iface in
  let net e = if e >= 0 then dense.(e) else 0 in
  let devices = ref [] and resizes = ref [] in
  for k = Array.length complete - 1 downto 0 do
    let d = complete.(k) in
    let source, drain, width, length =
      Extractor.channel_terminals ~gate:d.Engine.gate ~area:d.Engine.area
        ~contacts:d.Engine.contacts
    in
    let bbox = d.Engine.bbox in
    devices :=
      {
        Hier.dtype =
          Nmos.channel_type ~implanted:(2 * d.Engine.implant_area >= d.Engine.area);
        gate = net d.Engine.gate;
        source = net source;
        drain = net drain;
        length;
        width;
        location = Point.make (bbox.Box.l + dx) (bbox.Box.b + dy);
      }
      :: !devices;
    if two_exported exported net (-1) d.Engine.contacts then
      resizes :=
        {
          r_index = k;
          r_area = d.Engine.area;
          r_contacts =
            List.map (fun (n, l, p, side) -> (net n, l, p, side)) d.Engine.contacts;
        }
        :: !resizes
  done;
  ( {
      id = next_id;
      width = Box.width window;
      height = Box.height window;
      part =
        {
          Hier.part_name = part_name next_id;
          net_count;
          exports = List.sort_uniq Int.compare (List.map (fun s -> s.net) iface);
          net_names;
          devices = !devices;
          instances = [];
        };
      iface;
      partials = List.sort (fun a b -> Box.compare a.p_bbox b.p_bbox) !partials;
    },
    !resizes )

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
  fst
    (leaf_of_raw ~next_id ~window ~dense:(Union_find.compress raw.Engine.nets)
       raw)

(* ------------------------------------------------------------------ *)
(* Compose                                                              *)
(* ------------------------------------------------------------------ *)

let translate_face_span ~(offset : Point.t) face (s : Interval.span) =
  match face with
  | Engine.West | Engine.East ->
      { Interval.lo = s.lo + offset.Point.y; hi = s.hi + offset.Point.y }
  | Engine.South | Engine.North ->
      { Interval.lo = s.lo + offset.Point.x; hi = s.hi + offset.Point.x }

(* [sweep xs ys f] calls [f i j] once for every pair xs.(i), ys.(j) that
   shares positive length ({!Interval.spans_overlap}).  Both arrays hold
   (lo, hi, owner) and are sorted here by lo, in place.  A span stays
   active from its lo until a later lo of the other side passes its hi,
   so the cost is the sorts plus the pairs found: a seam's spans are
   matched in one pass along it, not each against all. *)
let sweep (xs : (int * int * int) array) (ys : (int * int * int) array) f =
  let by_lo (a, _, _) (b, _, _) = Int.compare a b in
  Array.sort by_lo xs;
  Array.sort by_lo ys;
  let nx = Array.length xs and ny = Array.length ys in
  let lo_of (arr : (int * int * int) array) k =
    let lo, _, _ = arr.(k) in
    lo
  in
  let live (arr : (int * int * int) array) lo k =
    let _, hi, _ = arr.(k) in
    hi > lo
  in
  let ax = ref [] and ay = ref [] in
  let i = ref 0 and j = ref 0 in
  while !i < nx || !j < ny do
    if !j >= ny || (!i < nx && lo_of xs !i <= lo_of ys !j) then begin
      let k = !i in
      incr i;
      let lo, hi, _ = xs.(k) in
      if lo < hi then begin
        ay := List.filter (live ys lo) !ay;
        List.iter (fun m -> f k m) !ay;
        ax := k :: !ax
      end
    end
    else begin
      let m = !j in
      incr j;
      let lo, hi, _ = ys.(m) in
      if lo < hi then begin
        ax := List.filter (live xs lo) !ax;
        List.iter (fun k -> f k m) !ax;
        ay := m :: !ay
      end
    end
  done

(* The nets a fragment's interface and partials mention, ascending and
   without repeats. *)
let referenced frag =
  let nets = ref (List.map (fun s -> s.net) frag.iface) in
  List.iter
    (fun p ->
      nets := p.p_gate :: !nets;
      List.iter (fun (n, _, _, _) -> nets := n :: !nets) p.p_contacts)
    frag.partials;
  let arr = Array.of_list !nets in
  Array.sort Int.compare arr;
  let n = ref 0 in
  Array.iter
    (fun v ->
      if !n = 0 || arr.(!n - 1) <> v then begin
        arr.(!n) <- v;
        incr n
      end)
    arr;
  Array.sub arr 0 !n

(* position of [v] in the ascending array [arr], which holds it *)
let rank (arr : int array) v =
  let lo = ref 0 and hi = ref (Array.length arr - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if arr.(mid) < v then lo := mid + 1 else hi := mid
  done;
  assert (arr.(!lo) = v);
  !lo

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
  (* union-find elements: a's referenced local nets in ascending order,
     then b's *)
  let refs_a = referenced a and refs_b = referenced b in
  let nra = Array.length refs_a and nrb = Array.length refs_b in
  let uf = Union_find.create ~hint:(nra + nrb) () in
  for _ = 1 to nra + nrb do
    ignore (Union_find.fresh uf)
  done;
  let elem_a net = rank refs_a net and elem_b net = nra + rank refs_b net in
  (* (lo, hi, net) of a fragment's interface spans on [face], by layer
     index *)
  let seam_spans frag face =
    let acc = Array.make Layer.count [] in
    List.iter
      (fun s ->
        if same_face s.face face then begin
          let li = Layer.index s.layer in
          acc.(li) <- (s.span.Interval.lo, s.span.Interval.hi, s.net) :: acc.(li)
        end)
      frag.iface;
    Array.map Array.of_list acc
  in
  let sa = seam_spans a seam_a and sb = seam_spans b seam_b in
  (* seam net unification: overlapping same-layer spans on the touching
     faces.  b's seam spans need no translation: for a horizontal seam both
     East(a) and West(b) spans are y-ranges with the same y origin. *)
  for li = 0 to Layer.count - 1 do
    let xs = sa.(li) and ys = sb.(li) in
    sweep xs ys (fun i j ->
        let _, _, na = xs.(i) and _, _, nb = ys.(j) in
        ignore (Union_find.union uf (elem_a na) (elem_b nb)))
  done;
  (* partial knitting: channel spans overlapping across the seam.  The
     pairs are united in (a index, b index) order, so the partials'
     union-find, and the grouping below that hashes its roots, do not
     depend on the order the sweep finds them in. *)
  let pa = Array.of_list a.partials and pb = Array.of_list b.partials in
  let na = Array.length pa in
  let puf = Union_find.create ~hint:(na + Array.length pb) () in
  for _ = 1 to na + Array.length pb do
    ignore (Union_find.fresh puf)
  done;
  (* (lo, hi, partial index) of every open channel span on [face] *)
  let channel_spans parts face =
    let acc = ref [] in
    Array.iteri
      (fun i p ->
        List.iter
          (fun (f, (s : Interval.span)) ->
            if same_face f face then acc := (s.lo, s.hi, i) :: !acc)
          p.p_spans)
      parts;
    Array.of_list !acc
  in
  let ca = channel_spans pa seam_a and cb = channel_spans pb seam_b in
  let knit = ref [] in
  sweep ca cb (fun i j ->
      let _, _, p = ca.(i) and _, _, q = cb.(j) in
      knit := (p, q) :: !knit);
  List.iter
    (fun (i, j) -> ignore (Union_find.union puf i (na + j)))
    (List.sort_uniq
       (fun (i1, j1) (i2, j2) ->
         let c = Int.compare i1 i2 in
         if c <> 0 then c else Int.compare j1 j2)
       !knit);
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
  let diff_seam_a = sa.(Layer.index Layer.Diffusion)
  and diff_seam_b = sb.(Layer.index Layer.Diffusion) in
  (* channel in a, diffusion beyond the seam in b *)
  sweep ca diff_seam_b (fun i k ->
      let slo, shi, p = ca.(i) and dlo, dhi, net = diff_seam_b.(k) in
      add_seam_contact p (elem_b net)
        (min shi dhi - max slo dlo)
        ( seam_pos (max slo dlo),
          if horizontal then Engine.side_right else Engine.side_above ));
  (* channel in b, diffusion back across the seam in a *)
  sweep cb diff_seam_a (fun j k ->
      let slo, shi, q = cb.(j) and dlo, dhi, net = diff_seam_a.(k) in
      add_seam_contact (na + q) (elem_a net)
        (min shi dhi - max slo dlo)
        ( seam_pos (max slo dlo),
          if horizontal then Engine.side_left else Engine.side_below ));
  (* quotient the referenced nets *)
  let dense = Union_find.compress uf in
  let net_count = Union_find.class_count uf in
  let resolve_a net = dense.(elem_a net) and resolve_b net = dense.(elem_b net) in
  (* merged partials grouped by root *)
  let b_offset = offset in
  let groups : (int, partial ref) Hashtbl.t = Hashtbl.create 8 in
  let remap_a (p : partial) =
    {
      p with
      p_gate = resolve_a p.p_gate;
      p_contacts =
        List.map (fun (n, l, pos, side) -> (resolve_a n, l, pos, side)) p.p_contacts;
      p_spans = List.filter (fun (f, _) -> not (same_face f seam_a)) p.p_spans;
    }
  in
  let remap_b (p : partial) =
    {
      p with
      p_gate = resolve_b p.p_gate;
      p_contacts =
        List.map
          (fun (n, l, pos, side) -> (resolve_b n, l, Point.add pos b_offset, side))
          p.p_contacts;
      p_bbox = Box.translate p.p_bbox ~dx:b_offset.Point.x ~dy:b_offset.Point.y;
      p_spans =
        List.filter_map
          (fun (f, s) ->
            if same_face f seam_b then None
            else Some (f, translate_face_span ~offset:b_offset f s))
          p.p_spans;
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
  Array.iteri (fun i p -> merge_into (Union_find.find puf i) (remap_a p)) pa;
  Array.iteri
    (fun j q -> merge_into (Union_find.find puf (na + j)) (remap_b q))
    pb;
  (* attach seam contacts *)
  Hashtbl.iter
    (fun (root, net_elem) r0 ->
      let len, (pos, edge_side) = !r0 in
      match Hashtbl.find_opt groups root with
      | Some r ->
          let net = dense.(net_elem) in
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
      match p.p_spans with
      | [] ->
          completed :=
            (device_of_partial p ~resolve:(fun n -> n), p) :: !completed
      | spans -> partials := { p with p_spans = coalesce_faces spans } :: !partials)
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
        if same_face s.face seam_a then None
        else Some { s with net = resolve_a s.net })
      a.iface
    @ List.filter_map
        (fun s ->
          if same_face s.face seam_b then None
          else
            Some
              {
                s with
                net = resolve_b s.net;
                span = translate_face_span ~offset:b_offset s.face s.span;
              })
        b.iface
  in
  let iface = coalesce_iface iface in
  let width = if horizontal then a.width + b.width else a.width in
  let height = if horizontal then a.height else a.height + b.height in
  let net_map refs resolve =
    Array.fold_right (fun n acc -> (n, resolve n) :: acc) refs []
  in
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
                net_map = net_map refs_a resolve_a;
              };
              {
                Hier.part_name = b.part.Hier.part_name;
                inst_name = "P2";
                offset = b_offset;
                net_map = net_map refs_b resolve_b;
              };
            ];
        };
      iface;
      partials;
    }
  in
  let exported = exported_nets net_count iface in
  let resizes =
    List.concat
      (List.mapi
         (fun i (_, p) ->
           if two_exported exported Fun.id (-1) p.p_contacts then
             [ { r_index = i; r_area = p.p_area; r_contacts = p.p_contacts } ]
           else [])
         completed)
  in
  (frag, resizes)

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
