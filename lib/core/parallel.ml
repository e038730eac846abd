open Ace_geom
open Ace_netlist
module Trace = Ace_trace.Trace

type shard = {
  s_window : Box.t;
  s_boxes : int;
  s_stops : int;
  s_max_active : int;
  s_seconds : float;
  s_fold_seconds : float;
  s_timing : Timing.t;
  s_devices : int;
  s_partials : int;
  s_counters : int array;
}

type stats = {
  jobs : int;
  shards : shard list;
  stitch_seconds : float;
  compose_seconds : float;
  flatten_seconds : float;
  order_seconds : float;
  boxes : int;
  stops : int;
  max_active : int;
  warnings : Ace_diag.Diag.t list;
}

(* Shard balance: slowest shard over the mean — 1.0 is a perfect split,
   2.0 means one tile did twice its share of the scan. *)
let balance stats =
  match stats.shards with
  | [] -> 1.0
  | shards ->
      let times = List.map (fun s -> s.s_seconds) shards in
      let total = List.fold_left ( +. ) 0.0 times in
      let mean = total /. float_of_int (List.length times) in
      if mean > 0.0 then List.fold_left max 0.0 times /. mean else 1.0

(* ------------------------------------------------------------------ *)
(* Tile partition                                                      *)
(* ------------------------------------------------------------------ *)

(* Partition the chip bbox into a [cols] x [rows] grid of tiles of
   near-equal size (the width remainder spreads one unit over the
   leftmost columns, the height remainder over the bottom rows).  The
   result is indexed [column].(row): columns left to right, rows bottom
   to top.  Never more than one column per x unit or one row per y
   unit. *)
let tile_windows ~cols ~rows (bb : Box.t) =
  let w = Box.width bb and h = Box.height bb in
  let nc = max 1 (min cols w) and nr = max 1 (min rows h) in
  let wbase = w / nc and wrem = w mod nc in
  let hbase = h / nr and hrem = h mod nr in
  let x = ref bb.Box.l in
  Array.init nc (fun ci ->
      let wd = wbase + if ci < wrem then 1 else 0 in
      let l = !x in
      x := !x + wd;
      let y = ref bb.Box.b in
      Array.init nr (fun ri ->
          let ht = hbase + if ri < hrem then 1 else 0 in
          let b = !y in
          y := !y + ht;
          Box.make ~l ~b ~r:(l + wd) ~t:(b + ht)))

(* "CxR" — e.g. "4x2" is four columns by two rows. *)
let tile_of_string s =
  let bad () =
    Error (Printf.sprintf "bad tile grid %S, expected COLSxROWS (e.g. 4x2)" s)
  in
  match String.index_opt s 'x' with
  | None -> bad ()
  | Some i -> (
      let c = String.sub s 0 i
      and r = String.sub s (i + 1) (String.length s - i - 1) in
      match (int_of_string_opt c, int_of_string_opt r) with
      | Some c, Some r when c >= 1 && r >= 1 -> Ok (c, r)
      | _ -> bad ())

(* Assign each label to the tile whose x/y ranges hold it, clamping
   strays outside the chip bbox to the nearest tile.  Labels arrive
   sorted by decreasing y (Design.labels) and each bucket preserves that
   order, as Engine.run requires.  Buckets are indexed by the linear
   tile index [ci * rows + ri]. *)
let shard_labels grid labels =
  let cols = Array.length grid in
  let rows = if cols = 0 then 0 else Array.length grid.(0) in
  let buckets = Array.make (max 1 (cols * rows)) [] in
  List.iter
    (fun (lb : Ace_cif.Design.label) ->
      let x = lb.position.Point.x and y = lb.position.Point.y in
      let rec findc i =
        if i >= cols - 1 || x < grid.(i).(0).Box.r then i else findc (i + 1)
      in
      let ci = findc 0 in
      let rec findr j =
        if j >= rows - 1 || y < grid.(ci).(j).Box.t then j else findr (j + 1)
      in
      let ri = findr 0 in
      let t = (ci * rows) + ri in
      buckets.(t) <- lb :: buckets.(t))
    labels;
  Array.map List.rev buckets

(* ------------------------------------------------------------------ *)
(* Net creation keys                                                   *)
(* ------------------------------------------------------------------ *)

(* The flat extractor numbers net elements in creation order: strips top
   to bottom, phases (diffusion, poly, metal) in engine order within a
   strip, spans left to right within a phase.  The engine records each
   element's creation as (strip top, phase, span lo) — see
   {!Engine.raw.net_x} — and that key is intrinsic to the
   geometry, not to how the scan was windowed.  [keys] holds one such
   key per net, as three int arrays; [compare_keys k i l j] is
   element-creation order between net [i] of [k] and net [j] of [l]. *)
type keys = { ky : int array; kp : int array; kx : int array }

let compare_keys k i l j =
  let c = Int.compare l.ky.(j) k.ky.(i) in
  if c <> 0 then c
  else
    let c = Int.compare k.kp.(i) l.kp.(j) in
    if c <> 0 then c else Int.compare k.kx.(i) l.kx.(j)

(* The tile index of a leaf activation: leaf parts are named
   "W<tile index>" by Fragment. *)
let leaf_tile (a : Hier.activation) =
  let n = a.Hier.act_part in
  int_of_string (String.sub n 1 (String.length n - 1))

(* Per part-local net ([dense], the numbering {!Fragment.leaf_of_raw}
   uses), the earliest creation key of the class, in chip coordinates.
   The engine creates elements in key order, so a class's earliest key is
   its first element's, and [dense], which numbers classes by their first
   element, lists the part's nets in key order. *)
let leaf_net_keys (raw : Engine.raw) dense =
  let n = Union_find.class_count raw.Engine.nets in
  let keys =
    { ky = Array.make n 0; kp = Array.make n (-1); kx = Array.make n 0 }
  in
  for e = 0 to Union_find.count raw.Engine.nets - 1 do
    let c = dense.(e) in
    if keys.kp.(c) < 0 then begin
      keys.ky.(c) <- raw.Engine.net_y.(e);
      keys.kp.(c) <- raw.Engine.net_phase.(e);
      keys.kx.(c) <- raw.Engine.net_x.(e)
    end
  done;
  keys

(* ------------------------------------------------------------------ *)
(* Seam-merged sizing                                                  *)
(* ------------------------------------------------------------------ *)

(* Size the devices a part kept provisional ({!Fragment.resize}) again
   over the flattened circuit's nets: each part-local contact net maps
   through the part's activation, and {!Fragment.size_contacts} merges
   and sizes them as the flat extractor does.  [resizes] is keyed by part
   name. *)
let apply_resizes (circuit : Circuit.t) activations resizes =
  List.iter
    (fun (a : Hier.activation) ->
      List.iter
        (fun (r : Fragment.resize) ->
          let j = a.Hier.act_device + r.r_index in
          let d = circuit.Circuit.devices.(j) in
          let source, drain, width, length =
            Fragment.size_contacts
              ~resolve:(fun n -> a.Hier.act_nets.(n))
              ~gate:d.Circuit.gate ~area:r.r_area r.r_contacts
          in
          circuit.Circuit.devices.(j) <-
            { d with Circuit.source; drain; width; length })
        (Option.value ~default:[] (Hashtbl.find_opt resizes a.Hier.act_part)))
    activations

(* ------------------------------------------------------------------ *)
(* One tile                                                            *)
(* ------------------------------------------------------------------ *)

type tile_result = {
  frag : Fragment.t;
  shard : shard;
  warnings : string list;
  keys : keys;
  resizes : Fragment.resize list;
}

(* One tile: its own lazy stream over the shared (pre-warmed, read-only)
   design, clipped to the tile, run in window mode, and folded down to a
   fragment — all inside the worker domain. *)
let run_shard ~cancel ~on_shard ~top design window labels idx =
  (* Each tile gets its own trace track whether it runs on a spawned
     domain or on the calling one; the track's counters start at zero,
     so the snapshot at the end is the tile's own contribution. *)
  Trace.with_track ~tid:(idx + 1) ~name:(Printf.sprintf "shard %d" idx)
  @@ fun () ->
  on_shard idx;
  Cancel.check cancel;
  (* monotonic clock: shard telemetry must survive wall-clock steps *)
  let t0 = Trace.now_ns () in
  let stream = Ace_cif.Stream.create ~window ~top design in
  let seen = ref 0 in
  (* [Engine.run] clips to the window; the windowed stream only pops boxes
     with positive-area overlap, so each popped box survives the clip and
     counting at the pop counts the tile's boxes *)
  let streamed = Engine.source_of_stream ~cancel stream in
  let source =
    {
      streamed with
      Engine.pop =
        (fun y ->
          let bs = streamed.Engine.pop y in
          seen := !seen + List.length bs;
          bs);
    }
  in
  let raw =
    Engine.run ~cancel
      { Engine.emit_geometry = false; window = Some window }
      source ~labels
  in
  (* the fold-down: one compress numbers the part's nets for the
     fragment, its resizes and the creation keys alike *)
  let t_fold = Trace.now_ns () in
  let dense = Union_find.compress raw.Engine.nets in
  let frag, resizes = Fragment.leaf_of_raw ~next_id:idx ~window ~dense raw in
  let keys = leaf_net_keys raw dense in
  let t1 = Trace.now_ns () in
  let seconds_since t = Int64.to_float (Int64.sub t1 t) /. 1e9 in
  let shard =
    {
      s_window = window;
      s_boxes = !seen;
      s_stops = raw.Engine.stops;
      s_max_active = raw.Engine.max_active;
      s_seconds = seconds_since t0;
      s_fold_seconds = seconds_since t_fold;
      s_timing = raw.Engine.timing;
      s_devices = List.length frag.Fragment.part.Hier.devices;
      s_partials = List.length frag.Fragment.partials;
      s_counters = Trace.counters_snapshot ();
    }
  in
  { frag; shard; warnings = raw.Engine.warnings; keys; resizes }

let stats_of_flat (st : Extractor.stats) =
  {
    jobs = 1;
    shards = [];
    stitch_seconds = 0.0;
    compose_seconds = 0.0;
    flatten_seconds = 0.0;
    order_seconds = 0.0;
    boxes = st.Extractor.boxes;
    stops = st.stops;
    max_active = st.max_active;
    warnings = st.warnings;
  }

(* ------------------------------------------------------------------ *)
(* Scheduler                                                           *)
(* ------------------------------------------------------------------ *)

(* Run [work t] once for every tile index over [nworkers] domains, the
   calling domain among them: each worker takes the next index from one
   shared cursor until the tiles run out.  Results land in one slot per
   tile, so which domain ran a tile never shows downstream.  A raising
   tile moves the cursor to the end, so no worker starts another tile.
   Every domain is joined before any failure propagates (a leaked
   domain wedges the runtime at exit); the lowest-indexed tile's
   exception wins, with its original backtrace.  Cancellation needs no
   check here: each tile checks its token at its start and the engine
   at every scanline stop. *)
let run_tiles ~nworkers ~tcount work =
  let results = Array.make tcount None in
  let errors = Array.make tcount None in
  let cursor = Atomic.make 0 in
  let rec worker () =
    let t = Atomic.fetch_and_add cursor 1 in
    if t < tcount then begin
      (match work t with
      | r -> results.(t) <- Some r
      | exception e ->
          errors.(t) <- Some (e, Printexc.get_raw_backtrace ());
          Atomic.set cursor tcount);
      worker ()
    end
  in
  let doms = Array.init (nworkers - 1) (fun _ -> Domain.spawn worker) in
  worker ();
  Array.iter Domain.join doms;
  Array.iter
    (Option.iter (fun (e, bt) -> Printexc.raise_with_backtrace e bt))
    errors;
  Array.map Option.get results

(* ------------------------------------------------------------------ *)
(* Canonical renumbering                                               *)
(* ------------------------------------------------------------------ *)

(* Rebuild the flattened circuit in the flat extractor's canonical
   shape, so a tiled extraction is byte-identical to the flat one for
   any grid and worker count.

   {!Extractor.canonical_order} numbers the nets from their dense order
   (classes in first-creation order) and their locations, a class's
   location being its earliest element's creation point.  Both are
   reconstructible here.  Each leaf lists its nets in creation-key
   order ({!leaf_net_keys}), so merging the leaves' lists by key meets
   every chip net first at its earliest key, and the order of first
   meetings is the flat dense order.  Given the same starting order and
   locations, the one order function numbers nets and devices as it
   does for the flat extractor, location ties included. *)
let canonicalize ~name ~(bb : Box.t) (circuit : Circuit.t) activations
    (tile_keys : keys array) =
  let class_count = Array.length circuit.Circuit.nets in
  let ky = Array.make class_count 0 and kx = Array.make class_count 0 in
  let order = Array.make class_count 0 in
  let placed = Array.make class_count false and n = ref 0 in
  let place g =
    if not placed.(g) then begin
      placed.(g) <- true;
      order.(!n) <- g;
      incr n
    end
  in
  let leaves =
    Array.of_list
      (List.filter_map
         (fun (a : Hier.activation) ->
           if a.Hier.act_leaf then Some (tile_keys.(leaf_tile a), a.Hier.act_nets)
           else None)
         activations)
  in
  let next = Array.make (Array.length leaves) 0 in
  let more = ref true in
  while !more do
    (* the leaf whose next net has the earliest key *)
    let best = ref (-1) in
    for l = 0 to Array.length leaves - 1 do
      let k, nets = leaves.(l) in
      if next.(l) < Array.length nets then
        if !best < 0 then best := l
        else
          let bk, _ = leaves.(!best) in
          if compare_keys k next.(l) bk next.(!best) < 0 then best := l
    done;
    if !best < 0 then more := false
    else begin
      let k, nets = leaves.(!best) in
      let c = next.(!best) in
      next.(!best) <- c + 1;
      let g = nets.(c) in
      if not placed.(g) then begin
        ky.(g) <- k.ky.(c);
        kx.(g) <- k.kx.(c);
        place g
      end
    end
  done;
  (* keyless classes (impossible unless a net escaped every leaf) follow,
     in index order, located at the origin *)
  for g = 0 to class_count - 1 do
    place g
  done;
  let shift = Point.make bb.Box.l bb.Box.b in
  let locations = Array.init class_count (fun c -> Point.make kx.(c) ky.(c)) in
  Extractor.canonical_order locations order (fun rank ->
      let nets =
        Array.map
          (fun c ->
            {
              Circuit.names = circuit.Circuit.nets.(c).Circuit.names;
              location = locations.(c);
              geometry = [];
            })
          order
      in
      let devices =
        Array.map
          (fun (d : Circuit.device) ->
            {
              d with
              Circuit.gate = rank.(d.gate);
              source = rank.(d.source);
              drain = rank.(d.drain);
              location = Point.add d.location shift;
            })
          circuit.Circuit.devices
      in
      { Circuit.name; devices; nets })

(* ------------------------------------------------------------------ *)
(* Extraction                                                          *)
(* ------------------------------------------------------------------ *)

let extract_with_stats ?(cancel = Cancel.never) ?(on_shard = fun _ -> ())
    ?(jobs = 1) ?tile ?(name = "chip") design =
  let flat () =
    on_shard 0;
    let circuit, st = Extractor.extract_with_stats ~cancel ~name design in
    (circuit, stats_of_flat st)
  in
  match Ace_cif.Design.bbox design with
  | None -> flat ()
  | Some bb ->
      let grid =
        match tile with
        | Some (cols, rows) -> tile_windows ~cols ~rows bb
        | None -> if jobs <= 1 then [||] else tile_windows ~cols:jobs ~rows:1 bb
      in
      let cols = Array.length grid in
      let rows = if cols = 0 then 0 else Array.length grid.(0) in
      let tcount = cols * rows in
      if tcount < 2 then flat ()
      else begin
        let tiles =
          Array.init tcount (fun t -> grid.(t / rows).(t mod rows))
        in
        (* Pre-warm every memo table the worker domains will read: the
           shared Design.t caches symbol bounding boxes and box counts in
           hash tables, so all writes must happen before the spawn. *)
        List.iter
          (fun id -> ignore (Ace_cif.Design.symbol_bbox design id))
          (Ace_cif.Design.symbol_ids design);
        ignore (Ace_cif.Design.count_boxes design);
        (* the top level, decomposed once for every tile's stream to
           filter *)
        let top = Ace_cif.Design.top_ints design in
        let buckets = shard_labels grid (Ace_cif.Design.labels design) in
        let work t =
          run_shard ~cancel ~on_shard ~top design tiles.(t) buckets.(t) t
        in
        let nworkers = max 1 (min jobs tcount) in
        let results = run_tiles ~nworkers ~tcount work in
        Trace.count Trace.Counter.Tiles_extracted tcount;
        let stitch_seconds = ref 0.0 in
        (* the stitch's stages, from monotonic clock readings between
           them: compose (and finalize), flatten (and resize), order *)
        let t_compose = ref 0L and t_flatten = ref 0L and t_order = ref 0L in
        let t_done = ref 0L in
        let circuit =
          (* the stitch gets its own track, after the per-tile ones *)
          Trace.with_track ~tid:(tcount + 1) ~name:"stitch" @@ fun () ->
          Trace.timed "stitch" (fun dt -> stitch_seconds := dt) (fun () ->
              t_compose := Trace.now_ns ();
              let frag_of t = results.(t).frag in
              let next = ref tcount in
              let parts = ref [] in
              let resizes = Hashtbl.create (2 * tcount) in
              let push_part (f : Fragment.t) =
                parts := f.Fragment.part :: !parts
              in
              Array.iter
                (fun r ->
                  Hashtbl.replace resizes r.frag.Fragment.part.Hier.part_name
                    r.resizes)
                results;
              let compose counter a b ~offset =
                let id = !next in
                incr next;
                let f, kept = Fragment.compose_ext ~next_id:id a b ~offset in
                Hashtbl.replace resizes f.Fragment.part.Hier.part_name kept;
                Trace.incr counter;
                push_part f;
                f
              in
              (* each column composes bottom to top, then the columns
                 compose left to right — the same HEXT seam logic along
                 both axes *)
              let columns =
                Array.init cols (fun ci ->
                    let base = frag_of (ci * rows) in
                    push_part base;
                    let acc = ref base in
                    for ri = 1 to rows - 1 do
                      let b = frag_of ((ci * rows) + ri) in
                      push_part b;
                      acc :=
                        compose Trace.Counter.Seam_merges_v !acc b
                          ~offset:(Point.make 0 !acc.Fragment.height)
                    done;
                    !acc)
              in
              let root = ref columns.(0) in
              for ci = 1 to cols - 1 do
                root :=
                  compose Trace.Counter.Seam_merges_h !root columns.(ci)
                    ~offset:(Point.make !root.Fragment.width 0)
              done;
              let top =
                {
                  (Fragment.finalize ~next_id:!next !root) with
                  Hier.part_name = "Top";
                }
              in
              let hier =
                { Hier.parts = List.rev (top :: !parts); top = "Top" }
              in
              t_flatten := Trace.now_ns ();
              let flat_circuit, activations = Hier.flatten_ext hier in
              apply_resizes flat_circuit activations resizes;
              t_order := Trace.now_ns ();
              let circuit =
                canonicalize ~name ~bb flat_circuit activations
                  (Array.map (fun r -> r.keys) results)
              in
              t_done := Trace.now_ns ();
              circuit)
        in
        let seconds a b = Int64.to_float (Int64.sub !b !a) /. 1e9 in
        let shards =
          Array.to_list (Array.map (fun r -> r.shard) results)
        in
        let warnings =
          List.concat
            (Array.to_list
               (Array.mapi
                  (fun i { warnings = ws; _ } ->
                    List.map
                      (fun m ->
                        Ace_diag.Diag.warning ~code:"extract-anomaly"
                          (Printf.sprintf "shard %d/%d: %s" (i + 1) tcount m))
                      ws)
                  results))
        in
        ( circuit,
          {
            jobs = nworkers;
            shards;
            stitch_seconds = !stitch_seconds;
            compose_seconds = seconds t_compose t_flatten;
            flatten_seconds = seconds t_flatten t_order;
            order_seconds = seconds t_order t_done;
            boxes = Ace_cif.Design.count_boxes design;
            stops = List.fold_left (fun a s -> a + s.s_stops) 0 shards;
            max_active =
              List.fold_left (fun a s -> max a s.s_max_active) 0 shards;
            warnings;
          } )
      end

let extract ?cancel ?on_shard ?jobs ?tile ?name design =
  fst (extract_with_stats ?cancel ?on_shard ?jobs ?tile ?name design)
