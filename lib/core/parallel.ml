open Ace_geom
open Ace_netlist
module Trace = Ace_trace.Trace

type shard = {
  s_window : Box.t;
  s_boxes : int;
  s_stops : int;
  s_max_active : int;
  s_seconds : float;
  s_timing : Timing.t;
  s_devices : int;
  s_partials : int;
  s_counters : int array;
}

type stats = {
  jobs : int;
  shards : shard list;
  stitch_seconds : float;
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
   geometry, not to how the scan was windowed.  [key_earlier] is
   element-creation order over those keys. *)
let key_earlier (y1, p1, x1) (y2, p2, x2) =
  y1 > y2 || (y1 = y2 && (p1 < p2 || (p1 = p2 && x1 < x2)))

(* The tile index of a leaf activation: leaf parts are named
   "W<tile index>" by Fragment. *)
let leaf_tile (a : Hier.activation) =
  let n = a.Hier.act_part in
  int_of_string (String.sub n 1 (String.length n - 1))

(* Per part-local net (the same dense numbering {!Fragment.leaf_of_raw}
   uses), the earliest creation key of the class, in chip coordinates. *)
let leaf_net_keys (raw : Engine.raw) =
  let nets = raw.Engine.nets in
  let dense = Union_find.compress nets in
  let keys = Array.make (Union_find.class_count nets) None in
  for e = 0 to Union_find.count nets - 1 do
    let k =
      (raw.Engine.net_y.(e), raw.Engine.net_phase.(e), raw.Engine.net_x.(e))
    in
    let c = dense.(Union_find.find nets e) in
    match keys.(c) with
    | Some k0 when key_earlier k0 k -> ()
    | _ -> keys.(c) <- Some k
  done;
  keys

(* ------------------------------------------------------------------ *)
(* Seam-merged sizing                                                  *)
(* ------------------------------------------------------------------ *)

(* A device completed inside one part — a tile, or a compose of tiles —
   is sized there from the part's nets.  When two of its contact nets are
   exported, they may be one flat net that joins only through a part
   composed later (a source diffusion cut in two by a tile's clip), and
   the flat extractor sums their edges into one terminal.  Such a device
   keeps its contacts over the part's nets, so the stitch can size it
   again over flat nets. *)
type resize = {
  r_index : int;  (** position in the part's device list *)
  r_area : int;
  r_contacts : (int * int * Point.t * int) list;
      (** (part-local net, edge length, minimal edge position, side) *)
}

(* [devices] are the part's complete devices as (area, contacts), in the
   part's device order; [net] maps a contact's net into the part's
   numbering. *)
let part_resizes (part : Hier.part) ~net devices =
  let exported = Array.make part.Hier.net_count false in
  List.iter (fun n -> exported.(n) <- true) part.Hier.exports;
  (* two distinct exported nets among [contacts]; [first] is the
     exported net met so far, or -1 *)
  let rec two_exported first = function
    | [] -> false
    | (n, _, _, _) :: rest ->
        let n = net n in
        if not exported.(n) then two_exported first rest
        else if first < 0 || first = n then two_exported n rest
        else true
  in
  List.mapi (fun i d -> (i, d)) devices
  |> List.filter_map (fun (i, (area, contacts)) ->
         if not (two_exported (-1) contacts) then None
         else
           Some
             {
               r_index = i;
               r_area = area;
               r_contacts =
                 List.map
                   (fun (n, l, pos, side) -> (net n, l, pos, side))
                   contacts;
             })

let leaf_resizes (raw : Engine.raw) (part : Hier.part) =
  (* the engine aggregates contacts per net class, so a contact names a
     root; [dense] numbers roots as leaf_of_raw does *)
  let dense = Union_find.compress raw.Engine.nets in
  part_resizes part
    ~net:(fun n -> dense.(n))
    (List.map
       (fun (_, (d : Engine.device_data)) -> (d.Engine.area, d.Engine.contacts))
       (Fragment.complete_devices raw))

let compose_resizes (f : Fragment.t) completed =
  part_resizes f.Fragment.part ~net:Fun.id
    (List.map
       (fun (p : Fragment.partial) ->
         (p.Fragment.p_area, p.Fragment.p_contacts))
       completed)

(* Size the kept devices again over the flattened circuit's nets: each
   part-local contact net maps through the part's activation, and
   {!Fragment.size_contacts} merges and sizes them as the flat extractor
   does.  [resizes] is keyed by part name. *)
let apply_resizes (circuit : Circuit.t) activations resizes =
  List.iter
    (fun (a : Hier.activation) ->
      List.iter
        (fun r ->
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
  keys : (int * int * int) option array;
  resizes : resize list;
}

(* One tile: its own lazy stream over the shared (pre-warmed, read-only)
   design, clipped to the tile, run in window mode, and folded down to a
   fragment — all inside the worker domain. *)
let run_shard ~cancel ~on_shard design window labels idx =
  (* Each tile gets its own trace track whether it runs on a spawned
     domain or, as one of worker 0's tiles, on the calling one; the
     track's counters start at zero, so the snapshot at the end is the
     tile's own contribution. *)
  Trace.with_track ~tid:(idx + 1) ~name:(Printf.sprintf "shard %d" idx)
  @@ fun () ->
  on_shard idx;
  Cancel.check cancel;
  (* monotonic clock: shard telemetry must survive wall-clock steps *)
  let t0 = Trace.now_ns () in
  let stream = Ace_cif.Stream.create ~window design in
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
  let frag = Fragment.leaf_of_raw ~next_id:idx ~window raw in
  (* before the counter snapshot: the key scan's union-find lookups must
     be part of the shard's published counters *)
  let keys = leaf_net_keys raw in
  let resizes = leaf_resizes raw frag.Fragment.part in
  let shard =
    {
      s_window = window;
      s_boxes = !seen;
      s_stops = raw.Engine.stops;
      s_max_active = raw.Engine.max_active;
      s_seconds = Int64.to_float (Int64.sub (Trace.now_ns ()) t0) /. 1e9;
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
    boxes = st.Extractor.boxes;
    stops = st.stops;
    max_active = st.max_active;
    warnings = st.warnings;
  }

(* ------------------------------------------------------------------ *)
(* Work-stealing scheduler                                             *)
(* ------------------------------------------------------------------ *)

(* A Chase–Lev work-stealing deque over a fixed ring of tile indices.
   The owner pushes and pops at [bottom]; thieves race on [top] with a
   CAS.  OCaml's Atomic operations are sequentially consistent, which is
   stronger than the fences the original algorithm needs.  The ring
   capacity exceeds the total tile count, so a push can never land on a
   slot a thief is still reading (at most [tcount] indices are
   outstanding across all deques at any moment). *)
module Deque = struct
  type t = { ring : int array; top : int Atomic.t; bottom : int Atomic.t }

  let create cap =
    { ring = Array.make (max 1 cap) 0; top = Atomic.make 0; bottom = Atomic.make 0 }

  let slot d i = i mod Array.length d.ring

  (* owner only *)
  let push d v =
    let b = Atomic.get d.bottom in
    d.ring.(slot d b) <- v;
    Atomic.set d.bottom (b + 1)

  (* owner only *)
  let pop d =
    let b = Atomic.get d.bottom - 1 in
    Atomic.set d.bottom b;
    let t = Atomic.get d.top in
    if b < t then begin
      (* empty; restore *)
      Atomic.set d.bottom t;
      None
    end
    else if b > t then Some d.ring.(slot d b)
    else begin
      (* last element: race the thieves for it *)
      let v = d.ring.(slot d b) in
      let won = Atomic.compare_and_set d.top t (t + 1) in
      Atomic.set d.bottom (t + 1);
      if won then Some v else None
    end

  let size d = Atomic.get d.bottom - Atomic.get d.top

  (* any thief *)
  let steal d =
    let t = Atomic.get d.top in
    let b = Atomic.get d.bottom in
    if t >= b then None
    else
      let v = d.ring.(slot d t) in
      if Atomic.compare_and_set d.top t (t + 1) then Some v else None
end

(* Run [work t] for every tile index once, over [nworkers] domains.
   Worker k starts with a contiguous block of tiles in its own deque;
   when it runs dry it steals half of the first non-empty victim's
   visible tiles.  Results land in [results] slot-per-tile, so the steal
   schedule can never affect anything downstream.  Every domain is
   joined before any failure propagates (a leaked domain wedges the
   runtime at exit); the lowest-indexed tile's exception wins, with its
   original backtrace. *)
let run_tiles ~cancel ~nworkers ~tcount work =
  let results = Array.make tcount None in
  let steals = Array.make nworkers 0 in
  let tile_err = Array.make tcount None in
  let worker_err = Array.make nworkers None in
  let deques = Array.init nworkers (fun _ -> Deque.create (tcount + 1)) in
  for k = 0 to nworkers - 1 do
    let lo = k * tcount / nworkers and hi = (k + 1) * tcount / nworkers in
    (* pushed high to low so the owner pops its lowest tile first *)
    for t = hi - 1 downto lo do
      Deque.push deques.(k) t
    done
  done;
  let remaining = Atomic.make tcount in
  let abort = Atomic.make false in
  let exception Tile_failed in
  let do_tile t =
    match work t with
    | r ->
        results.(t) <- Some r;
        ignore (Atomic.fetch_and_add remaining (-1))
    | exception e ->
        tile_err.(t) <- Some (e, Printexc.get_raw_backtrace ());
        Atomic.set abort true;
        raise Tile_failed
  in
  let try_steal k =
    let got = ref 0 and off = ref 1 in
    while !got = 0 && !off < nworkers do
      let victim = deques.((k + !off) mod nworkers) in
      let visible = Deque.size victim in
      if visible > 0 then begin
        (* half of what was visible; losing a CAS race just means the
           tile went to someone else, which costs nothing *)
        (try
           for _ = 1 to (visible + 1) / 2 do
             match Deque.steal victim with
             | Some t ->
                 incr got;
                 Deque.push deques.(k) t
             | None -> raise Exit
           done
         with Exit -> ())
      end;
      incr off
    done;
    steals.(k) <- steals.(k) + !got;
    !got > 0
  in
  let worker k =
    try
      let rec go () =
        if not (Atomic.get abort) then
          match Deque.pop deques.(k) with
          | Some t ->
              do_tile t;
              go ()
          | None -> hunt ()
      and hunt () =
        if Atomic.get remaining > 0 && not (Atomic.get abort) then begin
          Cancel.check cancel;
          if try_steal k then go ()
          else begin
            Domain.cpu_relax ();
            hunt ()
          end
        end
      in
      go ()
    with
    | Tile_failed -> ()
    | e ->
        (* a raise outside any tile (e.g. a deadline trip in the steal
           loop): remember it per worker, lowest worker index wins if no
           tile recorded anything more precise *)
        worker_err.(k) <- Some (e, Printexc.get_raw_backtrace ());
        Atomic.set abort true
  in
  let doms =
    Array.init (nworkers - 1) (fun i -> Domain.spawn (fun () -> worker (i + 1)))
  in
  (* the calling domain is the pool's first worker *)
  worker 0;
  Array.iter Domain.join doms;
  let reraise = function
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> ()
  in
  Array.iter reraise tile_err;
  Array.iter reraise worker_err;
  (Array.map Option.get results, Array.fold_left ( + ) 0 steals)

(* ------------------------------------------------------------------ *)
(* Canonical renumbering                                               *)
(* ------------------------------------------------------------------ *)

(* Rebuild the flattened circuit in the flat extractor's canonical
   shape, so a tiled extraction is byte-identical to the flat one for
   any grid, worker count and steal schedule.

   {!Extractor.circuit_of_raw} orders nets by sorting the dense class
   array (classes in first-creation order) with (location y descending,
   x ascending), where a class's location is its earliest element's
   creation point.  Both ingredients are reconstructible here: the
   merged class's earliest creation key is the [key_earlier]-minimum
   over the leaf classes flattening fused together, and arranging
   classes by that full (y, phase, x) key reproduces the flat dense
   order — so running the very same sort yields the very same
   permutation, ties included.  Devices are re-sorted with the flat
   comparator (location y then x, ascending). *)
let canonicalize ~name ~(bb : Box.t) (circuit : Circuit.t) activations
    tile_keys =
  let class_count = Array.length circuit.Circuit.nets in
  let keys = Array.make class_count None in
  List.iter
    (fun (a : Hier.activation) ->
      if a.Hier.act_leaf then begin
        let leaf_keys : (int * int * int) option array =
          tile_keys.(leaf_tile a)
        in
        Array.iteri
          (fun local g ->
            match leaf_keys.(local) with
            | None -> ()
            | Some k -> (
                match keys.(g) with
                | Some k0 when key_earlier k0 k -> ()
                | _ -> keys.(g) <- Some k))
          a.Hier.act_nets
      end)
    activations;
  let loc_of c =
    match keys.(c) with
    | Some (y, _, x) -> Point.make x y
    | None -> Point.origin
  in
  (* classes in flat dense order: first-creation order over full keys;
     keyless classes (impossible unless a net escaped every leaf) sink
     to the end deterministically *)
  let order = Array.init class_count (fun i -> i) in
  Array.sort
    (fun a b ->
      match (keys.(a), keys.(b)) with
      | Some ka, Some kb ->
          if key_earlier ka kb then -1 else if key_earlier kb ka then 1 else 0
      | Some _, None -> -1
      | None, Some _ -> 1
      | None, None -> Int.compare a b)
    order;
  (* ... then the flat extractor's own net sort, verbatim *)
  Array.sort
    (fun a b ->
      let pa = loc_of a and pb = loc_of b in
      let c = Int.compare pb.Point.y pa.Point.y in
      if c <> 0 then c else Int.compare pa.Point.x pb.Point.x)
    order;
  let position = Array.make class_count 0 in
  Array.iteri (fun rank c -> position.(c) <- rank) order;
  let nets =
    Array.map
      (fun c ->
        {
          Circuit.names = circuit.Circuit.nets.(c).Circuit.names;
          location = loc_of c;
          geometry = [];
        })
      order
  in
  let devices =
    Array.to_list circuit.Circuit.devices
    |> List.map (fun (d : Circuit.device) ->
           {
             d with
             Circuit.gate = position.(d.gate);
             source = position.(d.source);
             drain = position.(d.drain);
             location = Point.add d.location (Point.make bb.Box.l bb.Box.b);
           })
    |> List.sort (fun (a : Circuit.device) b ->
           let c = Int.compare a.location.Point.y b.location.Point.y in
           if c <> 0 then c
           else Int.compare a.location.Point.x b.location.Point.x)
    |> Array.of_list
  in
  { Circuit.name; devices; nets }

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
        let buckets = shard_labels grid (Ace_cif.Design.labels design) in
        let work t =
          run_shard ~cancel ~on_shard design tiles.(t) buckets.(t) t
        in
        let nworkers = max 1 (min jobs tcount) in
        let results, steals = run_tiles ~cancel ~nworkers ~tcount work in
        Trace.count Trace.Counter.Tiles_extracted tcount;
        if steals > 0 then Trace.count Trace.Counter.Tile_steals steals;
        let stitch_seconds = ref 0.0 in
        let circuit =
          (* the stitch gets its own track, after the per-tile ones *)
          Trace.with_track ~tid:(tcount + 1) ~name:"stitch" @@ fun () ->
          Trace.timed "stitch" (fun dt -> stitch_seconds := dt) (fun () ->
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
                let f, completed =
                  Fragment.compose_ext ~next_id:id a b ~offset
                in
                Hashtbl.replace resizes f.Fragment.part.Hier.part_name
                  (compose_resizes f completed);
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
              let flat_circuit, activations = Hier.flatten_ext hier in
              apply_resizes flat_circuit activations resizes;
              canonicalize ~name ~bb flat_circuit activations
                (Array.map (fun r -> r.keys) results))
        in
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
            boxes = Ace_cif.Design.count_boxes design;
            stops = List.fold_left (fun a s -> a + s.s_stops) 0 shards;
            max_active =
              List.fold_left (fun a s -> max a s.s_max_active) 0 shards;
            warnings;
          } )
      end

let extract ?cancel ?on_shard ?jobs ?tile ?name design =
  fst (extract_with_stats ?cancel ?on_shard ?jobs ?tile ?name design)
