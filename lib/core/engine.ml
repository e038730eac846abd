open Ace_geom
open Ace_tech
open Ace_netlist
module Trace = Ace_trace.Trace

type source = {
  peek : unit -> int option;
  pop : int -> (Layer.t * Box.t) list;
}

let source_of_stream ?(cancel = Cancel.never) stream =
  {
    peek = (fun () -> Ace_cif.Stream.peek_top stream);
    pop =
      (fun y ->
        (* checkpoint at the Stream.pop hot site: a pop can expand an
           arbitrarily deep symbol subtree, so deadline trips must be
           noticed before the next batch is pulled *)
        Cancel.check cancel;
        Ace_cif.Stream.pop_at stream y);
  }

let source_of_boxes boxes =
  let arr = Array.of_list (List.mapi (fun i b -> (i, b)) boxes) in
  (* Stable order: descending top, input order at equal tops — the same
     FIFO discipline as Stream's heap, so a re-sorted source pops
     deterministically (Array.sort alone is unstable). *)
  Array.sort
    (fun (i, (_, (a : Box.t))) (j, (_, (b : Box.t))) ->
      match Int.compare b.t a.t with 0 -> Int.compare i j | c -> c)
    arr;
  let box i = snd arr.(i) in
  let idx = ref 0 in
  {
    peek =
      (fun () ->
        if !idx < Array.length arr then Some (snd (box !idx)).Box.t else None);
    pop =
      (fun y ->
        let acc = ref [] in
        while !idx < Array.length arr && (snd (box !idx)).Box.t = y do
          acc := box !idx :: !acc;
          incr idx
        done;
        List.rev !acc);
  }

(* Clip a sorted source to [window] without materializing it.  A clipped
   top is [min t window.t] — monotone in [t] — so descending-top order is
   preserved by clipping; the only regrouping needed is pooling every stop
   at or above the window top into one stop exactly at [window.t].  That
   pool holds just the clipped survivors crossing the window's top edge
   (the scanline population there), so peak memory stays proportional to
   the strip, never to the whole window contents.  Below the window top,
   stops pass through unchanged (clipping does not move those tops), and
   once the underlying source peeks at or below the window bottom we stop
   pulling from it entirely — boxes wholly below the window are never even
   expanded. *)
let source_clipped source ~window:(w : Box.t) =
  let top_pool = ref [] in
  let pooled = ref false in
  let fill () =
    if not !pooled then begin
      let rec go acc =
        match source.peek () with
        | Some y when y >= w.Box.t ->
            let survivors =
              List.filter_map
                (fun (lyr, bx) ->
                  match Box.clip bx ~window:w with
                  | Some c -> Some (lyr, c)
                  | None -> None)
                (source.pop y)
            in
            go (List.rev_append survivors acc)
        | _ -> List.rev acc
      in
      top_pool := go [];
      pooled := true
    end
  in
  let peek () =
    fill ();
    if !top_pool <> [] then Some w.Box.t
    else
      match source.peek () with Some y when y > w.Box.b -> Some y | _ -> None
  in
  let pop y =
    fill ();
    if y >= w.Box.t then begin
      let boxes = !top_pool in
      top_pool := [];
      boxes
    end
    else if y <= w.Box.b then []
    else
      List.filter_map
        (fun (lyr, bx) ->
          match Box.clip bx ~window:w with
          | Some c -> Some (lyr, c)
          | None -> None)
        (source.pop y)
  in
  { peek; pop }

(* Edge-side codes for contact tie-breaking: the adjacent net lies below
   (0) / above (1) the channel across a horizontal edge, or left (2) /
   right (3) across a vertical one.  Together with the edge's minimal
   position this identifies a unique edge segment, giving every extractor
   the same deterministic source/drain choice on tied lengths. *)
let side_below = 0
let side_above = 1
let side_left = 2
let side_right = 3

(* the edge-key order on unboxed (x, y, side) keys: y, then x, then side *)
let edge_key_lt x1 y1 s1 x2 y2 s2 =
  y1 < y2 || (y1 = y2 && (x1 < x2 || (x1 = x2 && s1 < s2)))

let edge_key_less (p1, s1) (p2, s2) =
  edge_key_lt p1.Point.x p1.Point.y s1 p2.Point.x p2.Point.y s2

type face = West | East | South | North

type boundary_span = {
  bface : face;
  bspan : Interval.span;
  blayer : Layer.t;
  bnet : int;
}

type boundary_channel = { cface : face; cspan : Interval.span; cdev : int }

type config = { emit_geometry : bool; window : Box.t option }

let default_config = { emit_geometry = false; window = None }

type device_data = {
  area : int;
  implant_area : int;
  bbox : Box.t;
  gate : int;
  contacts : (int * int * Point.t * int) list;
  channel_geometry : Box.t list;
  touches_boundary : bool;
}

type raw = {
  nets : Union_find.t;
  net_names : (int * string) list;
  net_x : int array;
  net_y : int array;
  net_phase : int array;
  net_geometry : (int, (Layer.t * Box.t) list) Hashtbl.t;
  devices : (int * device_data) list;
  boundary_nets : boundary_span list;
  boundary_channels : boundary_channel list;
  warnings : string list;
  stops : int;
  max_active : int;
  timing : Timing.t;
}

(* The per-layer active list: every box currently intersecting the
   scanline, kept sorted by left edge.  Stored as a reusable arena of
   three parallel int arrays (left, right, bottom) — an active box spans
   [al.(i), ar.(i)) in x and persists until the scanline reaches
   [ab.(i)].  The arena is compacted in place as boxes expire and merged
   in place as newcomers arrive, so steady-state scanning allocates no
   cons cell per box (the paper's insertion sort of step 2.a/2.b over
   flat storage). *)
type arena = {
  mutable aal : int array;
  mutable aar : int array;
  mutable aab : int array;
  mutable alen : int;
}

let arena_create () =
  { aal = Array.make 16 0; aar = Array.make 16 0; aab = Array.make 16 0; alen = 0 }

let arena_reserve a extra =
  let need = a.alen + extra in
  if need > Array.length a.aal then begin
    let cap = max need (2 * Array.length a.aal) in
    let grow src =
      let dst = Array.make cap 0 in
      Array.blit src 0 dst 0 a.alen;
      dst
    in
    a.aal <- grow a.aal;
    a.aar <- grow a.aar;
    a.aab <- grow a.aab
  end

let arena_push a l r b =
  arena_reserve a 1;
  let i = a.alen in
  a.aal.(i) <- l;
  a.aar.(i) <- r;
  a.aab.(i) <- b;
  a.alen <- i + 1

(* Drop every box whose bottom edge is at or above the scanline: stable
   in-place compaction, nothing moves when nothing expires. *)
let arena_expire a y_top =
  let w = ref 0 in
  for i = 0 to a.alen - 1 do
    if a.aab.(i) < y_top then begin
      if !w < i then begin
        a.aal.(!w) <- a.aal.(i);
        a.aar.(!w) <- a.aar.(i);
        a.aab.(!w) <- a.aab.(i)
      end;
      incr w
    end
  done;
  a.alen <- !w

(* In-place quicksort by left edge (insertion sort under 12 elements).
   Equal-left order is irrelevant: the arena is only read back as merged
   intervals. *)
let arena_sort a =
  let swap i j =
    let tl = a.aal.(i) and tr = a.aar.(i) and tb = a.aab.(i) in
    a.aal.(i) <- a.aal.(j);
    a.aar.(i) <- a.aar.(j);
    a.aab.(i) <- a.aab.(j);
    a.aal.(j) <- tl;
    a.aar.(j) <- tr;
    a.aab.(j) <- tb
  in
  let rec sort lo hi =
    if hi - lo < 12 then
      for i = lo + 1 to hi do
        let l = a.aal.(i) and r = a.aar.(i) and b = a.aab.(i) in
        let j = ref (i - 1) in
        while !j >= lo && a.aal.(!j) > l do
          a.aal.(!j + 1) <- a.aal.(!j);
          a.aar.(!j + 1) <- a.aar.(!j);
          a.aab.(!j + 1) <- a.aab.(!j);
          decr j
        done;
        a.aal.(!j + 1) <- l;
        a.aar.(!j + 1) <- r;
        a.aab.(!j + 1) <- b
      done
    else begin
      let mid = lo + ((hi - lo) / 2) in
      (* median-of-three pivot to the middle *)
      if a.aal.(mid) < a.aal.(lo) then swap mid lo;
      if a.aal.(hi) < a.aal.(lo) then swap hi lo;
      if a.aal.(hi) < a.aal.(mid) then swap hi mid;
      let pivot = a.aal.(mid) in
      let i = ref lo and j = ref hi in
      while !i <= !j do
        while a.aal.(!i) < pivot do incr i done;
        while a.aal.(!j) > pivot do decr j done;
        if !i <= !j then begin
          if !i < !j then swap !i !j;
          incr i;
          decr j
        end
      done;
      sort lo !j;
      sort !i hi
    end
  in
  if a.alen > 1 then sort 0 (a.alen - 1)

(* Merge a sorted newcomer batch into the sorted arena, in place from the
   back (the classic backward two-way merge, no temporary storage). *)
let arena_merge a nb =
  arena_reserve a nb.alen;
  let i = ref (a.alen - 1) and j = ref (nb.alen - 1) in
  let k = ref (a.alen + nb.alen - 1) in
  while !j >= 0 do
    if !i >= 0 && a.aal.(!i) > nb.aal.(!j) then begin
      a.aal.(!k) <- a.aal.(!i);
      a.aar.(!k) <- a.aar.(!i);
      a.aab.(!k) <- a.aab.(!i);
      decr i
    end
    else begin
      a.aal.(!k) <- nb.aal.(!j);
      a.aar.(!k) <- nb.aar.(!j);
      a.aab.(!k) <- nb.aab.(!j);
      decr j
    end;
    decr k
  done;
  a.alen <- a.alen + nb.alen

(* Merged x-intervals of an arena, written into a reusable flat vector:
   one pass over the sorted boxes, coalescing overlapping or abutting
   spans and dropping degenerate ones — [Interval.of_spans] minus its
   sort, minus its allocation. *)
let ivec_of_arena dst a =
  Ivec.clear dst;
  if a.alen > 0 then begin
    let lo = ref a.aal.(0) and hi = ref a.aar.(0) in
    for i = 1 to a.alen - 1 do
      let l = a.aal.(i) and r = a.aar.(i) in
      if l <= !hi then begin
        if r > !hi then hi := r
      end
      else begin
        if !lo < !hi then Ivec.push dst !lo !hi;
        lo := l;
        hi := r
      end
    done;
    if !lo < !hi then Ivec.push dst !lo !hi
  end

(* In-place updates of one element's slot in a side table. *)
let add_at (b : Ibuf.t) i v = b.data.(i) <- b.data.(i) + v
let min_at (b : Ibuf.t) i v = if v < b.data.(i) then b.data.(i) <- v
let max_at (b : Ibuf.t) i v = if v > b.data.(i) then b.data.(i) <- v

(* First tagged span containing [x], scanning left to right. *)
let find_net_at (v : Ivec.tagged) x =
  let rec go i =
    if i >= v.Ivec.tlen then None
    else if v.Ivec.tlo.(i) <= x && x < v.Ivec.thi.(i) then
      Some v.Ivec.ttag.(i)
    else go (i + 1)
  in
  go 0

let run ?(cancel = Cancel.never) config source ~labels =
  Trace.with_span "engine.run" @@ fun () ->
  (* In window mode, clip lazily: tops at or above the window top pool
     into one stop at [w.t]; every other stop keeps its y, so the stream
     stays sorted without draining the design into a list (the paper's
     streaming invariant — peak heap stays proportional to the scanline,
     not to the window contents). *)
  let source =
    match config.window with
    | None -> source
    | Some w -> source_clipped source ~window:w
  in
  let timing = Timing.create () in
  let nets = Union_find.create () in
  let dev_uf = Union_find.create () in
  let net_names = ref [] in
  let net_geometry = Hashtbl.create 256 in
  let warnings = ref [] in
  let warn fmt = Format.kasprintf (fun m -> warnings := m :: !warnings) fmt in
  (* Per-element side tables.  [Union_find.fresh] hands out 0, 1, 2, ...
     and [fresh_net]/[fresh_dev] below are the only creators of elements,
     so slot [e] of each table belongs to element [e].  Nets keep their
     creation point and phase; device elements their channel area,
     implanted area, bounding box (l, b, r, t) and a window-boundary
     flag. *)
  let net_x = Ibuf.create () and net_y = Ibuf.create () in
  let net_phase = Ibuf.create () in
  let dev_area = Ibuf.create () and dev_implant = Ibuf.create () in
  let dev_l = Ibuf.create () and dev_b = Ibuf.create () in
  let dev_r = Ibuf.create () and dev_t = Ibuf.create () in
  let dev_boundary = Ibuf.create () in
  (* gate pairs, 2 ints each: (device element, poly net element) *)
  let dev_gates = Ibuf.create () in
  (* edge contacts, 6 ints each: (device element, net element, edge
     length, edge x, edge y, side code) *)
  let dev_edges = Ibuf.create () in
  let push_edge dev net len x y side =
    Ibuf.push dev_edges dev;
    Ibuf.push dev_edges net;
    Ibuf.push dev_edges len;
    Ibuf.push dev_edges x;
    Ibuf.push dev_edges y;
    Ibuf.push dev_edges side
  in
  let dev_geometry : (int, Box.t list ref) Hashtbl.t = Hashtbl.create 64 in
  let boundary_nets = ref [] in
  let boundary_channels = ref [] in
  let add_geometry tbl key item =
    match Hashtbl.find_opt tbl key with
    | Some r -> r := item :: !r
    | None -> Hashtbl.replace tbl key (ref [ item ])
  in
  let active = Array.init Layer.count (fun _ -> arena_create ()) in
  (* per-layer newcomer batches, reset between stops *)
  let incoming_scratch = Array.init Layer.count (fun _ -> arena_create ()) in
  (* The devices phase's working set: a fixed pool of flat interval
     vectors reused across every strip (Ivec), so the per-strip algebra
     allocates nothing in steady state.  The four tagged tracks are
     double-buffered — [assign] reads prev and writes cur, and the
     references swap at the end of the strip. *)
  let diff_raw = Ivec.create ()
  and poly_raw = Ivec.create ()
  and metal_raw = Ivec.create ()
  and cut_raw = Ivec.create ()
  and buried_raw = Ivec.create ()
  and implant_raw = Ivec.create () in
  let gate_overlap = Ivec.create ()
  and channel_all = Ivec.create ()
  and buried_contact = Ivec.create ()
  and diff_cond = Ivec.create () in
  let prev_diff = ref (Ivec.tagged_create ())
  and cur_diff = ref (Ivec.tagged_create ())
  and prev_poly = ref (Ivec.tagged_create ())
  and cur_poly = ref (Ivec.tagged_create ())
  and prev_metal = ref (Ivec.tagged_create ())
  and cur_metal = ref (Ivec.tagged_create ())
  and prev_chan = ref (Ivec.tagged_create ())
  and cur_chan = ref (Ivec.tagged_create ()) in
  let cut_bound = Ivec.tagged_create () in
  (* reusable id buffer for the via bridging rule *)
  let connect_buf = ref (Array.make 16 0) in
  let pending_labels = ref labels in
  let stops = ref 0 and max_active = ref 0 in
  (* The creation point is (span lo, top of the creating strip): the
     strip top at creation is always a transition edge of the net's own
     geometry (a clipped box top, or the bottom of the poly/buried box
     whose end exposed the span), never an unrelated global stop — so a
     window-mode scan over a tile records the same creation key as the
     flat scan.  The phase rank orders same-strip creations the way the
     assignment code below runs them; together (y desc, phase asc,
     x asc) is exactly element-creation order. *)
  let fresh_net ~phase lo y =
    let e = Union_find.fresh nets in
    Ibuf.push net_x lo;
    Ibuf.push net_y y;
    Ibuf.push net_phase phase;
    e
  in
  let union_nets a b =
    let before = Union_find.class_count nets in
    ignore (Union_find.union nets a b);
    if Union_find.class_count nets < before then
      Trace.incr Trace.Counter.Net_merges
  in
  let fresh_dev _lo _hi =
    let d = Union_find.fresh dev_uf in
    Ibuf.push dev_area 0;
    Ibuf.push dev_implant 0;
    Ibuf.push dev_l max_int;
    Ibuf.push dev_b max_int;
    Ibuf.push dev_r min_int;
    Ibuf.push dev_t min_int;
    Ibuf.push dev_boundary 0;
    d
  in
  let union_devs a b = ignore (Union_find.union dev_uf a b) in

  let record_boundary_tracks strip_bottom strip_top tracks chan =
    match config.window with
    | None -> ()
    | Some w ->
        let yspan = { Interval.lo = strip_bottom; hi = strip_top } in
        let record_track layer tagged =
          (* The cut layer bridges conductors horizontally within a strip,
             never vertically, so its interface spans live on the vertical
             faces only. *)
          let horizontal_faces = not (Layer.equal layer Layer.Contact) in
          Ivec.iter_tagged tagged ~f:(fun lo hi id ->
              if lo = w.Box.l then
                boundary_nets :=
                  { bface = West; bspan = yspan; blayer = layer; bnet = id }
                  :: !boundary_nets;
              if hi = w.Box.r then
                boundary_nets :=
                  { bface = East; bspan = yspan; blayer = layer; bnet = id }
                  :: !boundary_nets;
              let s = { Interval.lo; hi } in
              if horizontal_faces && strip_top = w.Box.t then
                boundary_nets :=
                  { bface = North; bspan = s; blayer = layer; bnet = id }
                  :: !boundary_nets;
              if horizontal_faces && strip_bottom = w.Box.b then
                boundary_nets :=
                  { bface = South; bspan = s; blayer = layer; bnet = id }
                  :: !boundary_nets)
        in
        List.iter (fun (layer, tagged) -> record_track layer tagged) tracks;
        Ivec.iter_tagged chan ~f:(fun lo hi dev ->
            let mark face span =
              dev_boundary.Ibuf.data.(dev) <- 1;
              boundary_channels :=
                { cface = face; cspan = span; cdev = dev } :: !boundary_channels
            in
            if lo = w.Box.l then mark West yspan;
            if hi = w.Box.r then mark East yspan;
            if strip_top = w.Box.t then mark North { Interval.lo; hi };
            if strip_bottom = w.Box.b then mark South { Interval.lo; hi })
  in

  let process_strip ~bottom ~top =
    let height = top - bottom in
    (* walking the active lists into merged strip intervals is the paper's
       "updating the data structures" work; device/net computation below is
       charged separately *)
    Timing.charge timing Timing.List_update (fun () ->
        let layer_intervals dst lyr =
          ivec_of_arena dst active.(Layer.index lyr)
        in
        layer_intervals diff_raw Layer.Diffusion;
        layer_intervals poly_raw Layer.Poly;
        layer_intervals metal_raw Layer.Metal;
        layer_intervals cut_raw Layer.Contact;
        layer_intervals buried_raw Layer.Buried;
        layer_intervals implant_raw Layer.Implant);
    Timing.charge timing Timing.Devices (fun () ->
        Ivec.inter_into ~dst:gate_overlap diff_raw poly_raw;
        Ivec.diff_into ~dst:channel_all gate_overlap buried_raw;
        Ivec.inter_into ~dst:buried_contact gate_overlap buried_raw;
        Ivec.diff_into ~dst:diff_cond diff_raw channel_all;
        (* net assignment by vertical overlap with the previous strip *)
        Ivec.assign ~prev:!prev_diff ~cur:diff_cond ~dst:!cur_diff
          ~fresh:(fun lo _ -> fresh_net ~phase:0 lo top)
          ~union:union_nets;
        Ivec.assign ~prev:!prev_poly ~cur:poly_raw ~dst:!cur_poly
          ~fresh:(fun lo _ -> fresh_net ~phase:1 lo top)
          ~union:union_nets;
        Ivec.assign ~prev:!prev_metal ~cur:metal_raw ~dst:!cur_metal
          ~fresh:(fun lo _ -> fresh_net ~phase:2 lo top)
          ~union:union_nets;
        Ivec.assign ~prev:!prev_chan ~cur:channel_all ~dst:!cur_chan
          ~fresh:fresh_dev ~union:union_devs;
        let new_diff = !cur_diff
        and new_poly = !cur_poly
        and new_metal = !cur_metal
        and new_chan = !cur_chan in
        (* channel contributions; the implant cursor rides along the
           ascending channel spans *)
        let ic = ref 0 in
        for k = 0 to new_chan.Ivec.tlen - 1 do
          let lo = new_chan.Ivec.tlo.(k)
          and hi = new_chan.Ivec.thi.(k)
          and dev = new_chan.Ivec.ttag.(k) in
          add_at dev_area dev ((hi - lo) * height);
          while
            !ic < implant_raw.Ivec.len && implant_raw.Ivec.hi.(!ic) <= lo
          do
            incr ic
          done;
          let over = ref 0 and j = ref !ic in
          while !j < implant_raw.Ivec.len && implant_raw.Ivec.lo.(!j) < hi do
            over :=
              !over
              + min hi implant_raw.Ivec.hi.(!j)
              - max lo implant_raw.Ivec.lo.(!j);
            incr j
          done;
          if !over > 0 then add_at dev_implant dev (!over * height);
          min_at dev_l dev lo;
          min_at dev_b dev bottom;
          max_at dev_r dev hi;
          max_at dev_t dev top;
          if config.emit_geometry then
            add_geometry dev_geometry dev (Box.make ~l:lo ~b:bottom ~r:hi ~t:top)
        done;
        (* gate nets: the poly interval covering each channel interval *)
        Ivec.iter_tagged_overlaps new_chan new_poly
          ~f:(fun dev poly_net _len _lo ->
            Ibuf.push dev_gates dev;
            Ibuf.push dev_gates poly_net);
        (* same-strip source/drain contacts: vertical edges where channel and
           conducting diffusion abut *)
        let rec adjacency ci di =
          if ci < new_chan.Ivec.tlen && di < new_diff.Ivec.tlen then begin
            let clo = new_chan.Ivec.tlo.(ci)
            and chi = new_chan.Ivec.thi.(ci)
            and dev = new_chan.Ivec.ttag.(ci) in
            let dlo = new_diff.Ivec.tlo.(di)
            and dhi = new_diff.Ivec.thi.(di)
            and net = new_diff.Ivec.ttag.(di) in
            if dhi <= clo then begin
              if dhi = clo then push_edge dev net height clo bottom side_left;
              adjacency ci (di + 1)
            end
            else begin
              (* disjoint tracks: here dlo >= chi *)
              if dlo = chi then push_edge dev net height chi bottom side_right;
              adjacency (ci + 1) di
            end
          end
        in
        adjacency 0 0;
        (* cross-strip source/drain contacts along the strip boundary *)
        Ivec.iter_tagged_overlaps new_chan !prev_diff ~f:(fun dev net len lo ->
            push_edge dev net len lo top side_above);
        Ivec.iter_tagged_overlaps !prev_chan new_diff ~f:(fun dev net len lo ->
            push_edge dev net len lo top side_below);
        (* contact cuts connect metal/poly/diffusion; buried contacts connect
           poly and diffusion.  Each track keeps a cursor that only advances
           (vias ascend), so a strip's bridging is linear overall; the ids
           under one via are collected into a reusable buffer and unioned in
           the same order the list walk used (last-found first). *)
        let connect_through (vias : Ivec.t) (tracks : Ivec.tagged array) =
          let cursors = Array.make (Array.length tracks) 0 in
          for v = 0 to vias.Ivec.len - 1 do
            let vlo = vias.Ivec.lo.(v) and vhi = vias.Ivec.hi.(v) in
            let count = ref 0 in
            Array.iteri
              (fun ti (t : Ivec.tagged) ->
                let c = ref cursors.(ti) in
                while !c < t.Ivec.tlen && t.Ivec.thi.(!c) <= vlo do incr c done;
                cursors.(ti) <- !c;
                let j = ref !c in
                while !j < t.Ivec.tlen && t.Ivec.tlo.(!j) < vhi do
                  if !count = Array.length !connect_buf then begin
                    let b = Array.make (2 * !count) 0 in
                    Array.blit !connect_buf 0 b 0 !count;
                    connect_buf := b
                  end;
                  !connect_buf.(!count) <- t.Ivec.ttag.(!j);
                  incr count;
                  incr j
                done)
              tracks;
            if !count >= 2 then begin
              let buf = !connect_buf in
              let first = buf.(!count - 1) in
              for k = !count - 2 downto 0 do
                union_nets first buf.(k)
              done
            end
          done
        in
        connect_through cut_raw [| new_metal; new_poly; new_diff |];
        connect_through buried_contact [| new_poly; new_diff |];
        (* net geometry *)
        if config.emit_geometry then begin
          let record layer tagged =
            Ivec.iter_tagged tagged ~f:(fun lo hi net ->
                add_geometry net_geometry net
                  (layer, Box.make ~l:lo ~b:bottom ~r:hi ~t:top))
          in
          record Layer.Diffusion new_diff;
          record Layer.Poly new_poly;
          record Layer.Metal new_metal
        end;
        (* labels falling inside this strip *)
        let rec bind_labels () =
          match !pending_labels with
          | (lab : Ace_cif.Design.label) :: rest
            when lab.position.Point.y >= bottom && lab.position.Point.y < top ->
              pending_labels := rest;
              let x = lab.position.Point.x in
              let tracks =
                match lab.layer with
                | Some Layer.Metal -> [ new_metal ]
                | Some Layer.Poly -> [ new_poly ]
                | Some Layer.Diffusion -> [ new_diff ]
                | Some (Layer.Contact | Layer.Implant | Layer.Buried | Layer.Glass)
                | None ->
                    [ new_metal; new_poly; new_diff ]
              in
              (match List.find_map (fun t -> find_net_at t x) tracks with
              | Some net -> net_names := (net, lab.name) :: !net_names
              | None ->
                  warn "label %S at (%d,%d) touches no conducting geometry" lab.name
                    lab.position.Point.x lab.position.Point.y);
              bind_labels ()
          | (lab : Ace_cif.Design.label) :: rest when lab.position.Point.y >= top ->
              (* above every strip we will ever process: report once *)
              pending_labels := rest;
              warn "label %S at (%d,%d) lies above all geometry" lab.name
                lab.position.Point.x lab.position.Point.y;
              bind_labels ()
          | _ -> ()
        in
        bind_labels ();
        (* The interface must also carry contact-cut bridges: a cut piece
           abutting the window boundary can merge with a neighbouring
           window's piece into one interval whose per-strip rule bridges
           conductors across the seam.  Each boundary cut interval is
           tagged with the net class it bridges in this strip (all its
           overlapping conductors are already unioned).  A piece touching
           no conductor here is NOT represented: a phantom element would
           persist across this window's (coarser) strips and transitively
           union neighbour nets that the flat extractor keeps apart.  The
           only construction such a piece could legitimately bridge is a
           cut spanning three windows with nothing under its middle third.
           HEXT never builds it: guillotine cuts never pass through the
           interior of a merged cut extent.  Parallel's fixed tile grid
           can, and there the tiled circuit then has more nets than the
           flat one (the open three-tile contact-cut item in ROADMAP.md). *)
        Ivec.tagged_clear cut_bound;
        if config.window <> None then begin
          let conductors = [| new_metal; new_poly; new_diff |] in
          let cursors = Array.make (Array.length conductors) 0 in
          for v = 0 to cut_raw.Ivec.len - 1 do
            let vlo = cut_raw.Ivec.lo.(v) and vhi = cut_raw.Ivec.hi.(v) in
            let found = ref (-1) in
            Array.iteri
              (fun ti (t : Ivec.tagged) ->
                if !found < 0 then begin
                  let c = ref cursors.(ti) in
                  while !c < t.Ivec.tlen && t.Ivec.thi.(!c) <= vlo do
                    incr c
                  done;
                  cursors.(ti) <- !c;
                  if !c < t.Ivec.tlen && t.Ivec.tlo.(!c) < vhi then
                    found := t.Ivec.ttag.(!c)
                end)
              conductors;
            if !found >= 0 then Ivec.tagged_push cut_bound vlo vhi !found
          done
        end;
        record_boundary_tracks bottom top
          [
            (Layer.Diffusion, new_diff);
            (Layer.Poly, new_poly);
            (Layer.Metal, new_metal);
            (Layer.Contact, cut_bound);
          ]
          new_chan;
        let swap a b =
          let t = !a in
          a := !b;
          b := t
        in
        swap prev_diff cur_diff;
        swap prev_poly cur_poly;
        swap prev_metal cur_metal;
        swap prev_chan cur_chan)
  in

  let count_active () =
    Array.fold_left (fun acc a -> acc + a.alen) 0 active
  in
  let rec loop y_top =
    (* the per-stop cancellation checkpoint: one atomic load when the
       token is inert, a clock read when a deadline is armed *)
    Cancel.check cancel;
    incr stops;
    Timing.charge timing Timing.List_update (fun () ->
        for i = 0 to Layer.count - 1 do
          arena_expire active.(i) y_top
        done);
    let incoming = Timing.charge timing Timing.Front_end (fun () -> source.pop y_top) in
    Timing.charge timing Timing.List_update (fun () ->
        for i = 0 to Layer.count - 1 do
          incoming_scratch.(i).alen <- 0
        done;
        List.iter
          (fun (lyr, (bx : Box.t)) ->
            if bx.t = y_top then
              arena_push incoming_scratch.(Layer.index lyr) bx.l bx.r bx.b)
          incoming;
        for i = 0 to Layer.count - 1 do
          let batch = incoming_scratch.(i) in
          if batch.alen > 0 then begin
            Trace.count Trace.Counter.Active_merges batch.alen;
            arena_sort batch;
            arena_merge active.(i) batch
          end
        done);
    max_active := max !max_active (count_active ());
    let next_peek = Timing.charge timing Timing.Front_end source.peek in
    let max_bottom =
      Array.fold_left
        (fun acc (a : arena) ->
          let acc = ref acc in
          for i = 0 to a.alen - 1 do
            match !acc with
            | None -> acc := Some a.aab.(i)
            | Some m -> if a.aab.(i) > m then acc := Some a.aab.(i)
          done;
          !acc)
        None active
    in
    let next_y =
      match (next_peek, max_bottom) with
      | None, None -> None
      | Some y, None | None, Some y -> Some y
      | Some a, Some b -> Some (max a b)
    in
    match next_y with
    | None -> ()
    | Some next_y ->
        process_strip ~bottom:next_y ~top:y_top;
        loop next_y
  in
  (match Timing.charge timing Timing.Front_end source.peek with
  | None -> ()
  | Some y0 -> loop y0);
  List.iter
    (fun (lab : Ace_cif.Design.label) ->
      warn "label %S at (%d,%d) lies below all geometry" lab.name
        lab.position.Point.x lab.position.Point.y)
    !pending_labels;
  (* Fold the per-element device tables by device-class root in one
     ascending pass: each element adds into its root's slots (one find
     per element), so a root's slots end up holding its class totals.
     Every element got a channel span, hence area, in the strip that
     created it, so every class is a device and [root.(r) = r] exactly
     for the roots that head one. *)
  let devices =
    Timing.charge timing Timing.Output (fun () ->
        let ndev = Union_find.count dev_uf in
        let area = dev_area.Ibuf.data and implant = dev_implant.Ibuf.data in
        let bl = dev_l.Ibuf.data and bb = dev_b.Ibuf.data in
        let br = dev_r.Ibuf.data and bt = dev_t.Ibuf.data in
        let boundary = dev_boundary.Ibuf.data in
        let root = Array.make ndev (-1) in
        for e = 0 to ndev - 1 do
          let r = Union_find.find dev_uf e in
          root.(e) <- r;
          if r <> e then begin
            area.(r) <- area.(r) + area.(e);
            implant.(r) <- implant.(r) + implant.(e);
            if bl.(e) < bl.(r) then bl.(r) <- bl.(e);
            if bb.(e) < bb.(r) then bb.(r) <- bb.(e);
            if br.(e) > br.(r) then br.(r) <- br.(e);
            if bt.(e) > bt.(r) then bt.(r) <- bt.(e);
            if boundary.(e) <> 0 then boundary.(r) <- 1
          end
        done;
        (* gate pairs newest first: the first hit per root wins *)
        let gate = Array.make ndev (-1) in
        let g = dev_gates.Ibuf.data in
        let i = ref (dev_gates.Ibuf.len - 2) in
        while !i >= 0 do
          let r = Union_find.find dev_uf g.(!i) in
          if gate.(r) < 0 then gate.(r) <- g.(!i + 1);
          i := !i - 2
        done;
        (* Edge contacts aggregate per (device root, net root), keeping
           the minimal edge key for deterministic terminal tie-breaks.
           The first edge of each pair becomes the pair's slot: its net
           field is rewritten to the net root, its length accumulates the
           pair's total and its (x, y, side) keeps the minimal key.  Slots
           chain per device root through [head]/[next]; a device touches
           few nets, so the chain walk is short. *)
        let ed = dev_edges.Ibuf.data in
        let nedges = dev_edges.Ibuf.len / 6 in
        let head = Array.make ndev (-1) and next = Array.make nedges (-1) in
        for k = nedges - 1 downto 0 do
          let o = 6 * k in
          let dr = Union_find.find dev_uf ed.(o) in
          let nr = Union_find.find nets ed.(o + 1) in
          let s = ref head.(dr) in
          while !s >= 0 && ed.((6 * !s) + 1) <> nr do
            s := next.(!s)
          done;
          if !s < 0 then begin
            ed.(o + 1) <- nr;
            next.(k) <- head.(dr);
            head.(dr) <- k
          end
          else begin
            let a = 6 * !s in
            ed.(a + 2) <- ed.(a + 2) + ed.(o + 2);
            if
              edge_key_lt ed.(o + 3) ed.(o + 4) ed.(o + 5) ed.(a + 3) ed.(a + 4)
                ed.(a + 5)
            then begin
              ed.(a + 3) <- ed.(o + 3);
              ed.(a + 4) <- ed.(o + 4);
              ed.(a + 5) <- ed.(o + 5)
            end
          end
        done;
        (* -g channel geometry: a multi-element device concatenates its
           pieces in [dev_geometry]'s iteration order (keys inserted in
           first-contribution order).  `-g` wirelists are pinned byte for
           byte, so this order must not change. *)
        let geometry = Array.make (if config.emit_geometry then ndev else 0) [] in
        Hashtbl.iter
          (fun e boxes ->
            let r = root.(e) in
            geometry.(r) <- !boxes @ geometry.(r))
          dev_geometry;
        let devices = ref [] in
        for r = ndev - 1 downto 0 do
          if root.(r) = r then begin
            let contacts = ref [] and s = ref head.(r) in
            while !s >= 0 do
              let a = 6 * !s in
              let pos = Point.make ed.(a + 3) ed.(a + 4) in
              contacts := (ed.(a + 1), ed.(a + 2), pos, ed.(a + 5)) :: !contacts;
              s := next.(!s)
            done;
            devices :=
              ( r,
                {
                  area = area.(r);
                  implant_area = implant.(r);
                  bbox = Box.make ~l:bl.(r) ~b:bb.(r) ~r:br.(r) ~t:bt.(r);
                  gate = gate.(r);
                  contacts = !contacts;
                  channel_geometry =
                    (if config.emit_geometry then geometry.(r) else []);
                  touches_boundary = boundary.(r) <> 0;
                } )
              :: !devices
          end
        done;
        !devices)
  in
  Trace.count Trace.Counter.Transistors (List.length devices);
  {
    nets;
    net_names = !net_names;
    net_x = net_x.Ibuf.data;
    net_y = net_y.Ibuf.data;
    net_phase = net_phase.Ibuf.data;
    net_geometry =
      (let tbl = Hashtbl.create 64 in
       Hashtbl.iter (fun k r -> Hashtbl.replace tbl k !r) net_geometry;
       tbl);
    devices;
    boundary_nets = !boundary_nets;
    boundary_channels =
      (* resolve element ids to the device roots used by [devices] *)
      List.map
        (fun bc -> { bc with cdev = Union_find.find dev_uf bc.cdev })
        !boundary_channels;
    warnings = List.rev !warnings;
    stops = !stops;
    max_active = !max_active;
    timing;
  }
