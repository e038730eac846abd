(* The domain-parallel sharded extractor (Ace_core.Parallel) and the
   streaming/determinism fixes underneath it: FIFO heap pops, the lazy
   window clip, boundary recording, and -jN ≡ -j1 equivalence. *)
open Ace_geom
open Ace_tech
module Parallel = Ace_core.Parallel
module Engine = Ace_core.Engine

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let design_of ast = Ace_cif.Design.of_ast ast
let flat design = Ace_core.Extractor.extract design

let equiv a b =
  Ace_lvs.Match.exact ~with_sizes:true ~with_names:true a b
  = Ace_lvs.Match.Equivalent

let data_design file =
  let dir =
    (* cwd differs between `dune runtest` and `dune exec` *)
    List.find Sys.file_exists [ "../data"; "data"; "_build/default/data" ]
  in
  design_of (Ace_cif.Parser.parse_file (Filename.concat dir file))

(* ------------------------------------------------------------------ *)
(* Strip partition                                                     *)
(* ------------------------------------------------------------------ *)

(* The full-height vertical strips of the [-j]-only path: one row of
   tiles. *)
let strips ~jobs bb =
  Array.map (fun col -> col.(0)) (Parallel.tile_windows ~cols:jobs ~rows:1 bb)

let strips_tile (bb : Box.t) wins =
  Array.length wins >= 1
  && Array.for_all
       (fun (w : Box.t) -> w.b = bb.b && w.t = bb.t && w.l < w.r)
       wins
  && wins.(0).Box.l = bb.l
  && wins.(Array.length wins - 1).Box.r = bb.r
  && Array.for_all
       (fun i -> wins.(i).Box.r = wins.(i + 1).Box.l)
       (Array.init (Array.length wins - 1) Fun.id)

let test_windows_tile () =
  let bb = Box.make ~l:(-7) ~b:3 ~r:100 ~t:50 in
  List.iter
    (fun jobs ->
      let wins = strips ~jobs bb in
      check "tiles" true (strips_tile bb wins);
      check "at most jobs" true (Array.length wins <= jobs))
    [ 1; 2; 3; 4; 7; 16 ]

let test_windows_narrow () =
  (* a 3-wide chip cannot support 4 strips: one strip per x unit, max *)
  let bb = Box.make ~l:0 ~b:0 ~r:3 ~t:9 in
  let wins = strips ~jobs:4 bb in
  check_int "three strips" 3 (Array.length wins);
  check "tiles" true (strips_tile bb wins)

let prop_windows =
  Tutil.qtest ~count:200 "windows tile any box"
    QCheck2.Gen.(
      let* l = int_range (-50) 50 in
      let* b = int_range (-50) 50 in
      let* w = int_range 1 120 in
      let* h = int_range 1 120 in
      let* jobs = int_range 1 9 in
      return (Box.make ~l ~b ~r:(l + w) ~t:(b + h), jobs))
    (fun (bb, jobs) ->
      let wins = strips ~jobs bb in
      strips_tile bb wins && Array.length wins <= jobs)

(* ------------------------------------------------------------------ *)
(* 2-D tile grids                                                      *)
(* ------------------------------------------------------------------ *)

let grid_tiles (bb : Box.t) grid =
  let cols = Array.length grid in
  cols >= 1
  && Array.for_all (fun col -> Array.length col = Array.length grid.(0)) grid
  && (* columns adjacent, spanning [bb.l, bb.r) *)
  grid.(0).(0).Box.l = bb.l
  && grid.(cols - 1).(0).Box.r = bb.r
  && Array.for_all
       (fun i -> grid.(i).(0).Box.r = grid.(i + 1).(0).Box.l)
       (Array.init (cols - 1) Fun.id)
  && Array.for_all
       (fun col ->
         let rows = Array.length col in
         (* rows adjacent bottom to top, spanning [bb.b, bb.t) *)
         col.(0).Box.b = bb.b
         && col.(rows - 1).Box.t = bb.t
         && Array.for_all
              (fun j -> col.(j).Box.t = col.(j + 1).Box.b)
              (Array.init (rows - 1) Fun.id)
         && (* every tile shares its column's x-range and is non-empty *)
         Array.for_all
           (fun (w : Box.t) ->
             w.l = col.(0).Box.l && w.r = col.(0).Box.r && w.l < w.r
             && w.b < w.t)
           col)
       grid

let test_tile_windows () =
  let bb = Box.make ~l:(-7) ~b:3 ~r:100 ~t:50 in
  List.iter
    (fun (cols, rows) ->
      let grid = Parallel.tile_windows ~cols ~rows bb in
      check "tiles the box" true (grid_tiles bb grid);
      check "at most cols" true (Array.length grid <= cols);
      check "at most rows" true (Array.length grid.(0) <= rows))
    [ (1, 1); (2, 2); (3, 4); (7, 5); (16, 16) ];
  (* a 3x2 chip clamps a 5x5 request to one tile per unit *)
  let tiny = Box.make ~l:0 ~b:0 ~r:3 ~t:2 in
  let grid = Parallel.tile_windows ~cols:5 ~rows:5 tiny in
  check_int "clamped cols" 3 (Array.length grid);
  check_int "clamped rows" 2 (Array.length grid.(0));
  check "clamped grid tiles" true (grid_tiles tiny grid)

let prop_tile_windows =
  Tutil.qtest ~count:200 "tile grids tile any box"
    QCheck2.Gen.(
      let* l = int_range (-50) 50 in
      let* b = int_range (-50) 50 in
      let* w = int_range 1 120 in
      let* h = int_range 1 120 in
      let* cols = int_range 1 9 in
      let* rows = int_range 1 9 in
      return (Box.make ~l ~b ~r:(l + w) ~t:(b + h), cols, rows))
    (fun (bb, cols, rows) ->
      let grid = Parallel.tile_windows ~cols ~rows bb in
      grid_tiles bb grid
      && Array.length grid <= cols
      && Array.length grid.(0) <= rows)

let test_tile_of_string () =
  check "4x2 parses" true (Parallel.tile_of_string "4x2" = Ok (4, 2));
  check "1x1 parses" true (Parallel.tile_of_string "1x1" = Ok (1, 1));
  List.iter
    (fun s ->
      check
        (Printf.sprintf "%S rejected" s)
        true
        (Result.is_error (Parallel.tile_of_string s)))
    [ ""; "4"; "x"; "4x"; "x2"; "0x2"; "4x0"; "-1x2"; "4x2x1"; "a xb" ]

(* ------------------------------------------------------------------ *)
(* Stream regressions: exhaustion guard, FIFO ties, window filter       *)
(* ------------------------------------------------------------------ *)

let bar lyr ~l ~b ~r ~t = Tutil.element_of_box lyr (Box.make ~l ~b ~r ~t)

let test_stream_exhausted () =
  let d =
    design_of
      {
        Ace_cif.Ast.symbols = [];
        top_level = [ bar Layer.Metal ~l:0 ~b:0 ~r:4 ~t:4 ];
      }
  in
  let s = Ace_cif.Stream.create d in
  ignore (Ace_cif.Stream.drain s);
  (* the old heap popped a dummy item and drove its size to -1 here;
     now exhaustion is a stable fixed point *)
  check_int "pending zero" 0 (Ace_cif.Stream.pending s);
  check "peek none" true (Ace_cif.Stream.peek_top s = None);
  check "pop_at empty" true (Ace_cif.Stream.pop_at s 0 = []);
  check "peek still none" true (Ace_cif.Stream.peek_top s = None);
  check_int "pending never negative" 0 (Ace_cif.Stream.pending s)

let test_stream_fifo_ties () =
  (* three boxes sharing a top edge, written in scrambled x order: pops
     must come back in insertion order, not x order or heap-shape order *)
  let d =
    design_of
      {
        Ace_cif.Ast.symbols = [];
        top_level =
          [
            bar Layer.Metal ~l:20 ~b:0 ~r:24 ~t:10;
            bar Layer.Metal ~l:0 ~b:0 ~r:4 ~t:10;
            bar Layer.Metal ~l:40 ~b:0 ~r:44 ~t:10;
          ];
      }
  in
  let s = Ace_cif.Stream.create d in
  check "top is 10" true (Ace_cif.Stream.peek_top s = Some 10);
  let xs =
    List.map (fun (_, (b : Box.t)) -> b.l) (Ace_cif.Stream.pop_at s 10)
  in
  check "insertion order" true (xs = [ 20; 0; 40 ])

let test_stream_window_filter () =
  (* one symbol placed inside and far outside the window: the outside
     instance must never be expanded, its geometry never streamed *)
  let sym =
    {
      Ace_cif.Ast.id = 1;
      name = None;
      elements = [ bar Layer.Metal ~l:0 ~b:0 ~r:4 ~t:4 ];
    }
  in
  let call dx =
    Ace_cif.Ast.Call { symbol = 1; ops = [ Ace_cif.Ast.Translate (dx, 0) ] }
  in
  let d =
    design_of { Ace_cif.Ast.symbols = [ sym ]; top_level = [ call 0; call 1000 ] }
  in
  let s =
    Ace_cif.Stream.create ~window:(Box.make ~l:0 ~b:0 ~r:10 ~t:10) d
  in
  let boxes = Ace_cif.Stream.drain s in
  check_int "only the inside box" 1 (List.length boxes);
  check_int "one expansion" 1 (Ace_cif.Stream.expansions s)

(* ------------------------------------------------------------------ *)
(* Engine window mode: lazy clip boundedness, boundary faces            *)
(* ------------------------------------------------------------------ *)

let test_clip_is_lazy () =
  (* boxes below the window bottom must never be pulled from the source —
     the old implementation drained the entire stream up front *)
  let w = Box.make ~l:0 ~b:20 ~r:100 ~t:120 in
  let box ?b t = (Layer.Metal, Box.make ~l:0 ~b:(Option.value b ~default:(t - 4)) ~r:10 ~t) in
  let popped = ref [] in
  (* 150 straddles the window top (pools), 100 and 50 are inside, 10 is
     entirely below the bottom *)
  let base = Engine.source_of_boxes [ box ~b:100 150; box 100; box 50; box 10 ] in
  let counted =
    {
      Engine.peek = base.Engine.peek;
      pop =
        (fun y ->
          let bs = base.Engine.pop y in
          List.iter (fun (_, (b : Box.t)) -> popped := b.t :: !popped) bs;
          bs);
    }
  in
  let src = Engine.source_clipped counted ~window:w in
  (* the 150-top box pools into a single stop at the window top *)
  check "first stop at window top" true (src.Engine.peek () = Some w.Box.t);
  let rec drain acc =
    match src.Engine.peek () with
    | None -> List.rev acc
    | Some y -> drain (List.rev_append (src.Engine.pop y) acc)
  in
  let boxes = drain [] in
  check "all inside window" true
    (List.for_all
       (fun (_, (b : Box.t)) -> b.l >= w.l && b.r <= w.r && b.b >= w.b && b.t <= w.t)
       boxes);
  check_int "three boxes survive the clip" 3 (List.length boxes);
  check "below-bottom box never popped" true
    (List.for_all (fun t -> t >= w.Box.b) !popped)

let faces_of ~layer (raw : Engine.raw) =
  List.filter_map
    (fun (s : Engine.boundary_span) ->
      if Layer.equal s.blayer layer then Some s.bface else None)
    raw.Engine.boundary_nets
  |> List.sort_uniq compare

let run_windowed w boxes =
  Engine.run
    { Engine.emit_geometry = false; window = Some w }
    (Engine.source_of_boxes boxes)
    ~labels:[]

let test_boundary_all_faces () =
  let w = Box.make ~l:0 ~b:0 ~r:10 ~t:10 in
  let raw =
    run_windowed w [ (Layer.Metal, Box.make ~l:(-2) ~b:(-2) ~r:12 ~t:12) ]
  in
  check "all four faces" true
    (faces_of ~layer:Layer.Metal raw
    = [ Engine.West; Engine.East; Engine.South; Engine.North ])

let test_boundary_south_only () =
  let w = Box.make ~l:0 ~b:0 ~r:10 ~t:10 in
  let raw =
    run_windowed w [ (Layer.Metal, Box.make ~l:2 ~b:(-5) ~r:4 ~t:5) ]
  in
  check "south only" true (faces_of ~layer:Layer.Metal raw = [ Engine.South ])

let test_boundary_contact_faces () =
  let w = Box.make ~l:0 ~b:0 ~r:10 ~t:10 in
  (* a contact needs a conductor under it to be recorded at all *)
  let with_metal cut =
    [ (Layer.Metal, Box.make ~l:(-2) ~b:(-5) ~r:12 ~t:5); (Layer.Contact, cut) ]
  in
  (* cut reaching both vertical faces: recorded West and East *)
  let raw = run_windowed w (with_metal (Box.make ~l:(-2) ~b:2 ~r:12 ~t:4)) in
  check "contact on vertical faces" true
    (faces_of ~layer:Layer.Contact raw = [ Engine.West; Engine.East ]);
  (* cut crossing the bottom face only: the cut layer bridges within a
     strip, never across strips, so no South/North contact spans *)
  let raw = run_windowed w (with_metal (Box.make ~l:2 ~b:(-5) ~r:4 ~t:4)) in
  check "no horizontal contact spans" true
    (faces_of ~layer:Layer.Contact raw = []);
  (* ...while the metal under it still records South *)
  check "metal south recorded" true
    (List.mem Engine.South (faces_of ~layer:Layer.Metal raw))

(* ------------------------------------------------------------------ *)
(* Shard-stitch equivalence and determinism                             *)
(* ------------------------------------------------------------------ *)

let test_mesh_cif_equivalence () =
  let design = data_design "mesh4x4.cif" in
  let reference = flat design in
  List.iter
    (fun jobs ->
      check
        (Printf.sprintf "-j%d equals flat" jobs)
        true
        (equiv reference (Parallel.extract ~jobs design)))
    [ 2; 3; 4 ]

let test_workload_equivalence () =
  List.iter
    (fun (name, ast) ->
      let design = design_of ast in
      check name true (equiv (flat design) (Parallel.extract ~jobs:4 design)))
    [
      ("inverter", Ace_workloads.Chips.single_inverter ());
      ("chain8", Ace_workloads.Chips.inverter_chain ~n:8 ());
      ("four inverters", Ace_workloads.Chips.four_inverters ());
      ("mesh4x4", Ace_workloads.Arrays.mesh ~rows:4 ~cols:4 ());
      ("datapath", Ace_workloads.Chips.datapath ~bits:4 ~stages:3 ());
      ("random logic", Ace_workloads.Chips.random_logic ~cells:16 ~seed:7 ());
    ]

let test_deterministic_and_one_worker () =
  let design = data_design "mesh4x4.cif" in
  let wl jobs =
    Ace_netlist.Wirelist.to_string (Parallel.extract ~jobs design)
  in
  check "repeat runs byte-identical" true (wl 4 = wl 4);
  check "one worker, same strips, byte-identical" true
    (wl 4
    = Ace_netlist.Wirelist.to_string
        (Parallel.extract ~jobs:1 ~tile:(4, 1) design))

(* The canonicalization pass makes tiled output *byte-identical* to the
   flat extractor — not just electrically equivalent — for any grid and
   any worker count (workers only decide who computes a tile, never what
   lands in its result slot). *)
let test_tiled_byte_identity () =
  List.iter
    (fun file ->
      let design = data_design file in
      let flat_wl = Ace_netlist.Wirelist.to_string (flat design) in
      List.iter
        (fun (cols, rows) ->
          List.iter
            (fun jobs ->
              let wl =
                Ace_netlist.Wirelist.to_string
                  (Parallel.extract ~jobs ~tile:(cols, rows) design)
              in
              check
                (Printf.sprintf "%s %dx%d -j%d = flat" file cols rows jobs)
                true
                (wl = flat_wl))
            [ 1; 4 ])
        [ (1, 2); (2, 2); (3, 2); (4, 4); (1, 7) ])
    [ "inverter.cif"; "chain4.cif"; "mesh4x4.cif"; "shapes.cif" ]

(* A transistor channel cut by a *horizontal* seam: vertical diffusion
   crossed by vertical poly makes a channel spanning y 6..14; a 1x2 grid
   over the 0..20 chip puts its seam at y 10, through the channel.  The
   two partial halves must knit across the seam and the result must be
   byte-identical to the flat run. *)
let test_horizontal_seam_device () =
  let d =
    design_of
      {
        Ace_cif.Ast.symbols = [];
        top_level =
          [
            bar Layer.Diffusion ~l:4 ~b:0 ~r:8 ~t:20;
            bar Layer.Poly ~l:2 ~b:6 ~r:10 ~t:14;
          ];
      }
  in
  let flat_c = flat d in
  check_int "one transistor" 1 (Array.length flat_c.Ace_netlist.Circuit.devices);
  let tiled, st = Parallel.extract_with_stats ~tile:(1, 2) d in
  check "tiled = flat bytes" true
    (Ace_netlist.Wirelist.to_string tiled
    = Ace_netlist.Wirelist.to_string flat_c);
  check_int "two tiles" 2 (List.length st.Parallel.shards);
  (* the channel really was cut: both tiles held a partial device *)
  List.iter
    (fun (s : Parallel.shard) -> check_int "partial in tile" 1 s.s_partials)
    st.Parallel.shards

let prop_tiled_byte_identity =
  Tutil.qtest ~count:60 "tiled ≡ flat bytes on random designs and grids"
    QCheck2.Gen.(
      let* ast = Tutil.gen_design in
      let* cols = int_range 1 4 in
      let* rows = int_range 1 4 in
      let* jobs = int_range 1 4 in
      return (ast, cols, rows, jobs))
    (fun (ast, cols, rows, jobs) ->
      let design = design_of ast in
      Ace_netlist.Wirelist.to_string
        (Parallel.extract ~jobs ~tile:(cols, rows) design)
      = Ace_netlist.Wirelist.to_string (flat design))

let test_stats () =
  let design = data_design "mesh4x4.cif" in
  let _, st = Parallel.extract_with_stats ~jobs:4 design in
  let bb = Option.get (Ace_cif.Design.bbox design) in
  check_int "four shards" 4 (List.length st.Parallel.shards);
  check_int "jobs recorded" 4 st.Parallel.jobs;
  check_int "global box count" (Ace_cif.Design.count_boxes design)
    st.Parallel.boxes;
  check "stops counted" true (st.Parallel.stops > 0);
  check "balance sane" true (Parallel.balance st >= 1.0);
  check "stitch time non-negative" true (st.Parallel.stitch_seconds >= 0.0);
  List.iter
    (fun (s : Parallel.shard) ->
      check "full-height strip" true
        (s.s_window.Box.b = bb.Box.b && s.s_window.Box.t = bb.Box.t))
    st.Parallel.shards;
  (* the flat fallback is the flat extractor *)
  let _, st1 = Parallel.extract_with_stats ~jobs:1 design in
  check_int "flat fallback: no shards" 0 (List.length st1.Parallel.shards);
  check "flat fallback: no stitch" true (st1.Parallel.stitch_seconds = 0.0);
  (* an explicit grid engages the tiled path even at -j1, capping the
     worker count at the tile count *)
  let _, st22 = Parallel.extract_with_stats ~jobs:1 ~tile:(2, 2) design in
  check_int "2x2 grid: four tiles" 4 (List.length st22.Parallel.shards);
  check_int "2x2 grid at -j1: one worker" 1 st22.Parallel.jobs;
  check "2x2 tiles are not full height" true
    (List.exists
       (fun (s : Parallel.shard) ->
         s.s_window.Box.b <> bb.Box.b || s.s_window.Box.t <> bb.Box.t)
       st22.Parallel.shards);
  let _, st8 = Parallel.extract_with_stats ~jobs:8 ~tile:(2, 2) design in
  check_int "workers capped at tiles" 4 st8.Parallel.jobs;
  (* a 1x1 grid falls back to the flat extractor *)
  let _, st11 = Parallel.extract_with_stats ~jobs:4 ~tile:(1, 1) design in
  check_int "1x1 grid: flat fallback" 0 (List.length st11.Parallel.shards)

(* A shard that raises (via the on_shard hook, including on a spawned
   domain) must neither wedge the join nor leak domains: the exception
   propagates with every sibling joined, the lowest-indexed raiser wins,
   and the very next extraction on the same process succeeds. *)
let test_shard_raise_joins () =
  let design = data_design "mesh4x4.cif" in
  let reference = flat design in
  let raised =
    match
      Parallel.extract ~jobs:4
        ~on_shard:(fun idx -> if idx > 0 then failwith "boom")
        design
    with
    | _ -> None
    | exception Failure m -> Some m
  in
  check "raising shard propagates" true (raised = Some "boom");
  (* deadline trips on shards propagate as Cancelled, also after joining *)
  let cancel = Ace_core.Cancel.create () in
  Ace_core.Cancel.cancel ~reason:"test-stop" cancel;
  let cancelled =
    match Parallel.extract ~jobs:4 ~cancel design with
    | _ -> false
    | exception Ace_core.Cancel.Cancelled r -> r = "test-stop"
  in
  check "cancelled shards propagate the reason" true cancelled;
  (* the process is left consistent: a fresh parallel run still matches *)
  check "extraction works after a raising shard" true
    (equiv reference (Parallel.extract ~jobs:4 design))

(* The scheduler hands out every tile exactly once, whatever the grid
   and the worker count: [on_shard] runs at the start of each tile's
   work (once for a one-tile grid's flat fallback), and each call is
   counted against its tile index. *)
let test_each_tile_once () =
  let design = data_design "mesh4x4.cif" in
  let bb = Option.get (Ace_cif.Design.bbox design) in
  for cols = 1 to 8 do
    for rows = 1 to 3 do
      let grid = Parallel.tile_windows ~cols ~rows bb in
      let tiles = Array.length grid * Array.length grid.(0) in
      for jobs = 1 to 4 do
        let runs = Array.init tiles (fun _ -> Atomic.make 0) in
        ignore
          (Parallel.extract ~jobs ~tile:(cols, rows)
             ~on_shard:(fun t -> Atomic.incr runs.(t))
             design);
        check
          (Printf.sprintf "%dx%d -j%d: each of %d tiles ran once" cols rows
             jobs tiles)
          true
          (Array.for_all (fun n -> Atomic.get n = 1) runs)
      done
    done
  done

(* Regression layouts for sizing across seams: a transistor completed
   inside one part (a tile, or a compose of tiles) whose source
   diffusion is two nets of that part joined only through another.
   Flat extraction sums both edges into one terminal.

   seam_merge_width.cif (shrunk from the property below) gives (Length 1)
   (Width 10) flat; a leaf sizing over tile-local nets gave (Length 2)
   (Width 9) on -j3 and the 3x1, 3x2 and 6x1 grids.

   seam_merge_tie.cif is a 16x24 channel at x 60..76, y 0..24.  Its
   source arms run 8 along its left edge from y 0 and 14 along its top
   edge, joined by a bar at x 0..8; its drain runs 22 along its right
   edge from y 2.  The merged arms tie the drain, and flat extraction
   picks the source by the minimal edge key: the arms' y 0 beats the
   drain's y 2, while the arms' largest key, y 24, would swap source
   and drain.  The 2x1 grid cuts both arms at x 48 and leaves the
   channel whole in the right tile; 2x2 also cuts the channel at y 10,
   so the right column's compose completes it with the arms still
   apart.

   net_order_tie.cif pins the net order the stitch must replay.  Its
   poly gate net and its metal net (joined to the drain diffusion) both
   begin at (0, 24), poly first.  The flat extractor's heap sort numbers
   them N2 and N1; a stable sort would keep creation order and make the
   gate N1. *)
let test_seam_merge () =
  List.iter
    (fun (file, length, width) ->
      let design = data_design ("regress/" ^ file) in
      let reference = flat design in
      let d0 = reference.Ace_netlist.Circuit.devices.(0) in
      check_int (file ^ " flat length") length d0.Ace_netlist.Circuit.length;
      check_int (file ^ " flat width") width d0.Ace_netlist.Circuit.width;
      if file = "net_order_tie.cif" then
        check_int (file ^ " flat gate after the tied metal net") 2
          d0.Ace_netlist.Circuit.gate;
      let flat_wl = Ace_netlist.Wirelist.to_string reference in
      for cols = 1 to 8 do
        for rows = 1 to 3 do
          check
            (Printf.sprintf "%s %dx%d grid = flat bytes" file cols rows)
            true
            (Ace_netlist.Wirelist.to_string
               (Parallel.extract ~tile:(cols, rows) design)
            = flat_wl)
        done
      done;
      for jobs = 1 to 4 do
        check
          (Printf.sprintf "%s -j %d = flat bytes" file jobs)
          true
          (Ace_netlist.Wirelist.to_string (Parallel.extract ~jobs design)
          = flat_wl)
      done)
    [
      ("seam_merge_width.cif", 1, 10);
      ("seam_merge_tie.cif", 17, 22);
      ("net_order_tie.cif", 4, 4);
    ]

(* The tiled path's allocation, bounded against the flat extractor's on
   the same design.  Minor words counted on one domain are deterministic
   for one build, so the bounds are tight: the largest ratio over the
   paper chips at scale 0.1 (cherry, where the per-tile fixed costs weigh
   most) plus 10%, and the ratio of the sums plus 10%.  Before the
   fold-down and the stitch moved onto int arrays the ratios were 2.6x to
   5.3x, 2.9x over the sums. *)
let tiled_words_bound = 5.0
let tiled_words_total_bound = 2.25

let test_tiled_allocation () =
  let words f =
    let w0 = Gc.minor_words () in
    ignore (Sys.opaque_identity (f ()));
    Gc.minor_words () -. w0
  in
  let flat_total = ref 0.0 and tiled_total = ref 0.0 in
  List.iter
    (fun (r : Ace_workloads.Chips.recipe) ->
      let design = r.build ~scale:0.1 in
      let flat_w = words (fun () -> flat design) in
      let tiled_w =
        words (fun () -> Parallel.extract ~jobs:1 ~tile:(4, 2) design)
      in
      flat_total := !flat_total +. flat_w;
      tiled_total := !tiled_total +. tiled_w;
      check
        (Printf.sprintf "%s: tiled allocates %.3fx flat (bound %.2fx)"
           r.chip_name (tiled_w /. flat_w) tiled_words_bound)
        true
        (tiled_w <= tiled_words_bound *. flat_w))
    Ace_workloads.Chips.paper_suite;
  check
    (Printf.sprintf "all chips: tiled allocates %.3fx flat (bound %.2fx)"
       (!tiled_total /. !flat_total)
       tiled_words_total_bound)
    true
    (!tiled_total <= tiled_words_total_bound *. !flat_total)

let prop_random_designs =
  Tutil.qtest ~count:60 "parallel ≡ flat on random hierarchical designs"
    Tutil.gen_design (fun ast ->
      let design = design_of ast in
      equiv (flat design) (Parallel.extract ~jobs:3 design))

let () =
  Alcotest.run "parallel"
    [
      ( "windows",
        [
          Alcotest.test_case "tile" `Quick test_windows_tile;
          Alcotest.test_case "narrow chip" `Quick test_windows_narrow;
          prop_windows;
          Alcotest.test_case "2-D grid" `Quick test_tile_windows;
          prop_tile_windows;
          Alcotest.test_case "tile_of_string" `Quick test_tile_of_string;
        ] );
      ( "stream",
        [
          Alcotest.test_case "exhaustion" `Quick test_stream_exhausted;
          Alcotest.test_case "FIFO ties" `Quick test_stream_fifo_ties;
          Alcotest.test_case "window filter" `Quick test_stream_window_filter;
        ] );
      ( "engine-window",
        [
          Alcotest.test_case "clip is lazy" `Quick test_clip_is_lazy;
          Alcotest.test_case "all faces" `Quick test_boundary_all_faces;
          Alcotest.test_case "south only" `Quick test_boundary_south_only;
          Alcotest.test_case "contact faces" `Quick test_boundary_contact_faces;
        ] );
      ( "equivalence",
        [
          Alcotest.test_case "mesh4x4.cif" `Quick test_mesh_cif_equivalence;
          Alcotest.test_case "workloads" `Quick test_workload_equivalence;
          Alcotest.test_case "determinism" `Quick
            test_deterministic_and_one_worker;
          Alcotest.test_case "tiled byte identity" `Quick
            test_tiled_byte_identity;
          Alcotest.test_case "horizontal seam device" `Quick
            test_horizontal_seam_device;
          prop_tiled_byte_identity;
          Alcotest.test_case "stats" `Quick test_stats;
          Alcotest.test_case "raising shard joins" `Quick
            test_shard_raise_joins;
          Alcotest.test_case "each tile runs once" `Quick test_each_tile_once;
          prop_random_designs;
          Alcotest.test_case "seam-merged sizing" `Quick test_seam_merge;
          Alcotest.test_case "tiled allocation" `Quick test_tiled_allocation;
        ] );
    ]
