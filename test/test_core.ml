open Ace_geom
open Ace_tech
open Ace_netlist

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let extract = Ace_core.Extractor.extract_boxes
let box = Tutil.box

let device (c : Circuit.t) i = c.Circuit.devices.(i)

(* ------------------------------------------------------------------ *)
(* Connectivity unit cases                                              *)
(* ------------------------------------------------------------------ *)

let test_empty () =
  let c = extract [] in
  check_int "no devices" 0 (Circuit.device_count c);
  check_int "no nets" 0 (Circuit.net_count c)

let test_single_box () =
  let c = extract [ (Layer.Metal, box ~l:0 ~b:0 ~r:10 ~t:4) ] in
  check_int "one net" 1 (Circuit.net_count c);
  check_int "no devices" 0 (Circuit.device_count c)

let test_disjoint_boxes () =
  let c =
    extract
      [
        (Layer.Metal, box ~l:0 ~b:0 ~r:4 ~t:4);
        (Layer.Metal, box ~l:10 ~b:0 ~r:14 ~t:4);
        (Layer.Poly, box ~l:0 ~b:10 ~r:4 ~t:14);
      ]
  in
  check_int "three nets" 3 (Circuit.net_count c)

let test_overlap_merges () =
  let c =
    extract
      [
        (Layer.Metal, box ~l:0 ~b:0 ~r:10 ~t:4);
        (Layer.Metal, box ~l:5 ~b:2 ~r:15 ~t:8);
      ]
  in
  check_int "one net" 1 (Circuit.net_count c)

let test_corner_contact_does_not_merge () =
  let c =
    extract
      [
        (Layer.Metal, box ~l:0 ~b:0 ~r:4 ~t:4);
        (Layer.Metal, box ~l:4 ~b:4 ~r:8 ~t:8);
      ]
  in
  check_int "two nets" 2 (Circuit.net_count c)

let test_layers_do_not_merge () =
  let c =
    extract
      [
        (Layer.Metal, box ~l:0 ~b:0 ~r:10 ~t:4);
        (Layer.Poly, box ~l:0 ~b:0 ~r:10 ~t:4);
        (Layer.Diffusion, box ~l:20 ~b:0 ~r:24 ~t:4);
      ]
  in
  check_int "three nets" 3 (Circuit.net_count c)

let test_u_shape_merges () =
  (* a U on one layer: left leg, bottom bar, right leg *)
  let c =
    extract
      [
        (Layer.Metal, box ~l:0 ~b:0 ~r:2 ~t:10);
        (Layer.Metal, box ~l:8 ~b:0 ~r:10 ~t:10);
        (Layer.Metal, box ~l:0 ~b:0 ~r:10 ~t:2);
      ]
  in
  check_int "one net" 1 (Circuit.net_count c)

let test_contact_rules () =
  let base =
    [
      (Layer.Metal, box ~l:0 ~b:0 ~r:4 ~t:12);
      (Layer.Diffusion, box ~l:0 ~b:0 ~r:12 ~t:4);
    ]
  in
  (* no cut: two nets *)
  check_int "no cut" 2 (Circuit.net_count (extract base));
  (* cut over both: one net *)
  check_int "with cut" 1
    (Circuit.net_count
       (extract ((Layer.Contact, box ~l:1 ~b:1 ~r:3 ~t:3) :: base)));
  (* cut touching only metal does nothing *)
  check_int "cut off to the side" 2
    (Circuit.net_count
       (extract ((Layer.Contact, box ~l:1 ~b:8 ~r:3 ~t:10) :: base)))

let test_buried_contact () =
  let c =
    extract
      [
        (Layer.Diffusion, box ~l:0 ~b:0 ~r:10 ~t:4);
        (Layer.Poly, box ~l:4 ~b:(-4) ~r:6 ~t:8);
        (Layer.Buried, box ~l:3 ~b:(-1) ~r:7 ~t:5);
      ]
  in
  check_int "no transistor" 0 (Circuit.device_count c);
  check_int "poly and diffusion joined" 1 (Circuit.net_count c)

(* ------------------------------------------------------------------ *)
(* Device recognition                                                   *)
(* ------------------------------------------------------------------ *)

let simple_transistor =
  [
    (Layer.Diffusion, box ~l:0 ~b:0 ~r:20 ~t:4);
    (Layer.Poly, box ~l:8 ~b:(-4) ~r:10 ~t:8);
  ]

let test_transistor_basic () =
  let c = extract simple_transistor in
  check_int "one device" 1 (Circuit.device_count c);
  check_int "three nets" 3 (Circuit.net_count c);
  let d = device c 0 in
  check "enhancement" true (Nmos.device_type_equal d.dtype Nmos.Enhancement);
  check_int "width = diffusion height" 4 d.width;
  check_int "length = poly width" 2 d.length;
  check "gate differs from s/d" true (d.gate <> d.source && d.gate <> d.drain);
  check "s/d differ" true (d.source <> d.drain)

let test_transistor_depletion () =
  let c =
    extract ((Layer.Implant, box ~l:6 ~b:(-1) ~r:12 ~t:5) :: simple_transistor)
  in
  check "depletion" true
    (Nmos.device_type_equal (device c 0).dtype Nmos.Depletion)

let test_partial_implant_majority () =
  (* implant covering less than half the channel leaves it enhancement *)
  let c =
    extract ((Layer.Implant, box ~l:8 ~b:0 ~r:9 ~t:1) :: simple_transistor)
  in
  check "still enhancement" true
    (Nmos.device_type_equal (device c 0).dtype Nmos.Enhancement)

let test_transistor_horizontal_gate () =
  (* poly crossing horizontally: width counted along x *)
  let c =
    extract
      [
        (Layer.Diffusion, box ~l:0 ~b:0 ~r:4 ~t:20);
        (Layer.Poly, box ~l:(-4) ~b:8 ~r:8 ~t:11);
      ]
  in
  let d = device c 0 in
  check_int "width" 4 d.width;
  check_int "length" 3 d.length

let test_two_transistors_series () =
  let c =
    extract
      [
        (Layer.Diffusion, box ~l:0 ~b:0 ~r:30 ~t:4);
        (Layer.Poly, box ~l:8 ~b:(-4) ~r:10 ~t:8);
        (Layer.Poly, box ~l:20 ~b:(-4) ~r:22 ~t:8);
      ]
  in
  check_int "two devices" 2 (Circuit.device_count c);
  (* nets: 3 diffusion segments + 2 gates *)
  check_int "five nets" 5 (Circuit.net_count c);
  (* the middle diffusion segment is shared: some net is a terminal of
     both devices *)
  let d0 = device c 0 and d1 = device c 1 in
  let terms d = [ d.Circuit.source; d.Circuit.drain ] in
  check "share a terminal" true
    (List.exists (fun t -> List.mem t (terms d1)) (terms d0))

let test_snake_transistor () =
  (* an L-shaped channel: diffusion bar crossed by an L-shaped poly *)
  let c =
    extract
      [
        (Layer.Diffusion, box ~l:0 ~b:0 ~r:24 ~t:12);
        (* poly L: vertical part and horizontal part, overlapping the
           diffusion interior *)
        (Layer.Poly, box ~l:8 ~b:(-2) ~r:12 ~t:8);
        (Layer.Poly, box ~l:8 ~b:4 ~r:26 ~t:8);
      ]
  in
  check_int "one device" 1 (Circuit.device_count c);
  let d = device c 0 in
  (* channel area: vertical 4×8 + horizontal 16×4 − shared 4×4 = 80;
     the sizing rule guarantees L = ⌊area / W⌋ *)
  check "L*W rounds down from the channel area" true
    (d.length * d.width <= 80 && 80 - (d.length * d.width) < d.width)

let test_ring_transistor_single_terminal () =
  (* poly ring around a diffusion island: source and drain end up on the
     two sides; make a channel crossing the whole diffusion so only one
     diffusion net remains *)
  let c =
    extract
      [
        (Layer.Diffusion, box ~l:0 ~b:0 ~r:10 ~t:10);
        (Layer.Poly, box ~l:(-2) ~b:3 ~r:12 ~t:7);
        (* second poly wire reconnecting the two halves outside: none —
           expect two separate diffusion nets *)
      ]
  in
  let d = device c 0 in
  check "two different terminals" true (d.source <> d.drain);
  (* now a C-shaped diffusion whose ends meet the channel from one side
     only: source = drain *)
  let c2 =
    extract
      [
        (Layer.Diffusion, box ~l:0 ~b:0 ~r:4 ~t:16);
        (Layer.Diffusion, box ~l:0 ~b:12 ~r:12 ~t:16);
        (Layer.Diffusion, box ~l:0 ~b:0 ~r:12 ~t:4);
        (Layer.Diffusion, box ~l:8 ~b:0 ~r:12 ~t:16);
        (Layer.Poly, box ~l:8 ~b:6 ~r:14 ~t:10);
      ]
  in
  let d2 = device c2 0 in
  check "ring: source equals drain" true (d2.source = d2.drain)

let test_mesh_counts () =
  (* n poly lines over m diffusion lines: n*m transistors — the papers'
     worst case *)
  let n = 5 and m = 4 in
  let boxes =
    List.init n (fun i -> (Layer.Poly, box ~l:(-4) ~b:(i * 10) ~r:(10 * m) ~t:((i * 10) + 2)))
    @ List.init m (fun j ->
          (Layer.Diffusion, box ~l:(j * 10) ~b:(-4) ~r:((j * 10) + 2) ~t:(10 * n)))
  in
  let c = extract boxes in
  check_int "n*m devices" (n * m) (Circuit.device_count c);
  (* nets: n poly lines + m*(n+1) diffusion segments *)
  check_int "nets" (n + (m * (n + 1))) (Circuit.net_count c)

let test_inverter_lw () =
  let design = Ace_cif.Design.of_ast (Ace_workloads.Chips.single_inverter ()) in
  let c = Ace_core.Extractor.extract design in
  let lam = 250 in
  let dep =
    Array.to_list c.Circuit.devices
    |> List.find (fun (d : Circuit.device) -> d.dtype = Nmos.Depletion)
  and enh =
    Array.to_list c.Circuit.devices
    |> List.find (fun (d : Circuit.device) -> d.dtype = Nmos.Enhancement)
  in
  check_int "pull-up L" (8 * lam) dep.length;
  check_int "pull-up W" (2 * lam) dep.width;
  check_int "pull-down L" (2 * lam) enh.length;
  check_int "pull-down W" (2 * lam) enh.width;
  (* terminal identities by label *)
  let net name = Circuit.find_net c name in
  check_int "enh gate is INP" (net "INP") enh.gate;
  check "dep gate is OUT" true (dep.gate = net "OUT");
  check "dep drives between VDD and OUT" true
    (List.sort Int.compare [ dep.source; dep.drain ]
    = List.sort Int.compare [ net "VDD"; net "OUT" ])

(* ------------------------------------------------------------------ *)
(* Labels and geometry output                                           *)
(* ------------------------------------------------------------------ *)

let test_labels () =
  let labels =
    [
      { Ace_cif.Design.name = "A"; position = Point.make 1 1; layer = Some Layer.Metal };
      { Ace_cif.Design.name = "B"; position = Point.make 1 1; layer = Some Layer.Poly };
      { Ace_cif.Design.name = "nowhere"; position = Point.make 50 50; layer = None };
    ]
  in
  let c =
    Ace_core.Extractor.extract_boxes ~labels
      [
        (Layer.Metal, box ~l:0 ~b:0 ~r:4 ~t:4);
        (Layer.Poly, box ~l:0 ~b:0 ~r:4 ~t:4);
      ]
  in
  check "A on metal" true (Circuit.find_net c "A" >= 0);
  check "B on poly" true (Circuit.find_net c "B" >= 0);
  check "A and B distinct" true (Circuit.find_net c "A" <> Circuit.find_net c "B");
  check "unplaced label missing" true
    (match Circuit.find_net c "nowhere" with
    | exception Not_found -> true
    | _ -> false)

let test_two_labels_one_net () =
  let labels =
    [
      { Ace_cif.Design.name = "X"; position = Point.make 1 1; layer = None };
      { Ace_cif.Design.name = "Y"; position = Point.make 9 1; layer = None };
    ]
  in
  let c =
    Ace_core.Extractor.extract_boxes ~labels
      [ (Layer.Metal, box ~l:0 ~b:0 ~r:10 ~t:4) ]
  in
  check_int "same net" (Circuit.find_net c "X") (Circuit.find_net c "Y")

let test_geometry_output () =
  let c =
    Ace_core.Extractor.extract_boxes ~emit_geometry:true simple_transistor
  in
  let total_net_geom =
    Array.fold_left
      (fun acc (n : Circuit.net) ->
        acc + List.fold_left (fun a (_, b) -> a + Box.area b) 0 n.geometry)
      0 c.Circuit.nets
  in
  (* diffusion (80) minus channel (8) + poly (24) = 96 *)
  check_int "net geometry area" 96 total_net_geom;
  let d = device c 0 in
  check_int "channel geometry area" 8
    (List.fold_left (fun a (_, b) -> a + Box.area b) 0 d.Circuit.geometry);
  (* suppressed by default, like the paper *)
  let c' = Ace_core.Extractor.extract_boxes simple_transistor in
  check "suppressed by default" true
    (Array.for_all (fun (n : Circuit.net) -> n.geometry = []) c'.Circuit.nets)

(* ------------------------------------------------------------------ *)
(* Properties                                                           *)
(* ------------------------------------------------------------------ *)

let prop_translation_invariant =
  Tutil.qtest ~count:150 "extraction is translation invariant"
    QCheck2.Gen.(
      triple (Tutil.gen_layout ()) (int_range (-50) 50) (int_range (-50) 50))
    (fun (layout, dx, dy) ->
      let moved = List.map (fun (l, b) -> (l, Box.translate b ~dx ~dy)) layout in
      Tutil.circuit_equal ~with_sizes:true (extract layout) (extract moved))

let prop_order_invariant =
  Tutil.qtest ~count:150 "extraction is input-order invariant"
    (Tutil.gen_layout ())
    (fun layout ->
      Tutil.circuit_equal ~with_sizes:true
        (extract layout)
        (extract (List.rev layout)))

let prop_split_invariant =
  Tutil.qtest ~count:150 "splitting a box into abutting halves changes nothing"
    (Tutil.gen_layout ())
    (fun layout ->
      let split =
        List.concat_map
          (fun (lyr, (b : Box.t)) ->
            if Box.width b >= 2 then
              let m = (b.l + b.r) / 2 in
              [
                (lyr, Box.make ~l:b.l ~b:b.b ~r:m ~t:b.t);
                (lyr, Box.make ~l:m ~b:b.b ~r:b.r ~t:b.t);
              ]
            else [ (lyr, b) ])
          layout
      in
      Tutil.circuit_equal ~with_sizes:true (extract layout) (extract split))

let prop_duplicate_invariant =
  Tutil.qtest ~count:100 "duplicating boxes changes nothing"
    (Tutil.gen_layout ())
    (fun layout ->
      Tutil.circuit_equal ~with_sizes:true
        (extract layout)
        (extract (layout @ layout)))

let prop_mirror_invariant =
  Tutil.qtest ~count:100 "mirroring the layout preserves the circuit"
    (Tutil.gen_layout ())
    (fun layout ->
      let mirrored =
        List.map
          (fun (lyr, (b : Box.t)) ->
            (lyr, Box.make ~l:(-b.r) ~b:b.b ~r:(-b.l) ~t:b.t))
          layout
      in
      Tutil.circuit_equal ~with_sizes:true (extract layout) (extract mirrored))

let test_baseline_stats () =
  let design = Ace_cif.Design.of_ast (Ace_workloads.Arrays.mesh ~rows:4 ~cols:4 ()) in
  let _, rstats = Ace_baseline.Raster.extract_with_stats ~grid:250 design in
  check "raster grid covers the chip" true
    (rstats.Ace_baseline.Raster.grid_width >= 32
    && rstats.Ace_baseline.Raster.grid_height >= 32);
  check "raster visits every square" true
    (rstats.Ace_baseline.Raster.squares_visited
    = rstats.Ace_baseline.Raster.grid_width
      * rstats.Ace_baseline.Raster.grid_height);
  let _, gstats = Ace_baseline.Region.extract_with_stats design in
  check "region rescans the box list per stop" true
    (gstats.Ace_baseline.Region.boxes_scanned
    > 5 * Ace_cif.Design.count_boxes design)

let prop_agrees_with_region =
  Tutil.qtest ~count:200 "scanline and region extractors agree"
    (Tutil.gen_layout ())
    (fun layout ->
      Tutil.circuit_equal ~with_sizes:true (extract layout)
        (Ace_baseline.Region.extract_boxes layout))

let prop_agrees_with_raster =
  Tutil.qtest ~count:150 "scanline and raster extractors agree"
    (Tutil.gen_layout ())
    (fun layout ->
      Tutil.circuit_equal ~with_sizes:true (extract layout)
        (Ace_baseline.Raster.extract_boxes ~grid:1 layout))

(* ------------------------------------------------------------------ *)
(* End-to-end through CIF                                               *)
(* ------------------------------------------------------------------ *)

let test_extract_cif_string () =
  let src =
    "DS 1; L ND; B 20 4 10 2; L NP; B 2 12 9 2; DF; C 1; C 1 T 40 0; E"
  in
  let c = Ace_core.Extractor.extract_cif_string src in
  check_int "two transistors" 2 (Circuit.device_count c)

let test_wire_transistor () =
  (* a transistor drawn with CIF wires instead of boxes *)
  let c =
    Ace_core.Extractor.extract_cif_string
      "L ND; W 4 0 0 30 0; L NP; W 2 14 -10 14 10; E"
  in
  check_int "one device" 1 (Circuit.device_count c);
  check_int "three nets" 3 (Circuit.net_count c);
  let d = device c 0 in
  check_int "W = wire width of the diffusion" 4 d.width;
  check_int "L = wire width of the poly" 2 d.length

let test_polygon_transistor () =
  (* L-shaped diffusion polygon crossed by a poly box *)
  let c =
    Ace_core.Extractor.extract_cif_string
      "L ND; P 0 0 30 0 30 6 12 6 12 20 0 20; L NP; B 4 30 20 5; E"
  in
  check_int "one device" 1 (Circuit.device_count c);
  (* the poly at x 18..22 splits the bottom arm: the left piece merges with
     the column, the right piece is a separate net *)
  check_int "three nets" 3 (Circuit.net_count c);
  let d = device c 0 in
  check "distinct terminals" true (d.source <> d.drain);
  check_int "W = arm height" 6 d.width;
  check_int "L = poly width" 4 d.length

let test_roundflash_net () =
  let c = Ace_core.Extractor.extract_cif_string "L NM; R 20 0 0; E" in
  check_int "one net" 1 (Circuit.net_count c);
  check_int "no devices" 0 (Circuit.device_count c)

let test_rotation_invariance () =
  (* the same cell instantiated rotated yields an equivalent circuit *)
  let base = "DS 1; L ND; B 20 4 10 2; L NP; B 2 12 9 2; DF; C 1; E" in
  let rotated = "DS 1; L ND; B 20 4 10 2; L NP; B 2 12 9 2; DF; C 1 R 0 1; E" in
  let mirrored = "DS 1; L ND; B 20 4 10 2; L NP; B 2 12 9 2; DF; C 1 M X; E" in
  let cb = Ace_core.Extractor.extract_cif_string base in
  check "rotation" true
    (Tutil.circuit_equal ~with_sizes:true cb
       (Ace_core.Extractor.extract_cif_string rotated));
  check "mirror" true
    (Tutil.circuit_equal ~with_sizes:true cb
       (Ace_core.Extractor.extract_cif_string mirrored))

let test_scale_factor_invariance () =
  (* DS 1 2 1 doubles all coordinates: the circuit is the same shape with
     doubled dimensions *)
  let unit = "DS 1; L ND; B 20 4 10 2; L NP; B 2 12 9 2; DF; C 1; E" in
  let doubled = "DS 1 2 1; L ND; B 20 4 10 2; L NP; B 2 12 9 2; DF; C 1; E" in
  let cu = Ace_core.Extractor.extract_cif_string unit in
  let cd = Ace_core.Extractor.extract_cif_string doubled in
  check "same structure" true (Tutil.circuit_equal cu cd);
  check_int "doubled width" (2 * (device cu 0).width) (device cd 0).width;
  check_int "doubled length" (2 * (device cu 0).length) (device cd 0).length

let test_box_with_direction () =
  (* B with direction 0 1 swaps length and width *)
  let a = Ace_core.Extractor.extract_cif_string
      "L ND; B 20 4 10 2; L NP; B 2 12 9 2; E" in
  let b = Ace_core.Extractor.extract_cif_string
      "L ND; B 4 20 10 2 0 1; L NP; B 12 2 9 2 0 1; E" in
  check "direction rotates the box" true (Tutil.circuit_equal ~with_sizes:true a b)

let test_stats () =
  let design = Ace_cif.Design.of_ast (Ace_workloads.Arrays.mesh ~rows:4 ~cols:4 ()) in
  let _, stats = Ace_core.Extractor.extract_with_stats design in
  check_int "boxes" 32 stats.Ace_core.Extractor.boxes;
  check "stops counted" true (stats.stops > 4);
  check "active tracked" true (stats.max_active > 0);
  check "no warnings" true (stats.warnings = [])

(* ------------------------------------------------------------------ *)
(* Window (interface) mode                                              *)
(* ------------------------------------------------------------------ *)

let run_window boxes window =
  let source = Ace_core.Engine.source_of_boxes boxes in
  Ace_core.Engine.run
    { Ace_core.Engine.emit_geometry = false; window = Some window }
    source ~labels:[]

let test_window_boundary_spans () =
  (* a metal bar crossing the east boundary of the window *)
  let window = box ~l:0 ~b:0 ~r:10 ~t:10 in
  let raw = run_window [ (Layer.Metal, box ~l:2 ~b:4 ~r:20 ~t:6) ] window in
  let east =
    List.filter
      (fun (s : Ace_core.Engine.boundary_span) -> s.bface = Ace_core.Engine.East)
      raw.Ace_core.Engine.boundary_nets
  in
  check_int "one east crossing" 1 (List.length east);
  (match east with
  | [ s ] ->
      check "metal layer" true (Layer.equal s.blayer Layer.Metal);
      check "span is the strip y-range" true
        (s.bspan.Interval.lo = 4 && s.bspan.Interval.hi = 6)
  | _ -> ());
  check_int "no west crossing" 0
    (List.length
       (List.filter
          (fun (s : Ace_core.Engine.boundary_span) ->
            s.bface = Ace_core.Engine.West)
          raw.Ace_core.Engine.boundary_nets))

let test_window_clips () =
  (* geometry outside the window is invisible *)
  let window = box ~l:0 ~b:0 ~r:10 ~t:10 in
  let raw =
    run_window
      [
        (Layer.Metal, box ~l:2 ~b:2 ~r:6 ~t:6);
        (Layer.Metal, box ~l:100 ~b:100 ~r:110 ~t:110);
      ]
      window
  in
  check_int "one net (outside box clipped away)" 1
    (Ace_netlist.Union_find.class_count raw.Ace_core.Engine.nets)

let test_window_partial_device () =
  (* a transistor whose channel crosses the north boundary *)
  let window = box ~l:0 ~b:0 ~r:20 ~t:5 in
  let raw =
    run_window
      [
        (Layer.Diffusion, box ~l:0 ~b:0 ~r:20 ~t:10);
        (Layer.Poly, box ~l:8 ~b:2 ~r:10 ~t:12);
      ]
      window
  in
  (match raw.Ace_core.Engine.devices with
  | [ (_, d) ] ->
      check "touches boundary" true d.Ace_core.Engine.touches_boundary;
      check_int "clipped channel area" (2 * 3) d.Ace_core.Engine.area
  | _ -> Alcotest.fail "expected one channel component");
  check "north channel span recorded" true
    (List.exists
       (fun (c : Ace_core.Engine.boundary_channel) ->
         c.cface = Ace_core.Engine.North)
       raw.Ace_core.Engine.boundary_channels)

let test_window_interior_device_complete () =
  let window = box ~l:(-10) ~b:(-10) ~r:30 ~t:30 in
  let raw =
    run_window
      [
        (Layer.Diffusion, box ~l:0 ~b:0 ~r:20 ~t:4);
        (Layer.Poly, box ~l:8 ~b:(-4) ~r:10 ~t:8);
      ]
      window
  in
  match raw.Ace_core.Engine.devices with
  | [ (_, d) ] -> check "complete" false d.Ace_core.Engine.touches_boundary
  | _ -> Alcotest.fail "expected one device"

let test_warning_on_lost_label () =
  let labels =
    [ { Ace_cif.Design.name = "L"; position = Point.make 100 100; layer = None } ]
  in
  let source = Ace_core.Engine.source_of_boxes [ (Layer.Metal, box ~l:0 ~b:0 ~r:4 ~t:4) ] in
  let raw = Ace_core.Engine.run Ace_core.Engine.default_config source ~labels in
  check "warning emitted" true (raw.Ace_core.Engine.warnings <> [])

(* ------------------------------------------------------------------ *)
(* Cancel: yield hook and trip reasons                                  *)
(* ------------------------------------------------------------------ *)

module Cancel = Ace_core.Cancel

let counting () =
  let n = ref 0 in
  (n, fun () -> incr n)

let check_raises_reason name reason f =
  match f () with
  | () -> Alcotest.failf "%s: expected Cancelled %S" name reason
  | exception Cancel.Cancelled r -> Alcotest.(check string) name reason r

let test_cancel_check_yields () =
  let n, yield = counting () in
  let t = Cancel.create ~yield () in
  Cancel.check t;
  Cancel.check t;
  check_int "one yield per check" 2 !n;
  (* only check is a scheduling point *)
  ignore (Cancel.is_cancelled t, Cancel.reason t, Cancel.remaining_ms t);
  check_int "queries do not yield" 2 !n;
  let n2, yield2 = counting () in
  Cancel.check (Cancel.with_deadline_ms ~yield:yield2 60_000);
  check_int "deadline token yields too" 1 !n2

let test_cancel_never_inert () =
  for _ = 1 to 1000 do
    Cancel.check Cancel.never
  done;
  check "never trips" false (Cancel.is_cancelled Cancel.never);
  check "no deadline" true (Cancel.remaining_ms Cancel.never = None);
  (* the default hook of a fresh token is inert as well *)
  Cancel.check (Cancel.create ())

let test_cancel_reasons () =
  let n, yield = counting () in
  let d = Cancel.with_deadline_ms ~yield 0 in
  check_raises_reason "deadline reason" "deadline-exceeded" (fun () ->
      Cancel.check d);
  check_int "yields before raising" 1 !n;
  Cancel.cancel ~reason:"late" d;
  check "first reason wins" true (Cancel.reason d = Some "deadline-exceeded");
  let m = Cancel.create ~yield () in
  Cancel.check m;
  Cancel.cancel ~reason:"client-gone" m;
  check_raises_reason "manual reason" "client-gone" (fun () -> Cancel.check m);
  let plain = Cancel.create () in
  Cancel.cancel plain;
  check_raises_reason "default reason" "cancelled" (fun () ->
      Cancel.check plain)

let test_extraction_yields_per_stop () =
  let n, yield = counting () in
  let cancel = Cancel.create ~yield () in
  let design =
    Ace_cif.Design.of_ast (Ace_workloads.Chips.inverter_chain ~n:4 ())
  in
  let _, stats = Ace_core.Extractor.extract_with_stats ~cancel design in
  check "yields at every scanline stop" true
    (!n >= stats.Ace_core.Extractor.stops && !n > 0)

(* The sort-based terminal rule [channel_terminals] used before it
   picked the two terminals in one scan: the oracle.  [List.sort] is
   stable, so on a full tie the contact listed first wins. *)
let channel_terminals_by_sort ~gate ~area ~contacts =
  let contacts =
    List.sort
      (fun (_, la, pa, sa) (_, lb, pb, sb) ->
        let c = Int.compare lb la in
        if c <> 0 then c
        else if Ace_core.Engine.edge_key_less (pa, sa) (pb, sb) then -1
        else if Ace_core.Engine.edge_key_less (pb, sb) (pa, sa) then 1
        else 0)
      contacts
  in
  let source, drain, width =
    match contacts with
    | (n1, l1, _, _) :: (n2, l2, _, _) :: _ -> (n1, n2, (l1 + l2) / 2)
    | [ (n1, l1, _, _) ] -> (n1, n1, l1 / 2)
    | [] -> (gate, gate, max 1 (int_of_float (sqrt (float_of_int area))))
  in
  let width = max 1 width in
  (source, drain, width, max 1 (area / width))

(* Few lengths and positions, so length ties, key ties and full ties
   (same length and same edge key) are common; each contact's net is its
   index, so a wrong tie-break shows. *)
let gen_contacts =
  let open QCheck2.Gen in
  let contact =
    let* l = int_range 0 3 in
    let* x = int_range 0 1 in
    let* y = int_range 0 1 in
    let* side = int_range 0 3 in
    return (l, Point.make x y, side)
  in
  let* cs = list_size (int_range 0 7) contact in
  let* area = int_range 0 40 in
  return (area, List.mapi (fun n (l, p, side) -> (n + 100, l, p, side)) cs)

let prop_channel_terminals_scan =
  Tutil.qtest ~count:2000 "terminal scan = sort-based rule" gen_contacts
    (fun (area, contacts) ->
      Ace_core.Extractor.channel_terminals ~gate:7 ~area ~contacts
      = channel_terminals_by_sort ~gate:7 ~area ~contacts)

let () =
  Alcotest.run "core"
    [
      ( "cancel",
        [
          Alcotest.test_case "check runs the yield hook" `Quick
            test_cancel_check_yields;
          Alcotest.test_case "never is inert" `Quick test_cancel_never_inert;
          Alcotest.test_case "trip reasons kept" `Quick test_cancel_reasons;
          Alcotest.test_case "extraction yields per stop" `Quick
            test_extraction_yields_per_stop;
        ] );
      ( "connectivity",
        [
          Alcotest.test_case "empty" `Quick test_empty;
          Alcotest.test_case "single box" `Quick test_single_box;
          Alcotest.test_case "disjoint boxes" `Quick test_disjoint_boxes;
          Alcotest.test_case "overlap merges" `Quick test_overlap_merges;
          Alcotest.test_case "corner contact" `Quick test_corner_contact_does_not_merge;
          Alcotest.test_case "layers independent" `Quick test_layers_do_not_merge;
          Alcotest.test_case "U shape" `Quick test_u_shape_merges;
          Alcotest.test_case "contact rules" `Quick test_contact_rules;
          Alcotest.test_case "buried contact" `Quick test_buried_contact;
        ] );
      ( "devices",
        [
          Alcotest.test_case "basic transistor" `Quick test_transistor_basic;
          Alcotest.test_case "depletion" `Quick test_transistor_depletion;
          Alcotest.test_case "partial implant" `Quick test_partial_implant_majority;
          Alcotest.test_case "horizontal gate" `Quick test_transistor_horizontal_gate;
          Alcotest.test_case "series pair" `Quick test_two_transistors_series;
          Alcotest.test_case "snake channel" `Quick test_snake_transistor;
          Alcotest.test_case "ring terminals" `Quick test_ring_transistor_single_terminal;
          Alcotest.test_case "mesh counts" `Quick test_mesh_counts;
          Alcotest.test_case "inverter L/W and terminals" `Quick test_inverter_lw;
          prop_channel_terminals_scan;
        ] );
      ( "labels-and-geometry",
        [
          Alcotest.test_case "labels" `Quick test_labels;
          Alcotest.test_case "two labels one net" `Quick test_two_labels_one_net;
          Alcotest.test_case "geometry output" `Quick test_geometry_output;
          Alcotest.test_case "lost label warning" `Quick test_warning_on_lost_label;
        ] );
      ( "window-mode",
        [
          Alcotest.test_case "boundary spans" `Quick test_window_boundary_spans;
          Alcotest.test_case "clipping" `Quick test_window_clips;
          Alcotest.test_case "partial device" `Quick test_window_partial_device;
          Alcotest.test_case "interior device" `Quick test_window_interior_device_complete;
        ] );
      ( "properties",
        [
          prop_translation_invariant;
          prop_order_invariant;
          prop_split_invariant;
          prop_duplicate_invariant;
          prop_mirror_invariant;
          prop_agrees_with_region;
          prop_agrees_with_raster;
          Alcotest.test_case "baseline statistics" `Quick test_baseline_stats;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "extract CIF string" `Quick test_extract_cif_string;
          Alcotest.test_case "wire transistor" `Quick test_wire_transistor;
          Alcotest.test_case "polygon transistor" `Quick test_polygon_transistor;
          Alcotest.test_case "round flash" `Quick test_roundflash_net;
          Alcotest.test_case "rotation invariance" `Quick test_rotation_invariance;
          Alcotest.test_case "scale factor" `Quick test_scale_factor_invariance;
          Alcotest.test_case "box direction" `Quick test_box_with_direction;
          Alcotest.test_case "stats" `Quick test_stats;
        ] );
    ]
