open Ace_geom
open Ace_tech
open Ace_netlist

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let design_of file = Ace_cif.Design.of_ast file
let flat design = Ace_core.Extractor.extract design

let hext ?leaf_limit ?memoize design =
  Ace_hext.Hext.extract_flat ?leaf_limit ?memoize design

let agree ?leaf_limit design =
  Tutil.circuit_equal ~with_sizes:true (flat design)
    (fst (hext ?leaf_limit design))

(* ------------------------------------------------------------------ *)
(* Content / partitioner                                                *)
(* ------------------------------------------------------------------ *)

let window_of_layout layout =
  let area =
    Option.get (Box.hull_list (List.map snd layout))
  in
  {
    Ace_hext.Content.area;
    items = List.map (fun (l, b) -> Ace_hext.Content.Geometry (l, b)) layout;
  }

let dummy_design = design_of { Ace_cif.Ast.symbols = []; top_level = [] }

let test_canonical_translation () =
  let layout = [ (Layer.Metal, Tutil.box ~l:0 ~b:0 ~r:4 ~t:4) ] in
  let moved = [ (Layer.Metal, Tutil.box ~l:100 ~b:50 ~r:104 ~t:54) ] in
  check "translates equal" true
    (Ace_hext.Content.canonical_equal
       (Ace_hext.Content.canonicalize (window_of_layout layout))
       (Ace_hext.Content.canonicalize (window_of_layout moved)));
  let different = [ (Layer.Poly, Tutil.box ~l:0 ~b:0 ~r:4 ~t:4) ] in
  check "layer matters" false
    (Ace_hext.Content.canonical_equal
       (Ace_hext.Content.canonicalize (window_of_layout layout))
       (Ace_hext.Content.canonicalize (window_of_layout different)))

let test_cut_avoids_contacts () =
  (* the only candidate x-cuts cross the contact: no vertical cut through
     it may be chosen *)
  let w =
    window_of_layout
      [
        (Layer.Metal, Tutil.box ~l:0 ~b:0 ~r:20 ~t:4);
        (Layer.Contact, Tutil.box ~l:8 ~b:1 ~r:12 ~t:3);
      ]
  in
  match Ace_hext.Content.choose_cut dummy_design w with
  | Some (Ace_hext.Content.Vertical x) -> check "outside contact" true (x <= 8 || x >= 12)
  | Some (Ace_hext.Content.Horizontal _) | None -> ()

let test_split_clips_geometry () =
  let w = window_of_layout [ (Layer.Metal, Tutil.box ~l:0 ~b:0 ~r:10 ~t:4) ] in
  let low, high = Ace_hext.Content.split dummy_design w (Ace_hext.Content.Vertical 6) in
  check_int "low boxes" 1 (Ace_hext.Content.box_count low);
  check_int "high boxes" 1 (Ace_hext.Content.box_count high);
  check_int "areas preserved" 10
    (Box.width low.Ace_hext.Content.area + Box.width high.Ace_hext.Content.area)

(* ------------------------------------------------------------------ *)
(* Fragment compose on hand-built windows                               *)
(* ------------------------------------------------------------------ *)

let test_compose_net_across_seam () =
  (* one metal bar crossing the seam of two windows *)
  let wa = Box.make ~l:0 ~b:0 ~r:10 ~t:10 in
  let wb = Box.make ~l:10 ~b:0 ~r:20 ~t:10 in
  let fa =
    Ace_core.Fragment.leaf ~next_id:0 ~window:wa
      ~boxes:[ (Layer.Metal, Box.make ~l:2 ~b:4 ~r:10 ~t:6) ]
      ~labels:[]
  in
  let fb =
    Ace_core.Fragment.leaf ~next_id:1 ~window:wb
      ~boxes:[ (Layer.Metal, Box.make ~l:10 ~b:4 ~r:18 ~t:6) ]
      ~labels:[]
  in
  let f = Ace_core.Fragment.compose ~next_id:2 fa fb ~offset:(Point.make 10 0) in
  let top = Ace_core.Fragment.finalize ~next_id:3 f in
  let h =
    {
      Hier.parts =
        [ fa.Ace_core.Fragment.part; fb.Ace_core.Fragment.part;
          f.Ace_core.Fragment.part; { top with Hier.part_name = "Top" } ];
      top = "Top";
    }
  in
  let c = Hier.flatten h in
  check_int "single net after compose" 1 (Circuit.net_count c)

let test_compose_partial_transistor () =
  (* a transistor whose channel straddles the seam *)
  let wa = Box.make ~l:0 ~b:(-6) ~r:9 ~t:10 in
  let wb = Box.make ~l:9 ~b:(-6) ~r:20 ~t:10 in
  let boxes =
    [
      (Layer.Diffusion, Box.make ~l:0 ~b:0 ~r:20 ~t:4);
      (Layer.Poly, Box.make ~l:7 ~b:(-4) ~r:11 ~t:8);
    ]
  in
  let clip w =
    List.filter_map
      (fun (l, b) ->
        match Box.clip b ~window:w with Some c -> Some (l, c) | None -> None)
      boxes
  in
  let fa =
    Ace_core.Fragment.leaf ~next_id:0 ~window:wa ~boxes:(clip wa) ~labels:[]
  in
  let fb =
    Ace_core.Fragment.leaf ~next_id:1 ~window:wb ~boxes:(clip wb) ~labels:[]
  in
  check_int "a has a partial" 1 (List.length fa.Ace_core.Fragment.partials);
  check_int "b has a partial" 1 (List.length fb.Ace_core.Fragment.partials);
  check_int "a has no completed device" 0
    (List.length fa.Ace_core.Fragment.part.Hier.devices);
  let f = Ace_core.Fragment.compose ~next_id:2 fa fb ~offset:(Point.make 9 0) in
  check_int "knit completes the device" 1 (List.length f.Ace_core.Fragment.part.Hier.devices);
  check_int "no partials left" 0 (List.length f.Ace_core.Fragment.partials);
  (match f.Ace_core.Fragment.part.Hier.devices with
  | [ d ] ->
      check_int "width" 4 d.Hier.width;
      check_int "length" 4 d.Hier.length
  | _ -> assert false);
  (* and the whole thing equals the flat extraction *)
  let top = Ace_core.Fragment.finalize ~next_id:3 f in
  let h =
    {
      Hier.parts =
        [ fa.Ace_core.Fragment.part; fb.Ace_core.Fragment.part;
          f.Ace_core.Fragment.part; { top with Hier.part_name = "Top" } ];
      top = "Top";
    }
  in
  check "matches flat" true
    (Tutil.circuit_equal ~with_sizes:true
       (Ace_core.Extractor.extract_boxes boxes)
       (Hier.flatten h))

(* ------------------------------------------------------------------ *)
(* Whole-design equivalence                                             *)
(* ------------------------------------------------------------------ *)

let test_workload_equivalence () =
  List.iter
    (fun (name, file) ->
      check name true (agree (design_of file)))
    [
      ("inverter", Ace_workloads.Chips.single_inverter ());
      ("chain10", Ace_workloads.Chips.inverter_chain ~n:10 ());
      ("four", Ace_workloads.Chips.four_inverters ());
      ("mesh7x9", Ace_workloads.Arrays.mesh ~rows:7 ~cols:9 ());
      ("tree64", Ace_workloads.Arrays.square_array_tree ~cells:64 ());
      ("random30", Ace_workloads.Chips.random_logic ~cells:30 ~seed:9 ());
      ("datapath3x4", Ace_workloads.Chips.datapath ~bits:3 ~stages:4 ());
    ]

let test_small_leaf_limit () =
  (* forcing tiny leaves exercises the splitter and seam logic hard *)
  let d = design_of (Ace_workloads.Chips.inverter_chain ~n:6 ()) in
  check "leaf_limit 4" true (agree ~leaf_limit:4 d);
  check "leaf_limit 1" true (agree ~leaf_limit:1 d)

let test_memoize_off_same_answer () =
  let d = design_of (Ace_workloads.Arrays.mesh ~rows:6 ~cols:6 ()) in
  let with_memo, s1 = hext d in
  let without, s2 = hext ~memoize:false d in
  check "same circuit" true (Tutil.circuit_equal ~with_sizes:true with_memo without);
  check "memo saves leaf work" true
    (s1.Ace_hext.Hext.leaf_extractions < s2.Ace_hext.Hext.leaf_extractions);
  check_int "no hits without memo" 0 s2.Ace_hext.Hext.window_hits

let test_ideal_array_stats () =
  (* HEXT §4: one leaf extraction, O(log N) composes for a 2^k × 2^k array *)
  let d = design_of (Ace_workloads.Arrays.square_array_tree ~cells:256 ()) in
  let _, stats = hext d in
  check_int "one unique leaf" 1 stats.Ace_hext.Hext.leaf_extractions;
  check "composes logarithmic" true (stats.Ace_hext.Hext.compose_calls <= 20)

let test_hier_wirelist_output () =
  let d = design_of (Ace_workloads.Chips.four_inverters ()) in
  let hier, _ = Ace_hext.Hext.extract d in
  check "hierarchy validates" true (Hier.validate hier = []);
  let text = Hier.to_string hier in
  let hier' = Hier.of_string text in
  check "round-trips" true
    (Tutil.circuit_equal ~with_sizes:true (Hier.flatten hier) (Hier.flatten hier'));
  check "matches flat" true
    (Tutil.circuit_equal ~with_sizes:true (Hier.flatten hier) (flat d))

let hext_cached ~cache design = Ace_hext.Hext.extract_flat ~cache design

let test_incremental_cache () =
  (* extract a datapath, then re-extract an edited version through the same
     cache: only the windows touched by the edit are re-analyzed *)
  let base = Ace_workloads.Chips.datapath ~bits:6 ~stages:8 () in
  let edited =
    {
      base with
      Ace_cif.Ast.top_level =
        base.Ace_cif.Ast.top_level
        @ [
            (* a decorative metal stub on one slice's rail *)
            Tutil.element_of_box Layer.Metal
              (Box.make ~l:1000 ~b:5000 ~r:1500 ~t:5750);
          ];
    }
  in
  let cache = Ace_hext.Hext.create_cache () in
  let c1, s1 = hext_cached ~cache (design_of base) in
  let c2, s2 = hext_cached ~cache (design_of edited) in
  check "cold run did real work" true (s1.Ace_hext.Hext.leaf_extractions > 0);
  check "warm run re-extracts almost nothing" true
    (s2.Ace_hext.Hext.leaf_extractions <= 4);
  check "warm run correct" true
    (Tutil.circuit_equal ~with_sizes:true (flat (design_of edited)) c2);
  check "base still correct" true
    (Tutil.circuit_equal ~with_sizes:true (flat (design_of base)) c1);
  (* unchanged design through the warm cache: zero extraction work *)
  let _, s3 = hext_cached ~cache (design_of base) in
  check_int "identical re-run extracts nothing" 0
    s3.Ace_hext.Hext.leaf_extractions;
  check_int "identical re-run composes nothing" 0 s3.Ace_hext.Hext.compose_calls

(* Regression cases found by randomized search (see EXPERIMENTS.md):
   1. abutting contact cuts from two mirrored instances merge into one
      bridging interval that a window seam must not sever;
   2. a transistor with three contact edges, two tied in length, where
      flat and hierarchical extraction must break the tie identically;
   3. tied contacts whose minimal edge positions coincide at a corner,
      where the edge-side code decides. *)
let regression_cases =
  [
    ( "abutting cuts across a seam",
      "DS 1 1 1; L ND; B 10 5 10 9; L NP; B 10 5 10 5; L NC; B 7 1 3 4; DF; \
       C 1 M X T 0 41; C 1 T 0 41; E" );
    ( "tied contact lengths",
      "DS 1 1 1; DF; DS 2 1 1; L NP; B 3 6 20 18; DF; DS 3 1 1; L ND; B 9 1 \
       17 14; L ND; B 1 11 16 10; L NP; B 3 9 21 11; L ND; B 9 2 15 9; DF; C \
       2 M X T 51 11; C 2 M X T 30 36; C 3 R 0 1 T 40 15; C 2 R 0 1 T 52 39; \
       L NM; B 5 1 76 78; L NP; B 7 11 41 58; E" );
    ( "corner-coincident tie positions",
      "DS 1 1 1; L NP; B 11 1 15 9; DF; DS 3 1 1; L NP; B 9 5 14 11; L ND; B \
       5 5 20 11; L NC; B 2 5 4 10; DF; C 1 T 32 47; C 3 R -1 0 T 12 60; C 1 \
       M X T 8 38; C 3 R 0 1 T 7 26; L NP; B 2 6 29 51; E" );
    ( "phantom-free conductor-less boundary cuts",
      (* abutting huge cuts from mirrored instances, one side's piece
         touching conductors only in some strips: a phantom bridge element
         would transitively merge nets the flat extractor keeps apart *)
      "DS 2 1 1; L NC; B 9 8 8 9; L NP; B 10 5 13 6; L NP; B 7 3 11 15; L \
       ND; B 5 12 16 12; L NP; B 5 6 9 15; DF; C 2 T 40 39; C 2 M X T 48 \
       41; E" );
    ( "label outside its instance's geometry",
      (* the rotated instance's label names geometry provided by the other
         instance; the label must stay inside its instance's bounding box
         under rotation or partitioning strands it *)
      "DS 3 1 1; L ND; B 12 11 9 17; 94 S2_1 22 1; DF; C 3 R 0 1 T 18 12; C \
       3 R 0 1 T 40 30; E" );
  ]

let test_regressions () =
  List.iter
    (fun (name, cif) ->
      let design = design_of (Ace_cif.Parser.parse_string cif) in
      check name true (agree design);
      check (name ^ " (names)") true
        (Ace_lvs.Match.exact ~with_sizes:true ~with_names:true (flat design)
           (fst (hext design))
        = Ace_lvs.Match.Equivalent);
      check (name ^ " (tiny leaves)") true (agree ~leaf_limit:3 design);
      (* the baselines must agree on the same layouts *)
      check (name ^ " (raster)") true
        (Tutil.circuit_equal ~with_sizes:true (flat design)
           (Ace_baseline.Raster.extract ~grid:1 design));
      check (name ^ " (region)") true
        (Tutil.circuit_equal ~with_sizes:true (flat design)
           (Ace_baseline.Region.extract design)))
    regression_cases

let prop_random_designs =
  Tutil.qtest ~count:150 "HEXT equals flat extraction on random hierarchies"
    Tutil.gen_design
    (fun file ->
      match design_of file with
      | exception Ace_cif.Design.Semantic_error _ -> true
      | design ->
          Tutil.circuit_equal ~with_sizes:true (flat design)
            (fst (hext design)))

let prop_random_designs_tiny_leaves =
  Tutil.qtest ~count:75 "HEXT with tiny leaves equals flat extraction"
    Tutil.gen_design
    (fun file ->
      match design_of file with
      | exception Ace_cif.Design.Semantic_error _ -> true
      | design ->
          Tutil.circuit_equal ~with_sizes:true (flat design)
            (fst (hext ~leaf_limit:3 design)))

let prop_random_designs_with_names =
  (* labels must attach to equivalent nets on both paths, even when the
     labelled point sits next to a window seam *)
  Tutil.qtest ~count:100 "HEXT attaches net names like the flat extractor"
    Tutil.gen_design
    (fun file ->
      match design_of file with
      | exception Ace_cif.Design.Semantic_error _ -> true
      | design ->
          Ace_lvs.Match.exact ~with_sizes:true ~with_names:true (flat design)
            (fst (hext design))
          = Ace_lvs.Match.Equivalent)

let prop_random_flat_layouts =
  Tutil.qtest ~count:100 "HEXT on flat layouts equals scanline"
    (Tutil.gen_layout ~extent:60 ~max_boxes:40 ())
    (fun layout ->
      let file =
        {
          Ace_cif.Ast.symbols = [];
          top_level = List.map (fun (l, b) -> Tutil.element_of_box l b) layout;
        }
      in
      let design = design_of file in
      Tutil.circuit_equal ~with_sizes:true
        (Ace_core.Extractor.extract design)
        (fst (hext ~leaf_limit:6 design)))

let () =
  Alcotest.run "hext"
    [
      ( "content",
        [
          Alcotest.test_case "canonical translation" `Quick test_canonical_translation;
          Alcotest.test_case "cuts avoid contacts" `Quick test_cut_avoids_contacts;
          Alcotest.test_case "split clips" `Quick test_split_clips_geometry;
        ] );
      ( "fragment",
        [
          Alcotest.test_case "net across seam" `Quick test_compose_net_across_seam;
          Alcotest.test_case "partial transistor" `Quick test_compose_partial_transistor;
        ] );
      ( "equivalence",
        [
          Alcotest.test_case "workloads" `Quick test_workload_equivalence;
          Alcotest.test_case "small leaf limit" `Quick test_small_leaf_limit;
          Alcotest.test_case "memoize off" `Quick test_memoize_off_same_answer;
          Alcotest.test_case "ideal array stats" `Quick test_ideal_array_stats;
          Alcotest.test_case "hier wirelist output" `Quick test_hier_wirelist_output;
          Alcotest.test_case "incremental cache" `Quick test_incremental_cache;
          Alcotest.test_case "regressions" `Quick test_regressions;
          prop_random_designs;
          prop_random_designs_tiny_leaves;
          prop_random_designs_with_names;
          prop_random_flat_layouts;
        ] );
    ]
