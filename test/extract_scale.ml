(* extract_scale — an at-scale extraction golden.

   The per-layout goldens under data/ hold a few dozen devices at most,
   so the engine's device fold, the net ordering of circuit_of_raw and the
   wirelist writer never see a large chip there.  This program extracts
   the seven paper chips at scale 0.1 and prints, per chip, everything
   those stages decide: device and net counts, digests of the plain
   wirelist, the wirelist with geometry and the SPICE deck, the scanline
   statistics, the work counters of the plain run (symbol expansions on a
   line of their own) and HEXT's leaf and compose counts.  The dune rule
   diffs the output against extract_scale.expected, so a reordered net,
   a moved terminal, one extra union-find lookup or a changed byte of
   output shows up as a diff.

   Two small hand-made layouts follow the chips.  A U-shaped channel is
   one transistor made of two union-find elements, so its bounding box,
   gate and -g channel geometry are folded across elements.  An
   asymmetric transistor has two equal-length contacts whose edge sets
   interleave in position, so its source/drain choice depends on each
   contact keeping its minimal edge key. *)

open Ace_netlist
module Trace = Ace_trace.Trace

let md5 s = Digest.to_hex (Digest.string s)

let counters =
  Trace.Counter.[ Uf_finds; Uf_unions; Net_merges; Transistors; Boxes_popped ]

let chip (r : Ace_workloads.Chips.recipe) =
  let name = r.chip_name in
  let design = r.build ~scale:0.1 in
  let before = Trace.counter_totals () in
  let circuit, st = Ace_core.Extractor.extract_with_stats ~name design in
  let after = Trace.counter_totals () in
  let geometry = Ace_core.Extractor.extract ~emit_geometry:true ~name design in
  let tiled = Ace_core.Parallel.extract ~tile:(4, 2) ~name design in
  let wirelist = Wirelist.to_string circuit in
  Printf.printf "== %s@0.1 ==\n" name;
  Printf.printf "devices=%d nets=%d stops=%d max_active=%d\n"
    (Array.length circuit.Circuit.devices)
    (Array.length circuit.Circuit.nets)
    st.stops st.max_active;
  Printf.printf "wirelist=%s\n" (md5 wirelist);
  Printf.printf "geometry=%s\n"
    (md5 (Wirelist.to_string ~emit_geometry:true geometry));
  Printf.printf "spice=%s\n" (md5 (Spice.to_string circuit));
  Printf.printf "tiled_4x2=%s\n"
    (if Wirelist.to_string tiled = wirelist then "same" else "DIFFERS");
  Printf.printf "counters %s\n"
    (String.concat " "
       (List.map
          (fun c ->
            Printf.sprintf "%s=%d" (Trace.Counter.slug c)
              (List.assoc c after - List.assoc c before))
          counters));
  Printf.printf "counters expansions=%d\n"
    (List.assoc Trace.Counter.Expansions after
    - List.assoc Trace.Counter.Expansions before);
  let _, hext = Ace_hext.Hext.extract design in
  Printf.printf "hext leaf_extractions=%d compose_calls=%d\n"
    hext.Ace_hext.Hext.leaf_extractions hext.compose_calls

let box l b r t = Ace_geom.Box.make ~l ~b ~r ~t

let synthetic name boxes =
  let plain = Ace_core.Extractor.extract_boxes ~name boxes in
  let geometry =
    Ace_core.Extractor.extract_boxes ~emit_geometry:true ~name boxes
  in
  Printf.printf "== %s ==\n" name;
  Array.iteri
    (fun i (d : Circuit.device) ->
      Printf.printf "D%d at (%d,%d) gate=N%d source=N%d drain=N%d W=%d L=%d\n" i
        d.location.Ace_geom.Point.x d.location.Ace_geom.Point.y d.gate d.source
        d.drain d.width d.length)
    plain.Circuit.devices;
  Printf.printf "wirelist=%s\n" (md5 (Wirelist.to_string plain));
  Printf.printf "geometry=%s\n"
    (md5 (Wirelist.to_string ~emit_geometry:true geometry))

let () =
  List.iter chip Ace_workloads.Chips.paper_suite;
  let open Ace_tech.Layer in
  synthetic "u-channel"
    [
      (Poly, box 0 0 30 20);
      (Diffusion, box 0 0 4 30);
      (Diffusion, box 26 0 30 30);
      (Diffusion, box 0 0 30 4);
    ];
  synthetic "interleaved-edges"
    [
      (Poly, box 10 0 18 12);
      (Diffusion, box 10 0 18 12);
      (Diffusion, box 0 0 10 4);
      (Diffusion, box 0 0 4 16);
      (Diffusion, box 0 12 17 16);
      (Diffusion, box 18 1 28 12);
    ]
