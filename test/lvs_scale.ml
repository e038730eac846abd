(* lvs_scale — an at-scale LVS golden.

   The SARIF goldens compare cells of at most about twenty devices, so
   the long incidence lists of rail nets, deep color histories and large
   localization buckets never occur there.  This program runs three
   comparisons on generated paper chips that do exercise them, and prints
   everything the comparator decides: verdict, stats, every finding, and
   a digest of the final refinement colors of both sides.  The dune rule
   diffs the output against lvs_scale.expected, so any change to a color,
   a round count or a localization pairing shows up as a diff.

     schip2@0.1   against its own SPICE deck minus the middle M card
     riscb@0.1    against its own SPICE deck (clean)
     testram@0.25 hierarchical, against its hierarchical SPICE deck

   The testram section also prints digests of the parsed reference (the
   flat circuit re-serialized as SPICE, and the hierarchical view), which
   pin the reference parser's net numbering. *)

open Ace_netlist
module Lvs = Ace_lvs

let design name scale =
  let r =
    List.find
      (fun (r : Ace_workloads.Chips.recipe) -> r.chip_name = name)
      Ace_workloads.Chips.paper_suite
  in
  r.build ~scale

let md5 s = Digest.to_hex (Digest.string s)

(* The same card the end-to-end benchmark drops: the middle M line. *)
let drop_middle_card deck =
  let lines = String.split_on_char '\n' deck in
  let cards =
    List.filter_map
      (fun (i, l) -> if String.starts_with ~prefix:"M" l then Some i else None)
      (List.mapi (fun i l -> (i, l)) lines)
  in
  let victim = List.nth cards (List.length cards / 2) in
  String.concat "\n" (List.filteri (fun i _ -> i <> victim) lines)

let load_ref deck =
  match Lvs.Reference.load ~name:"reference" deck with
  | Ok (c, _) -> c
  | Error d -> failwith ("unreadable deck: " ^ d.Ace_diag.Diag.message)

let outcome_name = function
  | Lvs.Match.Clean -> "clean"
  | Lvs.Match.Mismatch -> "mismatch"
  | Lvs.Match.Inconclusive -> "inconclusive"

let print_result (r : Lvs.Match.result) =
  let s = r.Lvs.Match.stats in
  Printf.printf "outcome %s\n" (outcome_name r.Lvs.Match.outcome);
  Printf.printf
    "stats layout_devices=%d ref_devices=%d layout_nets=%d ref_nets=%d \
     reductions=%d rounds=%d matched=%d\n"
    s.layout_devices s.ref_devices s.layout_nets s.ref_nets s.reductions
    s.rounds s.matched;
  List.iter
    (fun (f : Lvs.Match.finding) ->
      Printf.printf "finding %s %s anchor=%s net=%s fp=%s\n  %s\n" f.code
        (Ace_diag.Diag.severity_to_string f.severity)
        f.anchor
        (match f.layout_net with Some n -> string_of_int n | None -> "-")
        (Lvs.Report.fingerprint f) f.message)
    r.Lvs.Match.findings

let colors_digest cols =
  md5
    (String.concat ";"
       (List.map (fun (n, c) -> Printf.sprintf "%d:%d" n c) cols))

let flat name layout deck =
  Printf.printf "== %s ==\n" name;
  let reference = load_ref deck in
  let r, ca, cb = Lvs.Match.run_full ~layout ~reference () in
  print_result r;
  Printf.printf "colors layout=%s reference=%s\n" (colors_digest ca)
    (colors_digest cb)

let view_digest (v : Lvs.Reference.hview) =
  let b = Buffer.create 4096 in
  Buffer.add_string b (Spice.to_string v.hv_glue);
  Array.iter
    (fun (c : Lvs.Reference.hcell) ->
      Buffer.add_string b
        (Printf.sprintf "cell %s %d [%s] [%s]\n" c.hc_name c.hc_formals
           (String.concat " " c.hc_pins)
           (String.concat " "
              (Array.to_list (Array.map string_of_int c.hc_pin_nets))));
      Buffer.add_string b (Spice.to_string c.hc_body))
    v.hv_cells;
  List.iter
    (fun (i : Lvs.Reference.hinst) ->
      Buffer.add_string b
        (Printf.sprintf "inst %d [%s]\n" i.hi_cell
           (String.concat " "
              (Array.to_list (Array.map string_of_int i.hi_nets)))))
    v.hv_insts;
  md5 (Buffer.contents b)

let hier name (layout : Hier.t) =
  Printf.printf "== %s ==\n" name;
  let deck = Spice.of_hier layout in
  let reference = load_ref deck in
  let ref_view = Lvs.Reference.hier_view ~name:"reference" deck in
  Printf.printf "reference flat=%s view=%s\n"
    (md5 (Spice.to_string reference))
    (match ref_view with Some v -> view_digest v | None -> "none");
  let h = Lvs.Hier.run ~layout ~reference ?ref_view () in
  Printf.printf "hier cell_matches=%d cell_hits=%d fallback=%b\n"
    h.cell_matches h.cell_hits h.fallback;
  print_result h.r

let () =
  let extract name scale =
    Ace_core.Extractor.extract ~name (design name scale)
  in
  let schip2 = extract "schip2" 0.1 in
  flat "schip2@0.1 drop" schip2
    (drop_middle_card (Spice.to_string schip2));
  let riscb = extract "riscb" 0.1 in
  flat "riscb@0.1" riscb (Spice.to_string riscb);
  hier "testram@0.25 hier" (fst (Ace_hext.Hext.extract (design "testram" 0.25)))
