module Diag = Ace_diag.Diag

let to_diag (f : Match.finding) =
  Diag.make f.Match.severity ~code:f.Match.code f.Match.message

(* The same FNV-1a Ace_lint.Finding uses, over the comparator's stable
   anchor tokens. *)
let fingerprint (f : Match.finding) =
  Ace_diag.Fnv.hex64
    (String.concat "|" [ "lvs"; f.Match.code; f.Match.anchor ])

(* One entry per stable code: comparator verdict codes first, then the
   lenient reference-parser codes.  Levels are the default severities. *)
let rules =
  [
    ("lvs-device-count", "device counts differ after reduction", "error");
    ("lvs-net-count", "connected net counts differ", "error");
    ("lvs-extra-device", "layout transistor with no reference counterpart", "error");
    ("lvs-missing-device", "reference transistor with no layout counterpart", "error");
    ("lvs-dup-device", "parallel multiplicity differs between layout and reference", "error");
    ("lvs-net-split", "one reference net corresponds to several layout nets", "error");
    ("lvs-net-merge", "one layout net matches several reference nets", "error");
    ("lvs-size-mismatch", "transistor L/W differs beyond tolerance", "error");
    ("lvs-topology", "connectivity differs with equal counts", "error");
    ("lvs-inconclusive", "comparison could not be decided", "warning");
    ("lvs-ref-bad-card", "malformed card in the reference netlist", "error");
    ("lvs-ref-bad-device", "malformed transistor card", "error");
    ("lvs-ref-bad-number", "unparsable dimension value", "error");
    ("lvs-ref-unknown-model", "unknown device model treated as enhancement", "note");
    ("lvs-ref-unknown-card", "unknown control card ignored", "note");
    ("lvs-ref-ignored-card", "non-transistor element ignored", "note");
    ("lvs-ref-undefined-subckt", "instance of an undefined subcircuit", "error");
    ("lvs-ref-pin-mismatch", "instance pin count differs from the definition", "error");
    ("lvs-ref-recursive", "recursive subcircuit expansion", "error");
    ("lvs-ref-unmatched-ends", ".ENDS without a matching .SUBCKT", "error");
    ("lvs-ref-unterminated-subckt", ".SUBCKT never closed", "error");
    ("lvs-ref-too-large", "flattened netlist exceeds the device limit", "error");
    ("lvs-ref-verilog-syntax", "unparsable structural-Verilog statement", "error");
    ("lvs-ref-bad-portmap", "malformed instance port map", "error");
    ("lvs-ref-unknown-primitive", "unknown gate primitive ignored", "error");
    ("lvs-cell-mismatch", "a layout cell does not match its reference subcircuit", "error");
    ("lvs-cell-unmatched", "a layout cell has no candidate reference subcircuit", "note");
  ]

let sarif_rules () =
  List.map
    (fun (id, summary, level) ->
      { Ace_diag.Sarif.id; summary; help = ""; level })
    rules
