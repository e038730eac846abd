open Ace_netlist

(** The LVS reference-netlist front end: a lenient SPICE-ish structural
    parser.

    The input dialect is the subset every schematic-capture flow can emit
    (and that {!Ace_netlist.Spice} itself produces): [M] transistor cards,
    [.SUBCKT]/[.ENDS] definitions with [X] instance cards, [.MODEL] cards
    deciding enhancement vs depletion, [.GLOBAL], [*] comments and [+]
    continuation lines.  Parsing is lenient in the {!Ace_diag} sense: it
    never raises, every problem becomes a diagnostic with a byte span and
    a stable [lvs-ref-*] code, and a circuit is always produced from
    whatever was readable.

    The output is the same flat {!Circuit.t} shape the extractor emits, so
    the comparator ({!Match}) and the existing wirelist machinery consume
    reference netlists and extracted layouts identically. *)

(** {1 Expansion budgets}

    Both reference readers ({!parse}, {!hier_view} and {!Verilog.parse})
    stop flattening at the first device past [max_devices] (1,000,000)
    or the first instance activation past [max_instances] (2,000,000).
    A deck with more than two activations per device reaches the
    instance cap first: HEXT's SPICE decks carry up to three (psc:
    75,495 activations for 25,453 devices), so a HEXT-style deck above
    about 667,000 devices is truncated with [lvs-ref-too-large] although
    it is under the device cap. *)

val max_devices : int
val max_instances : int

(** [too_large span what] is the [lvs-ref-too-large] error a reader puts
    on the first device ([`Devices]) or instance ([`Instances]) past its
    cap. *)
val too_large :
  Ace_diag.Diag.span -> [ `Devices | `Instances ] -> Ace_diag.Diag.t

(** [parse ?name ?gnd text] — [gnd] (default ["GND"]) is the net that
    SPICE node [0] aliases.  Net and model names are case-insensitive;
    devices missing [L=]/[W=] get 0 (meaning "unknown", skipped by size
    comparison).  Dimension suffixes: [U] microns, [N] nanometers, [M]
    millimeters; bare numbers are centimicrons.  The flattened circuit
    keeps the first 1,000,000 devices and expands at most 2,000,000
    instances: expansion stops at the next device or instance, which
    carries an [lvs-ref-too-large] error, and no card after it adds nets
    or diagnostics. *)
val parse :
  ?name:string -> ?gnd:string -> string -> Circuit.t * Ace_diag.Diag.t list

(** [load ?name ?gnd text] sniffs the format: text starting with
    [(DefPart] is read as a CMU wirelist (strict, one [wirelist-error]
    diagnostic on failure), anything else goes through {!parse}. *)
val load :
  ?name:string ->
  ?gnd:string ->
  string ->
  (Circuit.t * Ace_diag.Diag.t list, Ace_diag.Diag.t) result

(** {1 Hierarchical view}

    The same deck, read without flattening the top level: each subckt
    instantiated at the top becomes a cell body circuit, and the top
    becomes a glue circuit plus a list of cell instances.  {!Hier} feeds
    this to the cell-summary comparison. *)

type hcell = {
  hc_name : string;  (** uppercased subckt name *)
  hc_pins : string list;
      (** uppercased formal pins, then implicit pins (globals and ground
          referenced in the body), in first-use order *)
  hc_formals : int;  (** how many of [hc_pins] are formals *)
  hc_body : Circuit.t;
      (** the flattened cell interior (nested subckts expanded) *)
  hc_pin_nets : int array;  (** body net per pin, aligned with [hc_pins] *)
}

type hinst = {
  hi_cell : int;  (** index into [hv_cells] *)
  hi_nets : int array;  (** glue net per pin, aligned with [hc_pins] *)
}

type hview = {
  hv_glue : Circuit.t;  (** top-level devices and nets only *)
  hv_cells : hcell array;
  hv_insts : hinst list;
}

val hier_view : ?name:string -> ?gnd:string -> string -> hview option
(** [None] when the deck is flat (no top-level instances), has any
    first-pass parse error, or hits an obstruction (undefined subckt, pin
    arity mismatch, recursion, size cap) — the caller falls back to the
    flat compare, which owns diagnostics.  Flattening [hv_glue] with
    every instance's cell body substituted yields exactly the circuit
    {!parse} produces (up to net numbering) when top-level instance
    names differ beyond case and no top-level node name contains '/'.
    Otherwise {!parse} can give two instances, or an instance and a
    top-level node, one net key where the view keeps them apart.  The
    expansion is checked before anything is built: an obstructed deck,
    or one whose cells together pass the 1,000,000-device or the
    2,000,000-instance cap, costs one pass over its cards. *)

val load_view :
  ?name:string ->
  ?gnd:string ->
  string ->
  (Circuit.t * Ace_diag.Diag.t list, Ace_diag.Diag.t) result * hview option
(** [load_view ?name ?gnd text] is [load ?name ?gnd text] with, when that
    succeeds, [hier_view ?name ?gnd text]; a SPICE deck is read once for
    both.  The two stages keep their [lvs.reference] and [lvs.hier_view]
    trace spans. *)
