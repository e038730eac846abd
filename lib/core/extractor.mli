open Ace_geom
open Ace_tech
open Ace_netlist

(** ACE — the flat edge-based circuit extractor (public entry points).

    [extract] runs the full pipeline of the paper: the lazy front-end
    ({!Ace_cif.Stream}) feeds sorted geometry to the scanline back-end
    ({!Engine}), and the raw result is resolved into a {!Circuit.t}
    wirelist.  Transistor sizing follows ACE §3: the width is the mean of
    the source-edge and drain-edge contact lengths, the length is the
    channel area divided by the width. *)

type stats = {
  boxes : int;  (** primitive boxes processed (the papers' N) *)
  stops : int;  (** scanline stops *)
  max_active : int;  (** peak scanline population *)
  timing : Timing.t;
  warnings : Ace_diag.Diag.t list;
      (** scanline anomalies, as structured diagnostics (code
          ["extract-anomaly"], no source span) *)
}

(** Extract a parsed-and-checked design.  [emit_geometry] populates per-net
    and per-device geometry (the paper's user option, default off).  [name]
    is the wirelist part name.  [cancel] is checked at every stream pop
    and scanline stop; a tripped token raises {!Cancel.Cancelled}. *)
val extract :
  ?cancel:Cancel.t ->
  ?emit_geometry:bool ->
  ?name:string ->
  Ace_cif.Design.t ->
  Circuit.t

(** Same, returning run statistics alongside. *)
val extract_with_stats :
  ?cancel:Cancel.t ->
  ?emit_geometry:bool ->
  ?name:string ->
  Ace_cif.Design.t ->
  Circuit.t * stats

(** Extract a pre-flattened box list (used by tests and by HEXT's window
    back-end; bypasses the lazy front-end). *)
val extract_boxes :
  ?emit_geometry:bool ->
  ?name:string ->
  ?labels:Ace_cif.Design.label list ->
  (Layer.t * Box.t) list ->
  Circuit.t

(** Resolve an {!Engine.raw} result into a circuit.  Exposed for HEXT.
    [include_partial] keeps boundary-touching channels as devices (flat
    extraction wants [true]; HEXT separates them). *)
val circuit_of_raw :
  name:string -> include_partial:bool -> Engine.raw -> Circuit.t

(** Parse, check and extract a CIF string in one step. *)
val extract_cif_string : ?emit_geometry:bool -> ?name:string -> string -> Circuit.t

(** The transistor sizing rule of ACE §3, shared with HEXT's partial-device
    completion: terminals are the two largest edge contacts, W is their
    mean, L is area/W; length ties are broken by the contact edge's
    geometric position ({!Engine.edge_key_lt}) so every extractor picks
    the same terminals, and on a full tie the contact listed first wins.
    One scan, no sort.  Returns (source, drain, width, length); a device
    with a single adjacent net has source = drain; a floating channel
    gets source = drain = gate and a √area fallback width. *)
val channel_terminals :
  gate:int ->
  area:int ->
  contacts:(int * int * Point.t * int) list ->
  int * int * int * int
