open Ace_geom
open Ace_tech
open Ace_netlist

(** The edge-based scanline engine — the algorithm of ACE §3.

    A scanline moves from the top of the chip to the bottom, pausing at
    every y where a box top or bottom occurs.  Between consecutive stops the
    mask state is constant, so the chip decomposes into horizontal strips;
    within each strip the engine maintains merged per-layer x-interval
    lists, assigns nets (union-find) by overlap with the previous strip,
    applies the NMOS contact and buried-contact rules, and tracks transistor
    channels (diffusion ∧ poly ∧ ¬buried) as components with accumulated
    area and per-net source/drain edge-contact lengths.

    The engine is shared by the flat extractor and by HEXT's leaf-window
    back-end: run with a [window], it additionally records every conducting
    interval and channel that touches the window boundary (the "interface"
    of HEXT §3). *)

(** Pull-source of geometry sorted by descending top edge. *)
type source = {
  peek : unit -> int option;  (** top y of the next box, if any *)
  pop : int -> (Layer.t * Box.t) list;  (** all boxes with that exact top *)
}

(** Source from ACE's lazy front-end.  [cancel] is checked on every pop,
    before the stream expands the next batch of symbols. *)
val source_of_stream : ?cancel:Cancel.t -> Ace_cif.Stream.t -> source

(** Source from a pre-flattened box list (stable-sorts it first:
    descending top, input order at equal tops). *)
val source_of_boxes : (Layer.t * Box.t) list -> source

(** [source_clipped src ~window] clips a sorted source to [window] {e
    lazily}: stops at or above the window top pool into a single stop at
    [window.t] (their clipped tops all land there); stops inside the
    window pass through with each box clipped; the underlying source is
    never pulled below the window bottom.  Peak buffered geometry is the
    clipped population crossing the window's top edge — proportional to
    the scanline, never to the window contents.  [run] applies this
    automatically when [config.window] is set. *)
val source_clipped : source -> window:Box.t -> source

(** Edge-side codes carried in {!device_data.contacts}: the adjacent net
    lies below/above the channel (horizontal edge) or left/right of it
    (vertical edge). *)
val side_below : int

val side_above : int
val side_left : int
val side_right : int

(** Lexicographic order on (position, side) keys. *)
val edge_key_less : Point.t * int -> Point.t * int -> bool

(** [edge_key_lt x1 y1 s1 x2 y2 s2] is [edge_key_less] on unboxed keys:
    y, then x, then side. *)
val edge_key_lt : int -> int -> int -> int -> int -> int -> bool

type face = West | East | South | North

(** A conducting-layer crossing of the window boundary: on [West]/[East]
    the span is a y-range, on [South]/[North] an x-range. *)
type boundary_span = {
  bface : face;
  bspan : Interval.span;
  blayer : Layer.t;
  bnet : int;  (** net element (pre-compression) *)
}

(** A channel crossing of the window boundary, tagged with its device
    component root (matching the keys of {!raw.devices}). *)
type boundary_channel = {
  cface : face;
  cspan : Interval.span;
  cdev : int;
}

type config = {
  emit_geometry : bool;  (** keep per-net and per-device box lists *)
  window : Box.t option;  (** record boundary crossings against this box *)
}

val default_config : config

(** Aggregated data of one channel component (a transistor, possibly
    partial when it touches the window boundary). *)
type device_data = {
  area : int;  (** channel area, centimicrons² *)
  implant_area : int;  (** area also covered by implant *)
  bbox : Box.t;
  gate : int;  (** gate net element *)
  contacts : (int * int * Point.t * int) list;
      (** (adjacent net element, edge length, minimal edge position, edge
          side code) — position and side make source/drain selection
          deterministic when two contacts tie in length; see
          {!side_below} *)
  channel_geometry : Box.t list;  (** populated when [emit_geometry] *)
  touches_boundary : bool;
}

(** Raw extraction result, before net compression. *)
type raw = {
  nets : Union_find.t;  (** net elements; classes are electrical nets *)
  net_names : (int * string) list;  (** label attachments *)
  net_x : int array;
  net_y : int array;
      (** per element, its creation point (x = span lo, y = top of the
          strip where the element first appeared); slots
          [\[0, Union_find.count nets)] are meaningful, the arrays may be
          longer.  The strip top at creation is the (clipped) transition
          y of the geometry itself, so it is independent of how the rest
          of the chip partitions the scan — a window-mode run over a tile
          records the same point the flat scan does for any element whose
          creation lies inside the window. *)
  net_phase : int array;
      (** per element, its creation phase within its strip: 0 =
          diffusion, 1 = poly, 2 = metal — the order the engine runs net
          assignment.  [(y desc, phase asc, x asc)] over creation records
          is exactly element-creation order, which lets the parallel
          extractor reconstruct the flat extractor's net numbering from
          per-tile scans (see {!Parallel}). *)
  net_geometry : (int, (Layer.t * Box.t) list) Hashtbl.t;
  devices : (int * device_data) list;  (** (device element root, data) *)
  boundary_nets : boundary_span list;
  boundary_channels : boundary_channel list;
  warnings : string list;
  stops : int;  (** scanline stops made *)
  max_active : int;  (** peak boxes intersecting the scanline *)
  timing : Timing.t;
}

(** Run the scanline over a source.  [labels] must be sorted by decreasing
    y (as {!Ace_cif.Stream.labels} returns them).  [cancel] (default
    {!Cancel.never}) is checked at every scanline stop — both before the
    front-end pop and before the strip is processed — so a tripped token
    raises {!Cancel.Cancelled} within one strip of work. *)
val run :
  ?cancel:Cancel.t -> config -> source -> labels:Ace_cif.Design.label list -> raw
