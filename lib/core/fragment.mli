open Ace_geom
open Ace_tech
open Ace_netlist

(** Extracted window fragments and the compose routine (HEXT §3 back-end).

    A fragment is the circuit of one (origin-normalized) window: a
    {!Ace_netlist.Hier.part} holding its completed transistors and child
    references, plus the compose-facing summary — the {e interface}
    (conducting-layer boundary crossings with their local net ids) and the
    {e partial transistors} whose channels touch the boundary.

    [compose] merges two abutting fragments: it unifies nets across
    touching boundary spans, knits partial-transistor pieces (summing
    channel area and edge contacts, adding the source/drain contact that
    lies exactly on the seam), completes partials that no longer touch any
    open face, and builds the composed part — which stores only {e
    references} to its children plus net equivalences, never a copy
    (paper: "the resulting new window … simply stores pointers").  Its
    cost is proportional to the two interfaces, not to the children's
    contents — the property behind HEXT's O(√N) ideal-array behaviour.

    This module lives in [Ace_core] (not [Ace_hext]) so that both the
    hierarchical extractor and the domain-parallel sharded extractor
    ({!Parallel}) can stitch window wirelists with the same code. *)

type partial = {
  p_area : int;
  p_implant : int;
  p_bbox : Box.t;  (** fragment-local *)
  p_gate : int;  (** local net *)
  p_contacts : (int * int * Point.t * int) list;
      (** (local net, edge length, minimal edge position in fragment
          coordinates, edge side) — used for deterministic terminal
          tie-breaks *)
  p_spans : (Engine.face * Interval.span) list;
      (** open boundary crossings, fragment-local *)
}

type iface_span = {
  face : Engine.face;
  span : Interval.span;
  layer : Layer.t;
  net : int;  (** local net *)
}

type t = {
  id : int;
  width : int;
  height : int;
  part : Hier.part;
  iface : iface_span list;
  partials : partial list;
}

(** A device completed inside a part (a leaf, or a compose) is sized there
    from the part's nets.  When two of its contact nets are exported, they
    may be one net that joins only through a part composed later (a source
    diffusion cut in two by a window's clip), and the flat extractor sums
    their edges into one terminal.  Such a device's size is provisional:
    it keeps its contacts over the part's nets, so a caller that flattens
    the hierarchy can size it again over flat nets ({!size_contacts}). *)
type resize = {
  r_index : int;  (** position in the part's device list *)
  r_area : int;  (** channel area *)
  r_contacts : (int * int * Point.t * int) list;
      (** (part-local net, edge length, minimal edge position, edge side) *)
}

(** [size_contacts ~resolve ~gate ~area contacts] is the (source, drain,
    width, length) of a channel of [area] gated by net [gate], whose
    [contacts] are (net, edge length, minimal edge position, edge side).
    Each contact net is renamed through [resolve]; contacts that land on
    one net merge (summed length, minimal {!Engine.edge_key_less} key)
    before the ACE §3 rule of {!Extractor.channel_terminals}. *)
val size_contacts :
  resolve:(int -> int) ->
  gate:int ->
  area:int ->
  (int * int * Point.t * int) list ->
  int * int * int * int

(** Build a leaf fragment from an {e already computed} window-mode engine
    result for [window].  This is the piece {!leaf} and the parallel
    extractor share: the caller keeps control of how the engine ran (own
    source, own timing) and this routine turns boundary crossings into the
    fragment interface.  [dense] is [Union_find.compress raw.nets], which
    numbers the part's nets; the caller compresses once and may read it
    too.  [next_id] names the part ("W<id>").  The part's devices are
    the complete ones (no window face touched), by location (the bbox's
    lower-left corner, y then x), ties in reverse [raw.devices] order.
    Also returns the devices whose size is provisional, in that order. *)
val leaf_of_raw :
  next_id:int -> window:Box.t -> dense:int array -> Engine.raw -> t * resize list

(** Build a leaf fragment by running the scanline engine over a window's
    geometry (window mode).  [next_id] names the part ("W<id>"). *)
val leaf :
  next_id:int ->
  window:Box.t ->
  boxes:(Layer.t * Box.t) list ->
  labels:Ace_cif.Design.label list ->
  t

(** [compose ~next_id a b ~offset] — [b] placed at [offset] from [a]'s
    origin; requires a guillotine adjacency: either [offset = (a.width, 0)]
    with equal heights, or [offset = (0, a.height)] with equal widths. *)
val compose : next_id:int -> t -> t -> offset:Point.t -> t

(** [compose_ext] is {!compose} plus the devices it completed whose size
    is provisional, in the order of the part's devices, as {!leaf_of_raw}
    returns them for a leaf. *)
val compose_ext : next_id:int -> t -> t -> offset:Point.t -> t * resize list

(** Wrap the root fragment, force-completing any partials still open at
    the chip boundary; returns the top part. *)
val finalize : next_id:int -> t -> Hier.part
