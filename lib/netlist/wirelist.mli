open Ace_geom
open Ace_tech

(** The CMU hierarchical wirelist format (Frank/Ebeling/Sproull, V085) —
    flat-circuit reader and writer.

    Reproduces the exact shape of the paper's Figure 3-4:

    {v
    (DefPart "inverter.cif"
    (DefPart nEnh (Export Source Gate Drain))
    (DefPart nDep (Export Source Gate Drain))
    (Part nEnh (InstName D0) (Location -800 -400)
     (T Gate N9) (T Source N5) (T Drain N11)
     (Channel (Length 400) (Width 2800)
      ( CIF " L NX; B L400 W1200 C-600 -1400; ")))
    (Net N5 OUT (Location -800 2800) ( CIF " ... "))
    (Local N2 N5 N9 N11))
    v}

    Geometry strings use the figure's mini-CIF dialect ([B L… W… C… …]) and
    the pseudo-layer [NX] for transistor channels.  [to_string] followed by
    [of_string] is the identity on circuits (round-trip property, tested);
    geometry strings survive when [emit_geometry] was set. *)

(** [to_string ?emit_geometry circuit] renders the wirelist.  Geometry is
    suppressed by default, like the paper's normal operation. *)
val to_string : ?emit_geometry:bool -> Circuit.t -> string

(** [to_channel ?emit_geometry oc circuit] writes the same text as
    {!to_string}, streamed through one buffer of about 64 KiB that is
    flushed at record boundaries, so the whole text is never held in
    memory. *)
val to_channel : ?emit_geometry:bool -> out_channel -> Circuit.t -> unit

exception Error of string

(** Parse a flat wirelist back into a circuit.  Raises {!Error}. *)
val of_string : string -> Circuit.t

(** The mini-CIF geometry dialect of the figures.  [None] as a layer stands
    for the figures' pseudo-layer [NX] (transistor channel). *)
module Geometry_text : sig
  val to_string : (Layer.t option * Box.t) list -> string

  val of_string : string -> (Layer.t option * Box.t) list
end
