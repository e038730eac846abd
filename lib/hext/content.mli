open Ace_geom
open Ace_tech

(** Window contents and the guillotine partitioner (HEXT's front-end).

    A window is a rectangle of the chip holding geometry boxes, labels and
    (unexpanded) symbol instances.  The partitioner repeatedly:

    - {e recognizes redundant windows} via a canonical form (HEXT §3:
      "the front-end remembers each unique window in a table");
    - slices a window in two along a cut line chosen from instance
      bounding-box edges — geometry is split at the line, instances never
      are (this realizes the paper's disjoint transformation with only
      simple windows, so {!Ace_core.Fragment.compose} never sees complex
      shapes);
    - expands instances one level when no valid cut exists (overlapping
      bounding boxes — the papers' cell-overlap problem).

    A vertical cut never crosses a contact-cut box: the contact rule
    bridges conductors {e horizontally} across the cut's extent within a
    strip, so splitting one in x could lose a connection that the flat
    extractor finds. *)

type item =
  | Geometry of Layer.t * Box.t
  | Label of Ace_cif.Design.label
  | Instance of int * Transform.t  (** symbol id, placement *)

type window = { area : Box.t; items : item list }

(** Initial window of a whole design: chip bounding box + top level. *)
val of_design : Ace_cif.Design.t -> window option

(** Origin-normalized, sorted content — equal canonical forms mean the
    windows are identical up to translation. *)
type canonical

val canonicalize : window -> canonical
val canonical_equal : canonical -> canonical -> bool
val canonical_hash : canonical -> int

val has_instances : window -> bool

(** Number of geometry boxes. *)
val box_count : window -> int

type cut = Vertical of int | Horizontal of int  (** chip coordinate *)

(** A valid guillotine cut strictly inside the window: prefers edges (of
    instance bboxes or geometry) near the middle.  [None] if nothing can
    be split. *)
val choose_cut : Ace_cif.Design.t -> window -> cut option

(** Split at a cut: geometry boxes are clipped to each side, labels
    assigned by position, instances (which never straddle a valid cut) by
    bbox.  Returns (low/left side, high/right side). *)
val split : Ace_cif.Design.t -> window -> cut -> window * window

(** Replace every instance by its symbol's contents (geometry decomposed,
    one level only), clipped to the window. *)
val expand_instances : Ace_cif.Design.t -> window -> window
