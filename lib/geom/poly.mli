(** Polygon and wire decomposition into manhattan boxes.

    ACE's front-end "splits non-manhattan geometry into a number of small
    aligned boxes that approximate the original object" before handing it to
    the scanline back-end.  This module implements that splitting:

    - manhattan polygons (all edges axis-parallel) decompose {e exactly}
      into boxes;
    - polygons with sloped edges are sliced into horizontal strips of height
      [quantum] and each strip is approximated by the boxes covering the
      polygon's span at the strip midline;
    - CIF wires become one box per manhattan segment (with the half-width
      square-end extension CIF specifies); sloped segments go through the
      polygon path. *)

(** A polygon given by its vertices in order (closed implicitly). *)
type polygon = Point.t list

(** [boxes_of_polygon ~quantum poly] decomposes a simple polygon.  [quantum]
    bounds the strip height used for sloped regions (e.g. λ/2); it is ignored
    for manhattan polygons.  Degenerate polygons (fewer than 3 distinct
    vertices, zero area) yield [\[\]]. *)
val boxes_of_polygon : quantum:int -> polygon -> Box.t list

(** [boxes_of_wire ~quantum ~width path] decomposes a CIF wire: a path of
    centerline points drawn with a pen of the given width.  Width must be
    positive; a single-point path yields one square. *)
val boxes_of_wire : quantum:int -> width:int -> Point.t list -> Box.t list

(** [boxes_of_round_flash ~quantum ~diameter ~center] approximates a CIF
    roundflash by stacked boxes inscribed in the circle. *)
val boxes_of_round_flash :
  quantum:int -> diameter:int -> center:Point.t -> Box.t list

(** Sum of box areas — decompositions of manhattan polygons preserve area. *)
val total_area : Box.t list -> int

(** Merge vertically stacked boxes with identical x-extent (reduces the box
    count of decompositions and geometry dumps). *)
val coalesce_columns : Box.t list -> Box.t list
