open Ace_geom

(** Conversion of CIF shapes to manhattan boxes.

    Implements the front-end rule "non-manhattan geometry is split into a
    number of small aligned boxes that approximate the original object"
    (ACE §3).  [quantum] is the strip height used for the approximation,
    typically λ/2. *)

(** [add_boxes ~quantum shape buf] appends the boxes of [shape], in
    symbol-local coordinates, to [buf] as four ints each (l, b, r, t).  The
    int-level decomposition: a manhattan box allocates nothing here. *)
val add_boxes : quantum:int -> Ast.shape -> Ibuf.t -> unit

(** Decomposed boxes of a shape, in symbol-local coordinates, in
    {!add_boxes} order. *)
val boxes_of_shape : quantum:int -> Ast.shape -> Box.t list

(** Cheap conservative bounding box (no decomposition); [None] for
    degenerate shapes.  Always contains every box of [boxes_of_shape]. *)
val shape_bbox : Ast.shape -> Box.t option
