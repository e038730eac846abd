(** Axis-aligned integer boxes (rectangles).

    A box is the half-open product [\[l, r) × \[b, t)]: two boxes that merely
    share an edge have zero-area intersection but are considered {e abutting},
    which is what makes electrical connectivity through shared edges work.
    Invariant: [l < r] and [b < t] — empty boxes cannot be constructed. *)

type t = private { l : int; b : int; r : int; t : int }

(** [make ~l ~b ~r ~t] builds a box; raises [Invalid_argument] unless
    [l < r && b < t]. *)
val make : l:int -> b:int -> r:int -> t:int -> t

(** [of_center_size ~cx ~cy ~w ~h] is CIF's B command geometry: a [w]×[h] box
    centered at ([cx], [cy]).  [w] and [h] must be positive and such that the
    corners land on integers (even, for odd centers use [make]). *)
val of_center_size : cx:int -> cy:int -> w:int -> h:int -> t

(** [low_edge ~center ~size] is the int-level form of {!of_center_size}
    along one axis: the low edge of an extent [size] centred at [center];
    the high edge is [low_edge ~center ~size + size]. *)
val low_edge : center:int -> size:int -> int

val width : t -> int
val height : t -> int
val area : t -> int

val center : t -> Point.t

(** Bottom-left corner. *)
val min_corner : t -> Point.t

val equal : t -> t -> bool
val compare : t -> t -> int

val contains_point : t -> Point.t -> bool

(** Strictly positive-area overlap. *)
val overlaps : t -> t -> bool

(** Overlapping or sharing an edge of positive length (not just a corner). *)
val touches : t -> t -> bool

val intersection : t -> t -> t option

(** Smallest box containing both. *)
val hull : t -> t -> t

(** Hull of a non-empty list; [None] for the empty list. *)
val hull_list : t list -> t option

val translate : t -> dx:int -> dy:int -> t

(** [clip box ~window] is the part of [box] inside [window], if any. *)
val clip : t -> window:t -> t option

val pp : Format.formatter -> t -> unit
