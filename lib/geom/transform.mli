(** Orthogonal affine transforms — CIF symbol-call semantics.

    A transform maps p to M·p + d where M is one of the eight orthogonal
    integer matrices (four rotations, optionally mirrored).  CIF builds the
    transform of a call by applying primitive operations {e in order} to the
    symbol's coordinates: [T dx dy] (translate), [M X] (x → −x), [M Y]
    (y → −y), [R a b] (rotate the +x direction to point along (a, b);
    manhattan directions only). *)

type t

val identity : t

val translation : dx:int -> dy:int -> t

val mirror_x : t
val mirror_y : t

(** [rotation ~a ~b] rotates the +x axis to the direction (a, b), which must
    be one of the four axis directions (any positive multiple accepted).
    Raises [Invalid_argument] for non-manhattan directions. *)
val rotation : a:int -> b:int -> t

(** [then_ t op] is the transform applying [t] first, then [op] — the order
    CIF lists call operations in. *)
val then_ : t -> t -> t

(** [compose outer inner] applies [inner] first. *)
val compose : t -> t -> t

val inverse : t -> t

val apply : t -> Point.t -> Point.t

(** Transformed box (corners mapped, result re-normalized). *)
val apply_box : t -> Box.t -> Box.t

(** {2 Int-level forms}

    For callers that keep transforms inside flat int arrays, as
    [ints] consecutive ints (the matrix rows, then the offset).  {!compose}
    and {!apply_box} are defined through these, so the arithmetic has one
    home. *)

(** Ints per stored transform (6). *)
val ints : int

(** [blit t dst pos] stores [t] at [dst.(pos)]. *)
val blit : t -> int array -> int -> unit

(** [compose_into o oi i ii dst pos] stores [compose outer inner] at
    [dst.(pos)], where [outer] is stored at [o.(oi)] and [inner] at
    [i.(ii)].  [dst] may alias either operand. *)
val compose_into :
  int array -> int -> int array -> int -> int array -> int -> unit

(** [apply_box_into tr ti ~l ~b ~r ~t dst pos] stores the image of the box
    [l b r t] under the transform at [tr.(ti)] as four ints l b r t at
    [dst.(pos)] — {!apply_box} without allocating. *)
val apply_box_into :
  int array -> int -> l:int -> b:int -> r:int -> t:int -> int array -> int ->
  unit

val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit
