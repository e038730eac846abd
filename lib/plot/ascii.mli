open Ace_geom
open Ace_tech

(** Terminal rendering of layouts: one character per grid square, the
    topmost-priority layer wins ([X] marks a transistor channel).  Handy
    for eyeballing generated cells in tests and the REPL. *)

(** [render ~grid boxes] — [grid] is centimicrons per character cell
    (default 250 = 1λ).  Returns rows from top to bottom. *)
val render : ?grid:int -> (Layer.t * Box.t) list -> string list

val render_design : ?grid:int -> Ace_cif.Design.t -> string list

val to_string : string list -> string
