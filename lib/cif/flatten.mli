open Ace_geom
open Ace_tech

(** Full instantiation of a design to primitive boxes.

    This is the path baseline extractors take (they "operate on a list of
    all the geometric shapes on a chip", HEXT §1).  ACE's own front-end
    avoids it — see {!Stream}. *)

(** All primitive boxes of the chip, with resolved layers, in no particular
    order.  Allocates the whole list: O(N) space. *)
val flatten : Design.t -> (Layer.t * Box.t) list

(** [iter design f] visits every primitive box without building a list. *)
val iter : Design.t -> (Layer.t -> Box.t -> unit) -> unit
