open Ace_geom

(** Abstract syntax of CIF 2.0 (Caltech Intermediate Form).

    CIF is the interchange format the papers take as input (Mead & Conway,
    chapter 4).  A file is a sequence of commands; symbol definitions [DS]
    … [DF] bracket reusable cells which calls [C] instantiate under a
    geometric transformation.  The parser resolves CIF's stateful
    current-layer into an explicit layer on every shape, and applies the
    [DS] scale factor to all contained coordinates, so consumers never see
    either piece of state. *)

type transform_op =
  | Translate of int * int
  | Mirror_x  (** M X — negate x *)
  | Mirror_y  (** M Y — negate y *)
  | Rotate of int * int  (** R a b — +x axis to direction (a, b) *)

type shape =
  | Box of {
      length : int;  (** extent along the direction axis *)
      width : int;
      center : Point.t;
      direction : Point.t option;  (** None = (1, 0) *)
    }
  | Polygon of Point.t list
  | Wire of { width : int; path : Point.t list }
  | Round_flash of { diameter : int; center : Point.t }

type element =
  | Shape of { layer : string; shape : shape }
  | Call of { symbol : int; ops : transform_op list }
  | Label of { name : string; position : Point.t; layer : string option }
      (** user extension [94 name x y \[layer\]] — "Names in CIF" *)
  | Comment_ext of string
      (** any other user-extension command, kept verbatim *)

type symbol_def = {
  id : int;
  name : string option;  (** user extension [9 name] inside the definition *)
  elements : element list;
}

type file = { symbols : symbol_def list; top_level : element list }

(** All symbol ids called (directly) by these elements. *)
val called_symbols : element list -> int list
