open Ace_geom

type transform_op =
  | Translate of int * int
  | Mirror_x
  | Mirror_y
  | Rotate of int * int

type shape =
  | Box of {
      length : int;
      width : int;
      center : Point.t;
      direction : Point.t option;
    }
  | Polygon of Point.t list
  | Wire of { width : int; path : Point.t list }
  | Round_flash of { diameter : int; center : Point.t }

type element =
  | Shape of { layer : string; shape : shape }
  | Call of { symbol : int; ops : transform_op list }
  | Label of { name : string; position : Point.t; layer : string option }
  | Comment_ext of string

type symbol_def = { id : int; name : string option; elements : element list }
type file = { symbols : symbol_def list; top_level : element list }

let called_symbols elements =
  List.filter_map
    (function
      | Call { symbol; _ } -> Some symbol
      | Shape _ | Label _ | Comment_ext _ -> None)
    elements
