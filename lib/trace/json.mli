(** Minimal JSON reader: `aced`'s request reader and the validator of
    exported traces. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val parse : string -> (t, string) result
val member : string -> t -> t option
