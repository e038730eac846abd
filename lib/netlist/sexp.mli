(** Minimal S-expressions for the CMU wirelist format.

    The papers describe the wirelist format as "easy to parse and extend
    because of its LISP like syntax"; this is the LISP-like substrate:
    atoms, double-quoted strings, and parenthesized lists. *)

type t = Atom of string | Str of string | List of t list

exception Parse_error of string

val parse_string : string -> t list

val to_string : t -> string
