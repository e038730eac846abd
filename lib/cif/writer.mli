
(** CIF text generation.

    Produces conventional, human-readable CIF: one command per line,
    semicolon-terminated, symbol definitions first, then the top level and
    the final [E].  [Parser.parse_string] of the output reconstructs the
    same AST (round-trip property, tested). *)

val to_string : Ast.file -> string

val to_file : string -> Ast.file -> unit
