open Ace_tech

(** Convenience constructors for CIF ASTs.

    Layout generators work in λ (lambda) units; the builder scales them to
    CIF centimicrons.  All helpers produce plain {!Ace_cif.Ast} values so
    generated chips go through exactly the same front-end as file input. *)

type t

(** [create ~lambda ()] — λ in centimicrons (Mead–Conway: 250). *)
val create : ?lambda:int -> unit -> t

val lambda : t -> int

(** [box b layer ~l ~b_ ~r ~t] — a box given by edges in λ units. *)
val box : t -> Layer.t -> l:int -> b:int -> r:int -> t_:int -> Ace_cif.Ast.element

(** A label (CIF extension 94) at a λ-unit point. *)
val label : t -> string -> x:int -> y:int -> ?layer:Layer.t -> unit -> Ace_cif.Ast.element

(** Define a symbol from elements; returns its id for {!call}. *)
val symbol : t -> ?name:string -> Ace_cif.Ast.element list -> int

(** [call b id ~dx ~dy] — instantiate at a λ-unit offset. *)
val call : t -> int -> dx:int -> dy:int -> Ace_cif.Ast.element

(** Translate op in λ units. *)
val translate : t -> dx:int -> dy:int -> Ace_cif.Ast.transform_op

(** Finish: a file with the given top-level elements and all defined
    symbols. *)
val file : t -> Ace_cif.Ast.element list -> Ace_cif.Ast.file

(** Shorthand: build, check and wrap into a design in one step. *)
val design : t -> Ace_cif.Ast.element list -> Ace_cif.Design.t
